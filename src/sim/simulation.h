// Discrete-event simulation kernel. Events are closures ordered by
// (time, insertion sequence); ties are FIFO so runs are deterministic.
// Storage is a pool-allocated event arena (sim/event_queue.h) holding
// small-buffer callables (sim/small_callable.h), so the hot loop performs
// no per-event heap allocation in steady state.
//
// Threading: a Simulation instance is single-threaded by design — the
// determinism contract is (time, seq) total order, which has no meaning
// across concurrent mutators. Parallelism happens one level up:
// sim/parallel.h runs independent Simulation instances on worker threads
// and merges their outputs deterministically.
#pragma once

#include <cstdint>

#include "sim/event_queue.h"
#include "sim/small_callable.h"
#include "sim/time.h"

namespace ofh::sim {

class Simulation {
 public:
  using Action = SmallCallable;

  Time now() const { return now_; }
  std::uint64_t events_processed() const { return processed_; }
  std::size_t pending() const { return queue_.size(); }

  // Schedules an action at an absolute time (clamped to now).
  void at(Time t, Action action) {
    if (t < now_) t = now_;
    queue_.push(t, next_seq_++, std::move(action));
  }

  void after(Duration d, Action action) { at(now_ + d, std::move(action)); }

  // Same order as after(d, action), without heap work: the event goes to a
  // FIFO lane kept for this exact delay (sim/event_queue.h). Use it for
  // timers whose delay is one fixed value across many events, such as a
  // sweep's connect timeout; delays that vary per event belong in after().
  void after_fixed(Duration d, Action action) {
    queue_.push_fixed(d, now_ + d, next_seq_++, std::move(action));
  }

  // Runs until the queue drains.
  void run() {
    while (step()) {
    }
  }

  // Runs events with time <= deadline; the clock ends at the deadline even
  // if the queue drained earlier, so periodic processes measure full
  // windows. A deadline in the past is a no-op: the clock never rewinds.
  void run_until(Time deadline) {
    while (!queue_.empty() && queue_.top_when() <= deadline) step();
    if (deadline > now_) now_ = deadline;
  }

  // Executes the single earliest event; returns false when idle.
  bool step() {
    if (queue_.empty()) return false;
    Time when = 0;
    Action action = queue_.pop(&when);
    now_ = when;
    ++processed_;
    action();
    return true;
  }

 private:
  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace ofh::sim
