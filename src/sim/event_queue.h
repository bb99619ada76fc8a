// Pool-backed event queue for the simulation kernel. Event nodes live in a
// chunked arena with stable addresses and are recycled through a free list,
// so steady-state scheduling performs no allocation (the previous kernel
// heap-allocated a std::function per event). An index binary-heap orders
// events by (time, seq): seq is the insertion sequence, so ties are FIFO and
// runs are deterministic.
//
// Events scheduled a fixed delay from now (connect timeouts, banner windows,
// pump ticks) skip the heap: each distinct delay has a FIFO lane of node
// indices. The clock never runs backwards and seq only grows, so pushes to
// one lane arrive in (time, seq) order and the lane's head is its earliest
// event. pop() takes the least of the heap top and the lane heads, so the
// total order is the same as if every event had gone through the heap.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/small_callable.h"
#include "sim/time.h"

namespace ofh::sim {

class EventQueue {
 public:
  bool empty() const { return size() == 0; }
  std::size_t size() const { return heap_.size() + lane_events_; }

  Time top_when() const {
    assert(!empty());
    return at(earliest_node(earliest_source())).when;
  }

  void push(Time when, std::uint64_t seq, SmallCallable action) {
    heap_.push_back(make_node(when, seq, std::move(action)));
    sift_up(heap_.size() - 1);
  }

  // Appends to the FIFO lane for `delay`. The caller guarantees that the
  // lane stays sorted: `when` is now + delay for a clock that never runs
  // backwards, and seq is the next insertion sequence.
  void push_fixed(Duration delay, Time when, std::uint64_t seq,
                  SmallCallable action) {
    std::deque<std::uint32_t>& lane = lane_for(delay);
    const std::uint32_t index = make_node(when, seq, std::move(action));
    assert(lane.empty() || before(lane.back(), index));
    lane.push_back(index);
    ++lane_events_;
  }

  // Removes the earliest event; returns its action and stores its time in
  // *when. The node returns to the free list before the action runs, so an
  // action that schedules new events reuses it immediately.
  SmallCallable pop(Time* when) {
    assert(!empty());
    const std::size_t source = earliest_source();
    std::uint32_t index = 0;
    if (source == kHeapSource) {
      index = heap_.front();
      heap_.front() = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_down(0);
    } else {
      std::deque<std::uint32_t>& lane = lanes_[source].fifo;
      index = lane.front();
      lane.pop_front();
      --lane_events_;
    }
    Node& node = at(index);
    *when = node.when;
    SmallCallable action = std::move(node.action);
    release(index);
    return action;
  }

 private:
  struct Node {
    Time when = 0;
    std::uint64_t seq = 0;
    SmallCallable action;
    std::uint32_t next_free = kNil;
  };

  struct Lane {
    Duration delay = 0;
    std::deque<std::uint32_t> fifo;  // node indices in (when, seq) order
  };

  static constexpr std::uint32_t kNil = 0xffffffffU;
  static constexpr std::size_t kHeapSource = ~std::size_t{0};
  static constexpr std::size_t kChunkShift = 8;  // 256 nodes per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  Node& at(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }
  const Node& at(std::uint32_t index) const {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  std::uint32_t allocate() {
    if (free_head_ == kNil) {
      const auto base =
          static_cast<std::uint32_t>(chunks_.size() * kChunkSize);
      chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
      Node* chunk = chunks_.back().get();
      for (std::size_t i = kChunkSize; i-- > 0;) {
        chunk[i].next_free = free_head_;
        free_head_ = base + static_cast<std::uint32_t>(i);
      }
    }
    const std::uint32_t index = free_head_;
    free_head_ = at(index).next_free;
    return index;
  }

  std::uint32_t make_node(Time when, std::uint64_t seq,
                          SmallCallable action) {
    const std::uint32_t index = allocate();
    Node& node = at(index);
    node.when = when;
    node.seq = seq;
    node.action = std::move(action);
    return index;
  }

  // Few distinct delays are in use at once, so a linear scan finds the lane.
  std::deque<std::uint32_t>& lane_for(Duration delay) {
    for (Lane& lane : lanes_) {
      if (lane.delay == delay) return lane.fifo;
    }
    lanes_.push_back(Lane{delay, {}});
    return lanes_.back().fifo;
  }

  // kHeapSource or the index of the lane holding the earliest event.
  std::size_t earliest_source() const {
    std::size_t source = kHeapSource;
    std::uint32_t best = heap_.empty() ? kNil : heap_.front();
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const std::deque<std::uint32_t>& lane = lanes_[i].fifo;
      if (lane.empty()) continue;
      if (best == kNil || before(lane.front(), best)) {
        source = i;
        best = lane.front();
      }
    }
    return source;
  }

  std::uint32_t earliest_node(std::size_t source) const {
    return source == kHeapSource ? heap_.front() : lanes_[source].fifo.front();
  }

  void release(std::uint32_t index) {
    Node& node = at(index);
    node.action.reset();
    node.next_free = free_head_;
    free_head_ = index;
  }

  bool before(std::uint32_t a, std::uint32_t b) const {
    const Node& na = at(a);
    const Node& nb = at(b);
    if (na.when != nb.when) return na.when < nb.when;
    return na.seq < nb.seq;
  }

  void sift_up(std::size_t pos) {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (!before(heap_[pos], heap_[parent])) break;
      std::swap(heap_[pos], heap_[parent]);
      pos = parent;
    }
  }

  void sift_down(std::size_t pos) {
    const std::size_t count = heap_.size();
    while (true) {
      const std::size_t left = 2 * pos + 1;
      if (left >= count) break;
      std::size_t smallest = left;
      const std::size_t right = left + 1;
      if (right < count && before(heap_[right], heap_[left])) smallest = right;
      if (!before(heap_[smallest], heap_[pos])) break;
      std::swap(heap_[pos], heap_[smallest]);
      pos = smallest;
    }
  }

  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::vector<std::uint32_t> heap_;  // indices into the arena
  std::vector<Lane> lanes_;
  std::size_t lane_events_ = 0;
  std::uint32_t free_head_ = kNil;
};

}  // namespace ofh::sim
