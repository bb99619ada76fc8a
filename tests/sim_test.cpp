#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "util/rng.h"

namespace ofh::sim {
namespace {

TEST(Time, DurationHelpers) {
  EXPECT_EQ(msec(1), 1000u);
  EXPECT_EQ(seconds(1), 1'000'000u);
  EXPECT_EQ(minutes(2), 120'000'000u);
  EXPECT_EQ(hours(1), 3'600'000'000u);
  EXPECT_EQ(days(30), 30ull * 24 * 3600 * 1'000'000);
  EXPECT_EQ(to_seconds(seconds(90)), 90u);
  EXPECT_EQ(to_days(days(3) + hours(1)), 3u);
}

TEST(Time, FormatTime) {
  EXPECT_EQ(format_time(0), "d00 00:00:00.000000");
  EXPECT_EQ(format_time(days(2) + hours(3) + minutes(4) + seconds(5) + 6),
            "d02 03:04:05.000006");
}

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulation, TiesAreFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, AfterSchedulesRelative) {
  Simulation sim;
  Time fired = 0;
  sim.at(100, [&] {
    sim.after(50, [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, 150u);
}

TEST(Simulation, PastEventsClampToNow) {
  Simulation sim;
  Time fired = 0;
  sim.at(100, [&] {
    sim.at(10, [&] { fired = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(fired, 100u);
}

TEST(Simulation, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(200, [&] { ++fired; });
  sim.run_until(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 100u);  // clock ends at the deadline
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(300);
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventsMayScheduleMoreEvents) {
  Simulation sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) sim.after(1, chain);
  };
  sim.after(1, chain);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulation, StepReturnsFalseWhenIdle) {
  Simulation sim;
  EXPECT_FALSE(sim.step());
  sim.at(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, RunUntilNeverRewindsClock) {
  // Regression: run_until used to set now_ = deadline unconditionally, so a
  // deadline earlier than now() rewound the clock and broke monotonicity.
  Simulation sim;
  sim.run_until(100);
  EXPECT_EQ(sim.now(), 100u);
  sim.run_until(50);  // in the past: must be a no-op
  EXPECT_EQ(sim.now(), 100u);
  Time fired = 0;
  sim.after(10, [&] { fired = sim.now(); });
  sim.run();
  EXPECT_EQ(fired, 110u);  // not 60: relative times stay anchored at 100
}

TEST(Simulation, LargeClosuresFallBackToHeap) {
  // A capture larger than SmallCallable's inline buffer takes the heap
  // path; behaviour must be identical.
  Simulation sim;
  std::array<std::uint64_t, 32> payload{};  // 256 bytes
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i;
  std::uint64_t sum = 0;
  sim.at(5, [payload, &sum] {
    for (const auto v : payload) sum += v;
  });
  sim.run();
  EXPECT_EQ(sum, 32u * 31u / 2);
}

TEST(Simulation, ArenaRecyclesNodesAcrossWaves) {
  // Repeated schedule/drain waves exercise the free list; every event must
  // fire exactly once regardless of node reuse.
  Simulation sim;
  int fired = 0;
  for (int wave = 0; wave < 10; ++wave) {
    for (int i = 0; i < 1'000; ++i) {
      sim.after(static_cast<Duration>(i + 1), [&fired] { ++fired; });
    }
    sim.run();
  }
  EXPECT_EQ(fired, 10'000);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, RandomInsertionFiresInTimeOrderWithFifoTies) {
  Simulation sim;
  util::Rng rng(7);
  std::vector<std::pair<Time, int>> fired;  // (time, insertion index)
  for (int i = 0; i < 500; ++i) {
    const Time t = rng.below(50);
    sim.at(t, [&sim, &fired, i] { fired.push_back({sim.now(), i}); });
  }
  sim.run();
  ASSERT_EQ(fired.size(), 500u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first) {
      ASSERT_LT(fired[i - 1].second, fired[i].second);  // FIFO ties
    }
  }
}

TEST(Simulation, FixedDelayLanesCountAsPending) {
  Simulation sim;
  std::vector<int> order;
  sim.after_fixed(5, [&] { order.push_back(1); });
  sim.after_fixed(5, [&] { order.push_back(2); });
  sim.after_fixed(9, [&] { order.push_back(3); });
  sim.after(5, [&] { order.push_back(4); });  // ties with 1 and 2: FIFO
  EXPECT_EQ(sim.pending(), 4u);
  sim.run_until(5);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
  EXPECT_EQ(sim.pending(), 0u);
}

// One seeded schedule run through after() only, or with its fixed-delay
// events through after_fixed(). Events fire, log (time, id) and sometimes
// schedule children; between run_until deadlines the test schedules more
// from outside any event and logs pending().
struct MixedScheduleLog {
  std::vector<std::pair<Time, int>> fired;
  std::vector<std::size_t> pending;
};

MixedScheduleLog run_mixed_schedule(bool use_lanes) {
  constexpr std::array<Duration, 4> kFixedDelays = {0, 3, 7, 20};
  Simulation sim;
  MixedScheduleLog log;
  int next_id = 0;
  std::function<void(util::Rng&)> schedule = [&](util::Rng& rng) {
    const int id = next_id++;
    auto action = [&sim, &log, &schedule, id] {
      log.fired.push_back({sim.now(), id});
      util::Rng child(static_cast<std::uint64_t>(id));
      if (child.below(3) == 0) {
        schedule(child);
        schedule(child);
      }
    };
    if (rng.below(2) == 0) {
      const Duration delay = kFixedDelays[rng.below(kFixedDelays.size())];
      if (use_lanes) {
        sim.after_fixed(delay, std::move(action));
      } else {
        sim.after(delay, std::move(action));
      }
    } else {
      sim.after(rng.below(25), std::move(action));  // jittered: heap only
    }
  };

  util::Rng rng(11);
  for (Time deadline = 0; deadline <= 400; deadline += 9) {
    for (int i = 0; i < 40; ++i) schedule(rng);
    sim.run_until(deadline);
    log.pending.push_back(sim.pending());
  }
  sim.run();
  log.pending.push_back(sim.pending());
  return log;
}

TEST(Simulation, FixedDelayLanesKeepHeapOrder) {
  const MixedScheduleLog heap_only = run_mixed_schedule(false);
  const MixedScheduleLog with_lanes = run_mixed_schedule(true);
  ASSERT_GT(heap_only.fired.size(), 2'000u);
  EXPECT_EQ(with_lanes.fired, heap_only.fired);
  EXPECT_EQ(with_lanes.pending, heap_only.pending);
  EXPECT_GT(*std::max_element(with_lanes.pending.begin(),
                              with_lanes.pending.end()),
            0u);
}

TEST(SmallCallable, InlineCaptureDestroyedExactlyOnce) {
  auto token = std::make_shared<int>(5);
  {
    SmallCallable callable([token] {});
    EXPECT_EQ(token.use_count(), 2);
    SmallCallable moved = std::move(callable);
    EXPECT_EQ(token.use_count(), 2);  // moved, not copied
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SmallCallable, HeapCaptureDestroyedExactlyOnce) {
  auto token = std::make_shared<int>(5);
  std::array<char, 128> ballast{};  // forces the heap fallback
  {
    SmallCallable callable([token, ballast] { (void)ballast; });
    EXPECT_EQ(token.use_count(), 2);
    SmallCallable moved = std::move(callable);
    EXPECT_EQ(token.use_count(), 2);
    int calls = 0;
    SmallCallable counter([&calls] { ++calls; });
    counter();
    counter();
    EXPECT_EQ(calls, 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace ofh::sim
