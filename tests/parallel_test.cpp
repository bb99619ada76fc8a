// The deterministic parallel execution layer: ThreadPool mechanics,
// ParallelRunner ordering, the (time, shard, seq) merge, and the headline
// property — same seed, serial vs 1/2/8-thread study scans produce
// byte-identical ScanDB contents and rendered report tables.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/reports.h"
#include "core/study.h"
#include "sim/parallel.h"
#include "util/thread_pool.h"

namespace ofh {
namespace {

// ------------------------------------------------------------- thread pool

TEST(ThreadPool, RunsEverySubmittedTask) {
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, WaitIdleIsASynchronizationPoint) {
  // Plain (non-atomic) writes: wait_idle() must establish the
  // happens-before edge that makes reading them back race-free. TSan
  // verifies this under the tsan preset.
  util::ThreadPool pool(3);
  std::vector<int> results(64, 0);
  for (int i = 0; i < 64; ++i) {
    pool.submit([&results, i] { results[i] = i * i; });
  }
  pool.wait_idle();
  for (int i = 0; i < 64; ++i) EXPECT_EQ(results[i], i * i);
}

TEST(ThreadPool, ZeroRequestedThreadsStillRuns) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  bool ran = false;
  pool.submit([&ran] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran);
}

// --------------------------------------------------------- parallel runner

TEST(ParallelRunner, ResultsAreInJobIndexOrderForAnyThreadCount) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 16; ++i) jobs.emplace_back([i] { return i * 7; });
    const auto results = sim::ParallelRunner(threads).run(std::move(jobs));
    ASSERT_EQ(results.size(), 16u) << threads;
    for (int i = 0; i < 16; ++i) EXPECT_EQ(results[i], i * 7) << threads;
  }
}

TEST(ParallelRunner, LongestFirstOrderIsDescendingCostThenIndex) {
  using Order = std::vector<std::size_t>;
  // The scan's six sweeps: the two-port Telnet (2) and XMPP (5) go first.
  EXPECT_EQ(sim::longest_first_order(
                std::vector<std::uint64_t>{1, 1, 2, 1, 1, 2}),
            (Order{2, 5, 0, 1, 3, 4}));
  EXPECT_EQ(sim::longest_first_order(std::vector<std::uint64_t>{1, 2, 3}),
            (Order{2, 1, 0}));
  EXPECT_EQ(sim::longest_first_order(std::vector<std::uint64_t>{7, 7, 7}),
            (Order{0, 1, 2}));
  EXPECT_EQ(sim::longest_first_order({}), Order{});
}

TEST(ParallelRunner, CostsThatReverseJobOrderKeepResultsInJobIndexOrder) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    std::vector<std::function<int()>> jobs;
    std::vector<std::uint64_t> costs;
    for (int i = 0; i < 16; ++i) {
      jobs.emplace_back([i] { return i * 7; });
      costs.push_back(static_cast<std::uint64_t>(i));  // last job first
    }
    const auto results =
        sim::ParallelRunner(threads).run(std::move(jobs), costs);
    ASSERT_EQ(results.size(), 16u) << threads;
    for (int i = 0; i < 16; ++i) EXPECT_EQ(results[i], i * 7) << threads;
  }
}

TEST(ParallelRunner, OneThreadRunsJobsInIndexOrderWhateverTheCosts) {
  std::vector<int> ran;
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.emplace_back([&ran, i] {
      ran.push_back(i);
      return i;
    });
  }
  const std::vector<std::uint64_t> costs = {1, 2, 3, 4};
  sim::ParallelRunner(1).run(std::move(jobs), costs);
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ParallelRunner, RejectsACostCountThatDoesNotMatchTheJobs) {
  std::vector<std::function<int()>> jobs(3, [] { return 0; });
  const std::vector<std::uint64_t> costs = {1, 2};
  EXPECT_THROW(sim::ParallelRunner(2).run(std::move(jobs), costs),
               std::invalid_argument);
}

TEST(ParallelRunner, ShardSeedsAreDistinctAndDecorrelated) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 64; ++i) {
    seeds.insert(sim::shard_seed(42, i));
  }
  EXPECT_EQ(seeds.size(), 64u);          // no collisions
  EXPECT_EQ(seeds.count(42), 0u);        // never the base seed itself
  EXPECT_NE(sim::shard_seed(42, 0), sim::shard_seed(43, 0));
}

TEST(MergeByTime, OrdersByTimeThenShardThenSeq) {
  struct Item {
    sim::Time when;
    int shard;
    int seq;
  };
  std::vector<std::vector<Item>> shards = {
      {{10, 0, 0}, {20, 0, 1}},
      {{10, 1, 0}, {15, 1, 1}},
  };
  const auto merged = sim::merge_by_time(
      std::move(shards), [](const Item& item) { return item.when; });
  ASSERT_EQ(merged.size(), 4u);
  // Tie at t=10 resolves to the lower shard index; within shards original
  // order is preserved.
  EXPECT_EQ(merged[0].shard, 0);
  EXPECT_EQ(merged[1].shard, 1);
  EXPECT_EQ(merged[2].when, 15u);
  EXPECT_EQ(merged[3].when, 20u);
}

// ----------------------------------------------- study scan determinism

std::string serialize(const scanner::ScanDb& db) {
  std::ostringstream out;
  for (const auto& record : db.records()) {
    out << record.host.value() << '|' << record.port << '|'
        << static_cast<int>(record.protocol) << '|' << record.when << '|'
        << record.banner << '\n';
  }
  out << "probes=" << db.probes_sent();
  return out.str();
}

core::StudyConfig scan_config(unsigned threads) {
  core::StudyConfig config;
  config.seed = 2021;
  config.population_scale = 1.0 / 16'384;
  config.scan_threads = threads;
  return config;
}

TEST(ParallelScan, SerialAndParallelRunsAreByteIdentical) {
  core::Study serial(scan_config(1));
  serial.setup_internet();
  serial.run_scan();
  serial.run_datasets();
  const std::string reference = serialize(serial.scan_db());
  const std::string table4 = core::report_table4_exposed(serial);
  const std::string table5 = core::report_table5_misconfigured(serial);
  // Snapshot the observability exports NOW: constructing the next Study
  // resets the process-wide registries (metrics and traces).
  const std::string metrics_prometheus = serial.metrics_prometheus();
  const std::string metrics_csv = serial.metrics_csv();
  const std::string trace_json = serial.trace_json();
  const std::string attack_chains = serial.attack_chains();
  ASSERT_GT(serial.scan_db().size(), 0u);
#ifndef OFH_NO_METRICS
  ASSERT_FALSE(metrics_prometheus.empty());
  ASSERT_FALSE(metrics_csv.empty());
  // The serial scan leaves a real trace (probes, packets, verdicts).
  ASSERT_NE(trace_json.find("\"cat\":\"probe\""), std::string::npos);
  ASSERT_NE(trace_json.find("\"name\":\"verdict\""), std::string::npos);
#endif

  for (const unsigned threads : {2u, 8u, 0u}) {  // 0 = hardware concurrency
    core::Study study(scan_config(threads));
    study.setup_internet();
    study.run_scan();
    study.run_datasets();
    EXPECT_EQ(serialize(study.scan_db()), reference)
        << "scan_threads=" << threads;
    // Capacity stability: run_scan reserves the exact merged record count
    // before the fold, so the arena never grew past one allocation — the
    // capacity equals the size instead of a geometric overshoot.
    EXPECT_EQ(study.scan_db().records_capacity(), study.scan_db().size())
        << "scan_threads=" << threads;
    // The deterministic telemetry exports are byte-identical too: every
    // Domain::kSim cell is an order-independent sum over identical
    // per-shard work, and wall-domain metrics never reach these exports.
    EXPECT_EQ(study.metrics_prometheus(), metrics_prometheus)
        << "scan_threads=" << threads;
    EXPECT_EQ(study.metrics_csv(), metrics_csv)
        << "scan_threads=" << threads;
    // The causal trace is byte-identical too: events are recorded per
    // deterministic *shard* (not per thread), stamped with sim-time and a
    // per-shard seq, and merged in (time, shard, seq) total order.
    EXPECT_EQ(study.trace_json(), trace_json)
        << "scan_threads=" << threads;
    EXPECT_EQ(study.attack_chains(), attack_chains)
        << "scan_threads=" << threads;
    EXPECT_EQ(core::report_table4_exposed(study), table4)
        << "scan_threads=" << threads;
    EXPECT_EQ(core::report_table5_misconfigured(study), table5)
        << "scan_threads=" << threads;
    EXPECT_EQ(study.findings().size(), serial.findings().size());
    EXPECT_EQ(study.scan_dates(), serial.scan_dates());
  }
}

}  // namespace
}  // namespace ofh
