// Deterministic parallel execution of independent Simulation instances.
//
// The kernel (sim/simulation.h) is single-threaded by contract; scale comes
// from running *independent* simulations — one per protocol sweep, one per
// experiment shard — on worker threads and merging their outputs in an
// order that depends only on the shard inputs, never on scheduling:
//
//   * shard_seed() derives decorrelated per-shard seeds via splitmix64;
//   * ParallelRunner::run() returns results in job-index order (each job
//     writes its own pre-allocated slot), whatever order the jobs ran in;
//     given per-job costs it hands the longest jobs to the pool first, so
//     the batch's wall time approaches its longest job;
//   * merge_by_time() interleaves per-shard, time-sorted record vectors by
//     (time, shard index, intra-shard seq) — a total order, so the merged
//     stream is byte-identical no matter how many workers ran.
//
// With threads == 1 the same code path runs inline on the caller's thread,
// which is what makes "serial vs parallel output is byte-identical"
// testable rather than aspirational.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace ofh::sim {

// Seed for shard `index`: splitmix64 over the base seed and a Weyl step, so
// neighbouring shards get decorrelated streams (the generator the study's
// Rng is itself seeded with).
inline std::uint64_t shard_seed(std::uint64_t base_seed,
                                std::uint64_t shard_index) {
  return util::splitmix64(base_seed +
                          0x9e3779b97f4a7c15ULL * (shard_index + 1));
}

// Job indices in longest-first order: descending cost, ties by ascending
// index. Workers take jobs from a FIFO queue, so in this order no job
// waits behind a cheaper one (LPT scheduling): with at least as many
// workers as long jobs, the batch takes about its longest job instead of
// a short job followed by a long one.
inline std::vector<std::size_t> longest_first_order(
    std::span<const std::uint64_t> costs) {
  std::vector<std::size_t> order(costs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [costs](std::size_t a, std::size_t b) {
                     return costs[a] > costs[b];
                   });
  return order;
}

class ParallelRunner {
 public:
  // threads == 1: run jobs inline on the calling thread (the serial
  // reference). threads == 0: one worker per hardware thread.
  explicit ParallelRunner(unsigned threads)
      : threads_(threads == 0 ? util::ThreadPool::default_thread_count()
                              : threads) {}

  unsigned threads() const { return threads_; }

  // Runs every job and returns their results in job-index order. R must be
  // default-constructible and movable. `costs`, if given, holds one
  // relative cost per job: with more than one thread the jobs go to the
  // pool in longest_first_order(costs), otherwise in index order. Jobs are
  // independent, so the order changes only when each one runs, never what
  // it returns or where its result lands.
  template <typename R>
  std::vector<R> run(std::vector<std::function<R()>> jobs,
                     std::span<const std::uint64_t> costs = {}) {
    if (!costs.empty() && costs.size() != jobs.size()) {
      throw std::invalid_argument("ParallelRunner::run: one cost per job");
    }
    std::vector<R> results(jobs.size());
    if (threads_ <= 1 || jobs.size() <= 1) {
      for (std::size_t i = 0; i < jobs.size(); ++i) results[i] = jobs[i]();
      return results;
    }
    std::vector<std::size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (!costs.empty()) order = longest_first_order(costs);
    {
      util::ThreadPool pool(static_cast<unsigned>(
          std::min<std::size_t>(threads_, jobs.size())));
      for (const std::size_t i : order) {
        pool.submit([&results, &jobs, i] { results[i] = jobs[i](); });
      }
      pool.wait_idle();
    }
    return results;
  }

 private:
  unsigned threads_;
};

// Deterministic k-way merge of per-shard result vectors, each already
// sorted by time (simulation output is produced in event order, so shard
// vectors are non-decreasing by construction). Ties across shards resolve
// to the lower shard index; within a shard, original order is kept. The
// result is therefore a pure function of the shard contents.
template <typename T, typename TimeFn>
std::vector<T> merge_by_time(std::vector<std::vector<T>> shards,
                             TimeFn time_of) {
  std::vector<T> merged;
  std::size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  merged.reserve(total);
  std::vector<std::size_t> cursor(shards.size(), 0);
  while (merged.size() < total) {
    std::size_t best = shards.size();
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (cursor[s] >= shards[s].size()) continue;
      if (best == shards.size() ||
          time_of(shards[s][cursor[s]]) < time_of(shards[best][cursor[best]])) {
        best = s;
      }
    }
    merged.push_back(std::move(shards[best][cursor[best]]));
    ++cursor[best];
  }
  return merged;
}

}  // namespace ofh::sim
