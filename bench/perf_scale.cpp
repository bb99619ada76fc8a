// Scale trajectory bench: runs the full study pipeline at a descending
// sequence of population-scale denominators and emits BENCH_scale.json —
// the checked-in record of what one machine sustains. Per scale it reports
//   hosts          population size (devices)
//   hosts_per_sec  population build+attach throughput
//   events_per_sec main-simulation events over the whole run's wall time
//   peak_rss_mb    /proc/self/status VmHWM after the run (cumulative
//                  high-water mark, so scales must run smallest-first)
//   conservation   sent == delivered + dropped + faulted  and
//                  probes == responsive + refused + unresolved
// and exits nonzero if any conservation identity fails — that is the only
// gating condition; throughput numbers are informational (scripts/ci.sh
// runs this non-gating at scale 512/64).
//
// A --workers list adds a second, also conservation-gated section: the
// scan phase executed on a forked dist::Coordinator fleet at 1/2/4 workers
// versus the in-process path, with the scan DB digest checked against the
// workers=0 baseline — throughput informational, byte-identity gating.
//
// Flags: --scales=512,64,8   denominators, run in the order given
//        --out=FILE          JSON output path (default: stdout only)
//        --full              append scale 1 (14.4M hosts) to the list
//        --seed=N            study seed (default 42)
//        --workers=1,2,4     distributed scan-phase rows (0 = baseline,
//                            always run first implicitly)
//        --workers-scale=64  denominator for the workers section
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/scan_shard.h"
#include "core/study.h"
#include "dist/coordinator.h"
#include "obs/proc_stat.h"
#include "util/strings.h"

// fork() and the TSan runtime don't mix; under a TSan build the workers
// section degrades to the in-process path (same policy as
// tools/scenario/scenario_runner.cpp).
#if defined(__SANITIZE_THREAD__)
#define OFH_BENCH_NO_FORK 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OFH_BENCH_NO_FORK 1
#endif
#endif

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Peak resident set in MiB (Linux; 0 elsewhere).
double peak_rss_mb() {
  return static_cast<double>(ofh::obs::read_proc_memory().vm_hwm_bytes) /
         (1024.0 * 1024.0);
}

struct ScaleResult {
  double denominator = 0;
  std::uint64_t hosts = 0;
  double setup_seconds = 0;
  double total_seconds = 0;
  std::uint64_t events = 0;
  double rss_mb = 0;
  bool packets_conserved = false;
  bool probes_conserved = false;
};

ScaleResult run_scale(double denominator, std::uint64_t seed) {
  ofh::core::StudyConfig config;
  config.seed = seed;
  config.population_scale = 1.0 / denominator;
  // Attack volume scales with the population so the honeynet/telescope
  // phases stress proportionally; two simulated days keep the attack
  // month from dominating the scan-phase measurement.
  config.attack_scale = 1.0 / (denominator * 4.0);
  config.attack_duration = ofh::sim::days(2);
  config.scan_threads = 0;  // one worker per hardware thread

  ScaleResult result;
  result.denominator = denominator;

  const auto start = Clock::now();
  ofh::core::Study study(config);
  study.setup_internet();
  result.setup_seconds = seconds_since(start);
  result.hosts = study.population().total_devices();

  study.run_scan();
  study.run_attack_month();
  // Drain late deliveries so inflight is zero and conservation is exact.
  study.sim().run_until(study.sim().now() + ofh::sim::hours(2));
  result.total_seconds = seconds_since(start);
  result.events = study.sim().events_processed() + study.scan_events();
  result.rss_mb = peak_rss_mb();

  const auto& fabric = study.fabric();
  result.packets_conserved =
      fabric.packets_sent() == fabric.packets_delivered() +
                                   fabric.packets_dropped() +
                                   fabric.packets_faulted();
  const auto& db = study.scan_db();
  result.probes_conserved =
      db.probes_sent() == db.responsive() + db.refused() + db.unresolved();
  return result;
}

// ---------------------------------------------------- distributed rows

struct WorkerResult {
  unsigned workers = 0;  // 0 = in-process (ParallelRunner) baseline
  std::uint64_t hosts = 0;
  double scan_seconds = 0;
  std::uint64_t probes = 0;
  std::uint64_t records = 0;
  std::uint64_t requeues = 0;  // retry-ledger entries across the run
  std::uint64_t digest = 0;    // FNV-1a over the merged scan DB
  bool identical = false;      // scan DB digest == workers=0 baseline
  bool probes_conserved = false;
};

// FNV-1a over the serialized scan DB: enough to detect any merge
// divergence without holding two full serializations in memory.
std::uint64_t scan_db_digest(const ofh::scanner::ScanDb& db) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  };
  for (const auto& record : db.records()) {
    const std::uint32_t host = record.host.value();
    const auto protocol = static_cast<std::uint8_t>(record.protocol);
    const std::uint64_t when = record.when;
    mix(&host, sizeof host);
    mix(&record.port, sizeof record.port);
    mix(&protocol, sizeof protocol);
    mix(&when, sizeof when);
    mix(record.banner.data(), record.banner.size());
  }
  const std::uint64_t probes = db.probes_sent();
  mix(&probes, sizeof probes);
  return hash;
}

WorkerResult run_workers(double denominator, std::uint64_t seed,
                         unsigned workers) {
  ofh::core::StudyConfig config;
  config.seed = seed;
  config.population_scale = 1.0 / denominator;
  config.scan_threads = workers == 0 ? 0 : 1;
  config.scan_workers = workers;

  std::uint64_t requeues = 0;
#ifndef OFH_BENCH_NO_FORK
  if (workers > 0) {
    ofh::core::set_scan_shard_dispatcher(
        [workers, &requeues](
            const ofh::core::StudyConfig& study_config,
            const std::vector<ofh::core::ScanShardJob>& jobs,
            const ofh::core::ScanShardProgressSink& sink)
            -> std::optional<std::vector<ofh::core::ScanShardResult>> {
          ofh::dist::CoordinatorOptions options;
          options.fork_workers = static_cast<unsigned>(std::min<std::size_t>(
              {workers, jobs.size(), 16}));
          options.wait_workers = options.fork_workers;
          ofh::dist::Coordinator coordinator(std::move(options));
          if (!coordinator.start()) return std::nullopt;
          auto results = coordinator.run(study_config, jobs, sink);
          requeues += coordinator.retry_ledger().size();
          coordinator.shutdown();
          return results;
        });
  }
#endif

  WorkerResult result;
  result.workers = workers;
  ofh::core::Study study(config);
  study.setup_internet();
  result.hosts = study.population().total_devices();
  const auto start = Clock::now();
  study.run_scan();
  result.scan_seconds = seconds_since(start);
  ofh::core::set_scan_shard_dispatcher({});

  const auto& db = study.scan_db();
  result.probes = db.probes_sent();
  result.records = db.size();
  result.requeues = requeues;
  result.digest = scan_db_digest(db);
  result.probes_conserved =
      db.probes_sent() == db.responsive() + db.refused() + db.unresolved();
  return result;
}

std::string to_json(const std::vector<ScaleResult>& results,
                    const std::vector<WorkerResult>& worker_results,
                    double workers_scale) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"perf_scale\",\n  \"scales\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const double hosts_per_sec =
        r.setup_seconds > 0 ? static_cast<double>(r.hosts) / r.setup_seconds
                            : 0;
    const double events_per_sec =
        r.total_seconds > 0 ? static_cast<double>(r.events) / r.total_seconds
                            : 0;
    char buffer[512];
    std::snprintf(
        buffer, sizeof buffer,
        "    {\"scale\": %.0f, \"hosts\": %llu, \"setup_seconds\": %.2f,\n"
        "     \"total_seconds\": %.2f, \"hosts_per_sec\": %.0f,\n"
        "     \"events\": %llu, \"events_per_sec\": %.0f,\n"
        "     \"peak_rss_mb\": %.1f, \"packets_conserved\": %s,\n"
        "     \"probes_conserved\": %s}%s\n",
        r.denominator, static_cast<unsigned long long>(r.hosts),
        r.setup_seconds, r.total_seconds, hosts_per_sec,
        static_cast<unsigned long long>(r.events), events_per_sec, r.rss_mb,
        r.packets_conserved ? "true" : "false",
        r.probes_conserved ? "true" : "false",
        i + 1 < results.size() ? "," : "");
    out << buffer;
  }
  out << "  ]";
  if (!worker_results.empty()) {
    char header[128];
    std::snprintf(header, sizeof header,
                  ",\n  \"workers_scale\": %.0f,\n  \"workers\": [\n",
                  workers_scale);
    out << header;
    for (std::size_t i = 0; i < worker_results.size(); ++i) {
      const auto& w = worker_results[i];
      char buffer[512];
      std::snprintf(
          buffer, sizeof buffer,
          "    {\"workers\": %u, \"hosts\": %llu, \"scan_seconds\": %.2f,\n"
          "     \"probes\": %llu, \"records\": %llu, \"requeues\": %llu,\n"
          "     \"identical\": %s, \"probes_conserved\": %s}%s\n",
          w.workers, static_cast<unsigned long long>(w.hosts),
          w.scan_seconds, static_cast<unsigned long long>(w.probes),
          static_cast<unsigned long long>(w.records),
          static_cast<unsigned long long>(w.requeues),
          w.identical ? "true" : "false",
          w.probes_conserved ? "true" : "false",
          i + 1 < worker_results.size() ? "," : "");
      out << buffer;
    }
    out << "  ]";
  }
  out << "\n}\n";
  return out.str();
}

// "a,b,c" where every item is a positive number of type T; nullopt on any
// malformed, empty or non-positive item.
template <typename T>
std::optional<std::vector<T>> parse_list(std::string_view spec) {
  std::vector<T> out;
  for (const auto& item : ofh::util::split(spec, ',')) {
    const auto value = ofh::util::parse_number<T>(item);
    if (!value || !(*value > 0)) return std::nullopt;
    out.push_back(*value);
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perf_scale [--scales=N,N,...] [--out=FILE] [--full] "
               "[--seed=N] [--workers=N,N,...] [--workers-scale=N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<double> scales = {512, 64, 8};
  std::vector<unsigned> worker_counts;
  double workers_scale = 64;
  std::string out_path;
  std::uint64_t seed = 42;
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&arg](std::string_view flag) {
      return arg.substr(flag.size());
    };
    if (arg.starts_with("--scales=")) {
      auto parsed = parse_list<double>(value("--scales="));
      if (!parsed) return usage();
      scales = std::move(*parsed);
    } else if (arg.starts_with("--workers=")) {
      auto parsed = parse_list<unsigned>(value("--workers="));
      if (!parsed) return usage();
      worker_counts = std::move(*parsed);
    } else if (arg.starts_with("--workers-scale=")) {
      const auto parsed =
          ofh::util::parse_number<double>(value("--workers-scale="));
      if (!parsed || !(*parsed > 0)) return usage();
      workers_scale = *parsed;
    } else if (arg.starts_with("--out=")) {
      out_path = value("--out=");
    } else if (arg.starts_with("--seed=")) {
      const auto parsed =
          ofh::util::parse_number<std::uint64_t>(value("--seed="));
      if (!parsed) return usage();
      seed = *parsed;
    } else if (arg == "--full") {
      full = true;
    } else {
      return usage();
    }
  }
  if (full) scales.push_back(1);

  std::printf("perf_scale: study pipeline at %zu scale points\n",
              scales.size());
  std::vector<ScaleResult> results;
  bool conserved = true;
  for (const double denominator : scales) {
    std::printf("-- scale 1/%.0f ...\n", denominator);
    std::fflush(stdout);
    results.push_back(run_scale(denominator, seed));
    const auto& r = results.back();
    std::printf(
        "   %llu hosts, %.1fs total, %.0f events/sec, peak RSS %.1f MB, "
        "conservation %s\n",
        static_cast<unsigned long long>(r.hosts), r.total_seconds,
        r.total_seconds > 0 ? static_cast<double>(r.events) / r.total_seconds
                            : 0,
        r.rss_mb,
        r.packets_conserved && r.probes_conserved ? "OK" : "VIOLATED");
    conserved = conserved && r.packets_conserved && r.probes_conserved;
  }

  // Distributed rows: the scan phase on a forked worker fleet versus the
  // in-process baseline (workers=0, run first). Identity is gating — a
  // merge divergence at any fleet size fails the bench like a conservation
  // violation would.
  std::vector<WorkerResult> worker_results;
  if (!worker_counts.empty()) {
    std::printf("-- workers section at scale 1/%.0f ...\n", workers_scale);
    std::fflush(stdout);
    worker_results.push_back(run_workers(workers_scale, seed, 0));
    worker_results.back().identical = true;
    const std::uint64_t baseline_digest = worker_results.back().digest;
    for (const unsigned workers : worker_counts) {
      if (workers == 0) continue;
      worker_results.push_back(run_workers(workers_scale, seed, workers));
      worker_results.back().identical =
          worker_results.back().digest == baseline_digest;
    }
    for (const auto& w : worker_results) {
      std::printf(
          "   workers=%u: %.1fs scan, %llu records, %llu requeues, "
          "identity %s, conservation %s\n",
          w.workers, w.scan_seconds,
          static_cast<unsigned long long>(w.records),
          static_cast<unsigned long long>(w.requeues),
          w.identical ? "OK" : "DIVERGED",
          w.probes_conserved ? "OK" : "VIOLATED");
      conserved = conserved && w.identical && w.probes_conserved;
    }
  }

  const std::string json = to_json(results, worker_results, workers_scale);
  std::printf("%s", json.c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json;
    std::printf("wrote %s\n", out_path.c_str());
  }
  return conserved ? 0 : 1;
}
