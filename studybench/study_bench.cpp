// One study per process, for the study benchmark (studybench/run.py).
//
// Loads a workload's .ofh scenario, runs the Study pipeline once and prints
// one JSON object on stdout:
//   --mode study    the untraced run: setup_s (cold, in this fresh process),
//                   study_s, cpu_s, peak_rss_mb
//   --mode traced   the same run with every layer boundary timed from
//                   outside the program (per-phase wall time and memory,
//                   per-shard wall and CPU time through a timing
//                   ScanShardDispatcher, classify re-timed on the finished
//                   scan DB)
// Both modes also report the exact work counts and the conservation
// identities, and write the rendered reports the scenario
// names to --reports so run.py can digest them. Timing covers only the
// Study calls; counts, rendering and checks happen after the clock stops.
//
// Usage: study_bench --scenario FILE [--mode study|traced]
//                    [--seed N] [--threads N] [--reports FILE]
#include <sys/resource.h>
#include <time.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "classify/fingerprint.h"
#include "classify/misconfig_rules.h"
#include "core/reports.h"
#include "core/scan_shard.h"
#include "core/scenario.h"
#include "core/study.h"
#include "obs/metrics.h"
#include "obs/proc_stat.h"
#include "obs/trace.h"
#include "sim/parallel.h"

namespace {

using Clock = std::chrono::steady_clock;
using ofh::core::Study;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

// User + system CPU of the whole process, every thread included.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return timeval_s(usage.ru_utime) + timeval_s(usage.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double hwm_mb() {
  return static_cast<double>(ofh::obs::read_proc_memory().vm_hwm_bytes) /
         (1024.0 * 1024.0);
}

std::int64_t registry_value(const std::vector<ofh::obs::MetricRow>& rows,
                            std::string_view name) {
  for (const auto& row : rows) {
    if (row.name == name) return row.value;
  }
  return 0;
}

// Flat JSON object writer: numbers keep every digit, strings are escaped.
class JsonObject {
 public:
  void number(std::string_view key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    field(key, buffer);
  }
  void count(std::string_view key, std::uint64_t value) {
    field(key, std::to_string(value));
  }
  void boolean(std::string_view key, bool value) {
    field(key, value ? "true" : "false");
  }
  void string(std::string_view key, std::string_view value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      quoted += c;
    }
    field(key, quoted + "\"");
  }
  void object(std::string_view key, const JsonObject& value) {
    field(key, value.text());
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void field(std::string_view key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"";
    body_ += key;
    body_ += "\": ";
    body_ += value;
  }
  std::string body_;
};

std::optional<std::string> render_report(Study& study,
                                         const std::string& name) {
  if (name == "table4") return ofh::core::report_table4_exposed(study);
  if (name == "table5") return ofh::core::report_table5_misconfigured(study);
  if (name == "table6") return ofh::core::report_table6_honeypots(study);
  if (name == "table7") return ofh::core::report_table7_attacks(study);
  if (name == "table8") return ofh::core::report_table8_telescope(study);
  if (name == "correlation") return ofh::core::report_correlation(study);
  return std::nullopt;
}

struct ShardTiming {
  double wall_s = 0;
  double cpu_s = 0;
};

// Runs the scan shards exactly as Study's in-process path does (one
// ParallelRunner with the study's thread count) and times each job.
ofh::core::ScanShardDispatcher timing_dispatcher(
    std::vector<ShardTiming>* timings) {
  return [timings](const ofh::core::StudyConfig& config,
                   const std::vector<ofh::core::ScanShardJob>& jobs,
                   const ofh::core::ScanShardProgressSink& sink)
             -> std::optional<std::vector<ofh::core::ScanShardResult>> {
    timings->assign(jobs.size(), ShardTiming{});
    std::vector<std::function<ofh::core::ScanShardResult()>> work;
    work.reserve(jobs.size());
    for (std::size_t slot = 0; slot < jobs.size(); ++slot) {
      work.emplace_back([&config, &sink, &jobs, timings, slot] {
        const ofh::core::ScanShardJob& job = jobs[slot];
        const auto start = Clock::now();
        const double cpu_start = thread_cpu_s();
        auto result = ofh::core::run_scan_shard(
            config, job, [&sink, &job](const ofh::core::ScanShardProgress& p) {
              sink(job.index, p);
            });
        (*timings)[slot] = {seconds_since(start), thread_cpu_s() - cpu_start};
        return result;
      });
    }
    return ofh::sim::ParallelRunner(config.scan_threads).run(std::move(work));
  };
}

struct Args {
  std::string scenario;
  std::string mode = "study";
  std::string reports;
  std::optional<std::uint64_t> seed;
  std::optional<unsigned> threads;
};

std::optional<std::uint64_t> parse_u64(const char* text) {
  if (text == nullptr || *text < '0' || *text > '9') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return std::nullopt;
  return value;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--scenario") {
      args.scenario = value;
    } else if (flag == "--mode") {
      args.mode = value;
    } else if (flag == "--reports") {
      args.reports = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(value);
      if (!args.seed) return std::nullopt;
    } else if (flag == "--threads") {
      const auto threads = parse_u64(value);
      if (!threads || *threads > 256) return std::nullopt;
      args.threads = static_cast<unsigned>(*threads);
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || args.scenario.empty()) return std::nullopt;
  if (args.mode != "study" && args.mode != "traced") return std::nullopt;
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: study_bench --scenario FILE [--mode study|traced] "
                 "[--seed N] [--threads N] [--reports FILE]\n");
    return 2;
  }
  ofh::core::ScenarioError error;
  const auto scenario = ofh::core::parse_scenario_file(args->scenario, &error);
  if (!scenario) {
    std::fprintf(stderr, "%s\n", error.to_string().c_str());
    return 2;
  }
  ofh::core::StudyConfig config = scenario->config;
  if (args->seed) config.seed = *args->seed;
  if (args->threads) config.scan_threads = *args->threads;
  if (const auto invalid = config.validate()) {
    std::fprintf(stderr, "invalid study config: %s\n", invalid->c_str());
    return 2;
  }

  const bool traced = args->mode == "traced";
  std::vector<ShardTiming> shard_timings;
  if (traced) {
    // Study consults the dispatcher only when scan_workers > 0; the
    // dispatcher itself runs the shards in-process.
    config.scan_workers = 1;
    ofh::core::set_scan_shard_dispatcher(timing_dispatcher(&shard_timings));
  }

  JsonObject out;
  const auto setup_start = Clock::now();
  Study study(config);
  study.setup_internet();
  out.number("setup_s", seconds_since(setup_start));

  double phase_s[4] = {};
  double hwm_after_scan = 0;
  double hwm_after_attack = 0;
  const double cpu_start = process_cpu_s();
  const auto study_start = Clock::now();
  auto lap_start = study_start;
  const auto lap = [&lap_start] {
    const auto now = Clock::now();
    const double seconds =
        std::chrono::duration<double>(now - lap_start).count();
    lap_start = now;
    return seconds;
  };
  study.run_scan();
  if (traced) {
    phase_s[0] = lap();
    hwm_after_scan = hwm_mb();
  }
  study.run_datasets();
  if (traced) phase_s[1] = lap();
  study.run_attack_month();
  if (traced) {
    phase_s[2] = lap();
    hwm_after_attack = hwm_mb();
  }
  study.correlate();
  if (traced) phase_s[3] = lap();
  out.number("study_s", seconds_since(study_start));
  out.number("cpu_s", process_cpu_s() - cpu_start);
  ofh::core::set_scan_shard_dispatcher({});

  // Exact work counts, read before anything else touches the study.
  const auto rows = ofh::obs::Registry::global().snapshot();
  const auto& db = study.scan_db();
  JsonObject counts;
  counts.count("sim.scan_events", study.scan_events());
  counts.count("sim.main_events", study.sim().events_processed());
  counts.count("fabric.packets_sent",
               static_cast<std::uint64_t>(
                   registry_value(rows, "fabric.packets_sent")));
  counts.count("tcp.connects", static_cast<std::uint64_t>(
                                   registry_value(rows, "tcp.connects")));
  counts.count("scanner.probes", db.probes_sent());
  counts.count("honeynet.events", study.attack_log().size());
  counts.count("telescope.packets", study.scope().total_packets());
  out.object("counts", counts);

  if (traced) {
    JsonObject layers;
    layers.number("phase.scan_s", phase_s[0]);
    layers.number("phase.datasets_s", phase_s[1]);
    layers.number("phase.attack_month_s", phase_s[2]);
    layers.number("phase.correlate_s", phase_s[3]);
    layers.number("mem.hwm_after_scan_mb", hwm_after_scan);
    layers.number("mem.hwm_after_attack_month_mb", hwm_after_attack);
    const auto& protocols = ofh::proto::scanned_protocols();
    for (std::size_t i = 0; i < shard_timings.size() && i < protocols.size();
         ++i) {
      std::string name(ofh::proto::protocol_name(protocols[i]));
      for (char& c : name) {
        if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
      }
      layers.number("shard." + name + "_s", shard_timings[i].wall_s);
      layers.number("shard." + name + "_cpu_s", shard_timings[i].cpu_s);
    }
    layers.count("fabric.packets_faulted",
                 static_cast<std::uint64_t>(
                     registry_value(rows, "fabric.packets_faulted")));
    layers.count("tcp.connect_timeouts",
                 static_cast<std::uint64_t>(
                     registry_value(rows, "tcp.connect_timeouts")));
    layers.count("scanner.retries", db.retries());
    layers.count("scanner.responsive", db.responsive());
    layers.count("scanner.unresolved", db.unresolved());
    layers.count("devices.hosts", study.population().total_devices());
    layers.count("devices.materialized",
                 study.population().materialized_count());
    layers.count("telescope.flowtuples",
                 static_cast<std::uint64_t>(
                     registry_value(rows, "telescope.flowtuples")));
    const auto& trace = ofh::obs::TraceRegistry::global();
    layers.count("trace.recorded", trace.events_recorded());
    layers.count("trace.dropped", trace.events_dropped());

    const auto classify_start = Clock::now();
    auto unfiltered = ofh::classify::classify_all(db);
    const auto fingerprints = ofh::classify::fingerprint_all(db);
    const auto findings =
        config.filter_honeypots
            ? ofh::classify::filter_honeypots(std::move(unfiltered),
                                              fingerprints)
            : std::move(unfiltered);
    layers.number("classify.s", seconds_since(classify_start));
    layers.count("classify.findings", findings.size());
    out.object("layers", layers);
  }

  if (!args->reports.empty()) {
    std::ofstream reports(args->reports, std::ios::binary | std::ios::trunc);
    for (const auto& report : scenario->reports) {
      const auto text = render_report(study, report.name);
      if (!text) {
        std::fprintf(stderr, "report %s has no renderer here\n",
                     report.name.c_str());
        return 2;
      }
      reports << "== " << report.name << "\n" << *text;
    }
    if (!reports.flush()) {
      std::fprintf(stderr, "cannot write %s\n", args->reports.c_str());
      return 2;
    }
  }

  // Conservation: drain late deliveries so nothing is in flight on the main
  // fabric, then the packet and probe identities must hold exactly. The
  // scan shards' private fabrics are gone by now; the registry's
  // fleet-wide counters still cover them, with packets a shard left
  // unresolved counted as in flight.
  study.sim().run_until(study.sim().now() + ofh::sim::hours(2));
  const auto& fabric = study.fabric();
  const auto drained = ofh::obs::Registry::global().snapshot();
  const auto fleet = [&drained](std::string_view name) {
    return registry_value(drained, name);
  };
  out.boolean("packets_conserved",
              fabric.packets_sent() == fabric.packets_delivered() +
                                           fabric.packets_dropped() +
                                           fabric.packets_faulted() &&
                  fleet("fabric.packets_sent") ==
                      fleet("fabric.packets_delivered") +
                          fleet("fabric.packets_dropped") +
                          fleet("fabric.packets_faulted") +
                          fleet("fabric.packets_inflight"));
  out.boolean("probes_conserved",
              db.probes_sent() ==
                  db.responsive() + db.refused() + db.unresolved());
  out.count("seed", config.seed);
  out.string("build_type", OFH_BENCH_BUILD_TYPE);
  out.string("compiler", __VERSION__);
  out.number("peak_rss_mb", hwm_mb());
  std::printf("%s\n", out.text().c_str());
  return 0;
}
