// ofh-coordinator: runs the paper study with the scan phase distributed
// across worker processes, and prints the deterministic reports. The
// quick-start (README):
//
//   ofh-coordinator --workers 3                  # forks 3 local workers
//   ofh-coordinator --listen /tmp/ofh.sock --workers 3 --wait 3 --fork 0
//                                                # external ofh-worker fleet
//   ofh-coordinator --workers 0                  # in-process serial
//                                                # reference (CI diffs
//                                                # distributed against this)
//
// The reports are byte-identical for every --workers value — including
// runs where --kill-one SIGKILLs a worker mid-job — which is the
// distributed layer's whole contract (DESIGN.md §15).
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/scan_shard.h"
#include "core/scenario.h"
#include "dist/coordinator.h"
#include "util/strings.h"

namespace {

struct Args {
  std::string listen_path;
  unsigned workers = 3;      // StudyConfig::scan_workers
  // Unset = default: workers when not listening.
  std::optional<unsigned> fork_workers;
  unsigned wait_workers = 0;  // HELLOs to wait for before dispatching
  bool kill_one = false;
  std::string scale = "1/16384";
  std::string attack_scale = "1/256";
  unsigned days = 3;
  std::uint64_t seed = 42;
  std::string out_path;
  std::vector<std::string> reports = {"table4", "table5", "summary",
                                      "progress-summary"};
};

std::string scenario_text(const Args& args) {
  std::string text = "scenario distributed study (ofh-coordinator)\n";
  text += "seed " + std::to_string(args.seed) + "\n";
  text += "scale " + args.scale + "\n";
  text += "attack-scale " + args.attack_scale + "\n";
  text += "duration-days " + std::to_string(args.days) + "\n";
  text += "scan-workers " + std::to_string(args.workers) + "\n";
  for (const std::string& report : args.reports) {
    text += "report " + report + "\n";
  }
  return text;
}

void usage(std::FILE* stream) {
  std::fprintf(
      stream,
      "usage: ofh-coordinator [--workers N] [--listen PATH] [--fork N]\n"
      "                       [--wait N] [--kill-one] [--scale F]\n"
      "                       [--attack-scale F] [--days N] [--seed N]\n"
      "                       [--report NAME]... [--out FILE]\n"
      "--workers 0 runs the in-process serial reference.\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    // Strict numeric operand: a malformed or out-of-range value (say
    // "--workers -1") is a usage error, never a silent 4 billion.
    const auto number = [&](auto& out) {
      const auto value = ofh::util::parse_number<
          std::remove_reference_t<decltype(out)>>(argv[++i]);
      if (value) out = *value;
      return value.has_value();
    };
    bool ok = true;
    if (arg == "--listen" && has_value) {
      args.listen_path = argv[++i];
    } else if (arg == "--workers" && has_value) {
      ok = number(args.workers);
    } else if (arg == "--fork" && has_value) {
      unsigned forks = 0;
      ok = number(forks);
      args.fork_workers = forks;
    } else if (arg == "--wait" && has_value) {
      ok = number(args.wait_workers);
    } else if (arg == "--kill-one") {
      args.kill_one = true;
    } else if (arg == "--scale" && has_value) {
      args.scale = argv[++i];
    } else if (arg == "--attack-scale" && has_value) {
      args.attack_scale = argv[++i];
    } else if (arg == "--days" && has_value) {
      ok = number(args.days);
    } else if (arg == "--seed" && has_value) {
      ok = number(args.seed);
    } else if (arg == "--out" && has_value) {
      args.out_path = argv[++i];
    } else if (arg == "--report" && has_value) {
      args.reports.push_back(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "ofh-coordinator: bad argument '%s'\n",
                   arg.c_str());
      usage(stderr);
      return 2;
    }
  }

  // --workers 0: no dispatcher installed, Study runs the in-process path.
  // This is the serial reference CI diffs every distributed run against.
  if (args.workers > 0) {
    const unsigned forks =
        args.fork_workers.value_or(args.listen_path.empty() ? args.workers
                                                            : 0);
    ofh::core::set_scan_shard_dispatcher(
        [&args, forks](const ofh::core::StudyConfig& config,
                       const std::vector<ofh::core::ScanShardJob>& jobs,
                       const ofh::core::ScanShardProgressSink& sink)
            -> std::optional<std::vector<ofh::core::ScanShardResult>> {
          ofh::dist::CoordinatorOptions options;
          options.listen_path = args.listen_path;
          options.fork_workers = forks;
          options.wait_workers =
              args.wait_workers > 0 ? args.wait_workers : forks;
          options.kill_worker_after_progress = args.kill_one;
          ofh::dist::Coordinator coordinator(std::move(options));
          if (!coordinator.start()) {
            std::fprintf(stderr, "ofh-coordinator: %s (degrading inline)\n",
                         coordinator.error().c_str());
          }
          auto results = coordinator.run(config, jobs, sink);
          for (const auto& entry : coordinator.retry_ledger()) {
            std::fprintf(stderr,
                         "ofh-coordinator: job %u attempt %u on %s requeued "
                         "(%s)\n",
                         entry.job_index, entry.epoch, entry.worker.c_str(),
                         entry.reason.c_str());
          }
          if (coordinator.duplicates_dropped() > 0) {
            std::fprintf(stderr,
                         "ofh-coordinator: dropped %llu duplicate result(s)\n",
                         static_cast<unsigned long long>(
                             coordinator.duplicates_dropped()));
          }
          coordinator.shutdown();
          return results;
        });
  }

  ofh::core::ScenarioError error;
  const auto scenario = ofh::core::parse_scenario_text(
      scenario_text(args), "<ofh-coordinator>", &error);
  if (!scenario) {
    std::fprintf(stderr, "ofh-coordinator: %s\n", error.to_string().c_str());
    return 2;
  }
  ofh::core::ScenarioRunOptions options;
  options.thread_sweep = {1};  // worker processes, not threads
  options.check_expectations = false;
  const auto result = ofh::core::run_scenario(*scenario, options);
  for (const auto& failure : result.failures) {
    std::fprintf(stderr, "%s\n", failure.c_str());
  }
  if (!result.failures.empty()) return 1;

  std::string output;
  for (const auto& report : result.reports) {
    output += "==== report " + report.name + " ====\n" + report.text;
    if (!report.text.empty() && report.text.back() != '\n') output += "\n";
  }
  if (args.out_path.empty()) {
    std::fputs(output.c_str(), stdout);
  } else {
    std::ofstream out(args.out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "ofh-coordinator: cannot write %s\n",
                   args.out_path.c_str());
      return 2;
    }
    out << output;
  }
  return 0;
}
