// scenario_runner: executes .ofh scenario files (core/scenario.h) and
// reports pass/fail. Every tests/scenarios/*.ofh file is registered as an
// individual CTest case (label `scenario`) invoking this binary.
//
//   scenario_runner <file.ofh>...        run, match expectations, exit 1 on
//                                        any parse error / divergence / miss
//   scenario_runner --list [files...]    no files: print accepted report
//                                        names; with files: parse-only
//                                        inventory (title, reports, counts)
//   scenario_runner --show <file.ofh>    run and dump the rendered reports
//                                        (authoring aid; expectations still
//                                        checked)
//   scenario_runner --update <file.ofh>  run, then rewrite stale '#' lines
//                                        in place: a failing expectation is
//                                        re-anchored onto the drifted report
//                                        line via its literal prefix and
//                                        replaced with an exact-match escape.
//                                        Unresolvable expectations are kept
//                                        and exit nonzero (scripts/
//                                        update_goldens.sh runs this over
//                                        the corpus).
//   --threads=a,b,c                      override the {1,2,8} byte-identity
//                                        sweep (the fuzzer uses --threads=1)
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/scan_shard.h"
#include "core/scenario.h"
#include "dist/coordinator.h"
#include "util/strings.h"

// Fork-based worker processes don't mix with ThreadSanitizer (fork from an
// instrumented process wedges the child's runtime); under TSan the runner
// installs no dispatcher and scan-workers scenarios take the graceful
// in-process degradation path — byte-identical by contract.
#if defined(__SANITIZE_THREAD__)
#define OFH_RUNNER_NO_FORK 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OFH_RUNNER_NO_FORK 1
#endif
#endif

namespace {

// Backend for `scan-workers N`: a fresh coordinator per scan batch, N
// workers forked over socketpairs, jobs dispatched with the full crash
// recovery machinery, results merged byte-identically (dist/coordinator.h).
void install_fork_dispatcher() {
#ifndef OFH_RUNNER_NO_FORK
  ofh::core::set_scan_shard_dispatcher(
      [](const ofh::core::StudyConfig& config,
         const std::vector<ofh::core::ScanShardJob>& jobs,
         const ofh::core::ScanShardProgressSink& sink)
          -> std::optional<std::vector<ofh::core::ScanShardResult>> {
        ofh::dist::CoordinatorOptions options;
        // Workers beyond the job count would sit idle; 16 keeps a hostile
        // scan-workers value from fork-bombing the runner.
        options.fork_workers = std::min<unsigned>(
            {config.scan_workers, static_cast<unsigned>(jobs.size()), 16u});
        options.wait_workers = options.fork_workers;
        ofh::dist::Coordinator coordinator(std::move(options));
        if (!coordinator.start()) return std::nullopt;  // degrade in-process
        auto results = coordinator.run(config, jobs, sink);
        coordinator.shutdown();
        return results;
      });
#endif
}

using ofh::core::Scenario;
using ofh::core::ScenarioError;
using ofh::core::ScenarioRunOptions;

// "--threads=a,b,c": every item must be a whole number in [0, 1024]
// (0 = one thread per hardware thread); anything else is a usage error.
std::optional<std::vector<unsigned>> parse_threads(const std::string& spec) {
  std::vector<unsigned> sweep;
  for (const auto& item : ofh::util::split(spec, ',')) {
    const auto value = ofh::util::parse_number<unsigned>(item);
    if (!value || *value > 1024) return std::nullopt;
    sweep.push_back(*value);
  }
  if (sweep.empty()) return std::nullopt;
  return sweep;
}

void usage(std::FILE* stream) {
  std::fprintf(stream,
               "usage: scenario_runner [--list|--show|--update] "
               "[--threads=a,b,c] <file.ofh>...\n");
}

int list_mode(const std::vector<std::string>& files) {
  if (files.empty()) {
    std::printf("report names accepted by `report <name>`:\n");
    for (const auto& name : ofh::core::scenario_report_names()) {
      std::printf("  %s\n", name.c_str());
    }
    return 0;
  }
  int failures = 0;
  for (const auto& file : files) {
    ScenarioError error;
    const auto scenario = ofh::core::parse_scenario_file(file, &error);
    if (!scenario) {
      std::printf("%s: PARSE ERROR: %s\n", file.c_str(),
                  error.to_string().c_str());
      ++failures;
      continue;
    }
    std::size_t expectations = 0;
    for (const auto& report : scenario->reports) {
      expectations += report.expectations.size();
    }
    std::printf("%s: \"%s\" seed=%llu reports=%zu expectations=%zu\n",
                file.c_str(), scenario->title.c_str(),
                static_cast<unsigned long long>(scenario->config.seed),
                scenario->reports.size(), expectations);
    for (const auto& report : scenario->reports) {
      std::printf("  report %s (%zu expectations)\n", report.name.c_str(),
                  report.expectations.size());
    }
  }
  return failures == 0 ? 0 : 1;
}

// --update: rewrite stale '#' lines in place. Returns the number of
// expectations that could not be re-anchored (kept verbatim).
int update_file(const std::string& file, const Scenario& scenario,
                const ScenarioRunOptions& options) {
  ScenarioRunOptions render = options;
  render.check_expectations = false;
  const auto result = ofh::core::run_scenario(scenario, render);
  for (const auto& failure : result.failures) {
    // Cross-thread divergence is a bug, not a stale golden; never "update"
    // over it.
    std::printf("%s\n", failure.c_str());
  }
  if (!result.failures.empty()) return 1;

  // expectation source line (1-based) -> replacement pattern
  std::map<int, std::string> replacements;
  int unresolved = 0;
  for (std::size_t i = 0; i < scenario.reports.size(); ++i) {
    const auto& block = scenario.reports[i];
    const std::string& text = result.reports[i].text;
    std::vector<std::string> lines;
    {
      std::stringstream stream(text);
      std::string line;
      while (std::getline(stream, line)) lines.push_back(line);
    }
    std::size_t pos = 0;
    for (const auto& expectation : block.expectations) {
      // Still matching? Keep the hand-written pattern.
      std::size_t found = lines.size();
      for (std::size_t j = pos; j < lines.size(); ++j) {
        try {
          if (std::regex_search(lines[j], expectation.regex)) {
            found = j;
            break;
          }
        } catch (const std::regex_error&) {
          break;
        }
      }
      if (found != lines.size()) {
        pos = found + 1;
        continue;
      }
      // Stale: re-anchor on the drifted line via the literal prefix. The
      // prefix usually contains the stale payload itself ("devices=879" when
      // the report now says 881), so shorten it progressively; 4 chars is
      // the floor below which an anchor is more likely noise than signal.
      const std::string prefix =
          ofh::core::expectation_literal_prefix(expectation.pattern);
      std::size_t anchor = lines.size();
      for (std::size_t len = prefix.size();
           len >= 4 && anchor == lines.size(); --len) {
        const std::string_view needle(prefix.data(), len);
        for (std::size_t j = pos; j < lines.size(); ++j) {
          if (lines[j].find(needle) != std::string::npos) {
            anchor = j;
            break;
          }
        }
      }
      if (anchor == lines.size()) {
        std::printf(
            "%s:%d: cannot re-anchor /%s/ in report '%s' (no line carries "
            "its literal prefix); left unchanged\n",
            file.c_str(), expectation.line, expectation.pattern.c_str(),
            block.name.c_str());
        ++unresolved;
        continue;
      }
      replacements[expectation.line] =
          ofh::core::escape_expectation(lines[anchor]);
      pos = anchor + 1;
    }
  }

  if (!replacements.empty()) {
    std::ifstream in(file, std::ios::binary);
    std::vector<std::string> source;
    std::string line;
    while (std::getline(in, line)) source.push_back(line);
    in.close();
    for (const auto& [line_number, pattern] : replacements) {
      if (line_number >= 1 &&
          line_number <= static_cast<int>(source.size())) {
        source[static_cast<std::size_t>(line_number - 1)] = "#" + pattern;
      }
    }
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    for (const auto& updated : source) out << updated << '\n';
    std::printf("%s: rewrote %zu expectation(s)\n", file.c_str(),
                replacements.size());
  }
  return unresolved == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false;
  bool show = false;
  bool update = false;
  ScenarioRunOptions options;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg == "--show") {
      show = true;
    } else if (arg == "--update") {
      update = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      auto sweep = parse_threads(arg.substr(10));
      if (!sweep) {
        std::fprintf(stderr, "scenario_runner: bad argument '%s'\n",
                     arg.c_str());
        usage(stderr);
        return 2;
      }
      options.thread_sweep = std::move(*sweep);
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else {
      files.push_back(arg);
    }
  }

  if (list) return list_mode(files);
  if (files.empty()) {
    std::fprintf(stderr, "scenario_runner: no scenario files given\n");
    return 2;
  }
  install_fork_dispatcher();

  int failed = 0;
  for (const auto& file : files) {
    ScenarioError error;
    const auto scenario = ofh::core::parse_scenario_file(file, &error);
    if (!scenario) {
      std::printf("%s\n", error.to_string().c_str());
      ++failed;
      continue;
    }
    if (update) {
      failed += update_file(file, *scenario, options) != 0 ? 1 : 0;
      continue;
    }
    const auto result = ofh::core::run_scenario(*scenario, options);
    if (show) {
      for (const auto& report : result.reports) {
        std::printf("==== report %s ====\n%s", report.name.c_str(),
                    report.text.c_str());
        if (!report.text.empty() && report.text.back() != '\n') {
          std::printf("\n");
        }
      }
    }
    for (const auto& failure : result.failures) {
      std::printf("%s\n", failure.c_str());
    }
    if (result.passed) {
      std::printf("%s: PASS (\"%s\", %zu report(s), threads",
                  file.c_str(), scenario->title.c_str(),
                  result.reports.size());
      for (std::size_t i = 0; i < options.thread_sweep.size(); ++i) {
        std::printf("%s%u", i == 0 ? " " : "/", options.thread_sweep[i]);
      }
      std::printf(")\n");
    } else {
      std::printf("%s: FAIL (%zu failure(s))\n", file.c_str(),
                  result.failures.size());
      ++failed;
    }
  }
  return failed == 0 ? 0 : 1;
}
