// Scenario description language: small declarative .ofh files that select a
// study configuration (population/attack scales, duration, attacker roster,
// fault schedule) and pin the reports it must emit with ordered regexp
// expectations — the sftpserver test idiom (script lines interleaved with
// '#'-prefixed regexps) applied to the whole measurement pipeline. Each
// checked-in scenario under tests/scenarios/ (label `scenario`) and each
// paper experiment under experiments/ (label `experiment`) is discovered as
// an individual CTest case, runs the full study at scan_threads 1/2/8,
// and must emit byte-identical reports at every thread count before the
// expectations are even consulted.
//
// Format, line oriented:
//   //  comment                     (blank lines are skipped)
//   scenario <title...>             informational title
//   seed / scale / attack-scale / duration-days / scan-threads / scan-batch
//   scan-attempts / session-attempts / filter-honeypots / listing-boost /
//   telescope-range / telescope-rate-scale / telescope-source-scale /
//   fault-budget                    one StudyConfig knob each
//   roster <group> on|off           attacker-group toggle (attackers::Roster)
//   fault <kind> <args...>          assembles a net::FaultSchedule
//   report <name>                   emit one report; subsequent '#' lines
//   #<regexp>                       must match the report's lines, in order
//
// Numbers accept "1/8192" fractions wherever a scale is expected. The
// parser is the trust boundary for the fuzzer (tools/scenario_fuzz): any
// hostile input must produce a typed ScenarioError with file:line
// provenance — never an exception, never a partially-applied StudyConfig.
// See DESIGN.md §13 for the grammar table and matching semantics.
#pragma once

#include <optional>
#include <regex>
#include <string>
#include <string_view>
#include <vector>

#include "core/study.h"

namespace ofh::core {

enum class ScenarioErrorCode {
  kIo,                  // file unreadable / too large
  kSyntax,              // malformed line (overlong, empty scenario, ...)
  kUnknownDirective,    // first token is not a directive
  kDuplicateDirective,  // a single-valued knob set twice
  kBadValue,            // operand failed to parse (count/format)
  kOutOfRange,          // parsed value rejected by StudyConfig::validate
  kOrphanExpectation,   // '#' line before any report directive
  kBadRegex,            // expectation failed to compile / too long
  kUnknownReport,       // report name not in scenario_report_names()
};
std::string_view scenario_error_code_name(ScenarioErrorCode code);

struct ScenarioError {
  std::string file;
  int line = 0;  // 1-based; 0 when no line applies (I/O errors)
  ScenarioErrorCode code = ScenarioErrorCode::kSyntax;
  std::string message;

  // "file:line: code: message" — the exact text tests/scenario_test.cpp
  // pins for the seeded-bad fixture corpus.
  std::string to_string() const;
};

struct ScenarioExpectation {
  int line = 0;         // provenance in the .ofh file
  std::string pattern;  // regexp source (everything after the '#')
  std::regex regex;     // compiled ECMAScript form
};

struct ScenarioReport {
  int line = 0;
  std::string name;
  std::vector<ScenarioExpectation> expectations;
};

struct Scenario {
  std::string file;  // "<inline>" for parse_scenario_text callers
  std::string title;
  StudyConfig config;
  // `fault chaos <end-day>`: > 0 requests the canned FaultSchedule::chaos
  // plan. It needs victim ranges, so it is resolved against the population
  // prefixes at run time (run_scenario), not at parse time; explicitly
  // parsed scalar fault knobs and windows layer on top of the canned plan.
  double chaos_end_days = 0.0;
  // True when any report block is degradation-vs-baseline: run_scenario
  // first runs a fault-free twin (schedule cleared, retries reset) to
  // produce the DegradationBaseline the report compares against.
  bool wants_baseline = false;
  std::vector<ScenarioReport> reports;
};

// Every name `report` accepts: the paper tables/figures (core/reports.h),
// "summary" (pipeline totals, plus the ablation facts no table prints:
// scan start days, planted ground truth, Telnet hosts on 23 vs 2323,
// telescope flow tuples, attack events per half month),
// "degradation" / "degradation-vs-baseline"
// (Study::degradation_report) and "chains" (Study::attack_chains).
const std::vector<std::string>& scenario_report_names();

// On failure fills *error and returns nullopt — no partial Scenario escapes.
std::optional<Scenario> parse_scenario_text(std::string_view text,
                                            std::string_view file,
                                            ScenarioError* error);
std::optional<Scenario> parse_scenario_file(const std::string& path,
                                            ScenarioError* error);

struct ScenarioRunOptions {
  // The study runs once per entry; every run's reports must be
  // byte-identical to the first (the determinism contract). {1, 2, 8} is
  // the corpus gate; the fuzzer uses {1}.
  std::vector<unsigned> thread_sweep = {1, 2, 8};
  bool check_expectations = true;
};

struct ScenarioReportOutput {
  std::string name;
  std::string text;
};

struct ScenarioResult {
  bool passed = true;
  // Human-readable failures, file:line anchored where possible: expectation
  // misses (with the report region searched) and cross-thread divergences.
  std::vector<std::string> failures;
  // Rendered report outputs from the first sweep entry, aligned with
  // Scenario::reports (scenario_runner --show/--update consume these).
  std::vector<ScenarioReportOutput> reports;
};

ScenarioResult run_scenario(const Scenario& scenario,
                            const ScenarioRunOptions& options = {});

// --- helpers shared with scenario_runner --update (exposed for tests) ----
// Escapes a report line into a regexp matching it exactly.
std::string escape_expectation(std::string_view line);
// Longest literal prefix of a pattern (stops at the first unescaped regexp
// metacharacter); --update uses it to re-anchor a stale pinned expectation
// onto the drifted report line that replaced it.
std::string expectation_literal_prefix(std::string_view pattern);

}  // namespace ofh::core
