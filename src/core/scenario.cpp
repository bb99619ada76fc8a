#include "core/scenario.h"

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "core/reports.h"
#include "devices/population.h"
#include "obs/introspect.h"
#include "net/faults.h"
#include "util/strings.h"

namespace ofh::core {
namespace {

// Hostile-input ceilings: the fuzzer (tools/scenario_fuzz) feeds this
// parser corrupted files, so every dimension an attacker controls is
// bounded before any work happens on it.
constexpr std::size_t kMaxFileBytes = 1u << 20;  // 1 MiB
constexpr std::size_t kMaxLines = 10'000;
constexpr std::size_t kMaxLineBytes = 4'096;
constexpr std::size_t kMaxPatternBytes = 512;
constexpr std::size_t kMaxExpectations = 1'000;
constexpr double kMaxDays = 400.0;  // window/duration bound before u64 cast

std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

// Plain decimal ("0.05", "42") or a fraction ("1/8192"). Rejects trailing
// garbage, empty operands and zero denominators; inf/nan parse but are
// rejected downstream by the NaN-safe range checks.
std::optional<double> parse_number(std::string_view token) {
  const auto slash = token.find('/');
  if (slash != std::string_view::npos) {
    const auto numerator = parse_number(token.substr(0, slash));
    const auto denominator = parse_number(token.substr(slash + 1));
    if (!numerator || !denominator || *denominator == 0.0) {
      return std::nullopt;
    }
    return *numerator / *denominator;
  }
  // strtod needs a terminated buffer; tokens are short (kMaxLineBytes).
  // Unlike util::parse_number it maps an overflow ("1e309") to inf, which
  // the range checks then reject as out-of-range rather than malformed.
  const std::string buffer(token);
  char* parse_end = nullptr;
  const double value = std::strtod(buffer.c_str(), &parse_end);
  if (parse_end != buffer.c_str() + buffer.size() || buffer.empty()) {
    return std::nullopt;
  }
  return value;
}

std::optional<bool> parse_on_off(std::string_view token) {
  if (token == "on") return true;
  if (token == "off") return false;
  return std::nullopt;
}

// Days -> sim::Time, guarded so a hostile value can never reach the
// double->u64 cast out of range (that cast is UB, and the fuzzer runs under
// UBSan precisely to prove it cannot happen).
std::optional<sim::Time> parse_days(std::string_view token) {
  const auto value = parse_number(token);
  if (!value || !(*value >= 0.0) || *value > kMaxDays) return std::nullopt;
  return static_cast<sim::Time>(*value * static_cast<double>(sim::days(1)));
}

bool known_report(const std::string& name) {
  for (const auto& known : scenario_report_names()) {
    if (known == name) return true;
  }
  return false;
}

// Directive keys that take exactly one value; setting one twice is a
// kDuplicateDirective (the second value silently winning is how config
// drift hides in hand-edited files).
bool single_valued(std::string_view key) {
  static const std::set<std::string, std::less<>> kScalars = {
      "scenario",        "seed",
      "scale",           "attack-scale",
      "duration-days",   "scan-threads",
      "scan-workers",    "scan-batch",
      "scan-attempts",
      "session-attempts", "filter-honeypots",
      "listing-boost",   "telescope-range",
      "telescope-rate-scale", "telescope-source-scale",
      "fault-budget",
      "fault uniform-loss", "fault duplicate", "fault reorder",
      "fault burst",     "fault chaos",
      "roster scan-services", "roster infected", "roster external",
      "roster dos",      "roster multistage", "roster background"};
  return kScalars.find(key) != kScalars.end();
}

struct Parser {
  std::string_view file;
  ScenarioError* error;
  Scenario scenario;
  std::set<std::string> seen;  // single-valued directives already used
  std::size_t expectation_count = 0;
  bool any_directive = false;

  bool fail(int line, ScenarioErrorCode code, std::string message) {
    if (error != nullptr) {
      *error = ScenarioError{std::string(file), line, code,
                             std::move(message)};
    }
    return false;
  }

  bool check_duplicate(int line, const std::string& key) {
    if (!single_valued(key)) return true;
    if (!seen.insert(key).second) {
      return fail(line, ScenarioErrorCode::kDuplicateDirective,
                  "'" + key + "' already set");
    }
    return true;
  }

  // Applies `apply` to a scratch copy of the config, then re-validates: the
  // parser reuses StudyConfig::validate verbatim, so the scenario language
  // and the programmatic API reject exactly the same values — here with
  // file:line provenance attached.
  template <typename Fn>
  bool apply_checked(int line, const std::string& key, Fn apply) {
    StudyConfig candidate = scenario.config;
    apply(candidate);
    if (const auto violation = candidate.validate()) {
      return fail(line, ScenarioErrorCode::kOutOfRange,
                  key + ": " + *violation);
    }
    scenario.config = candidate;
    return true;
  }

  bool handle_fault(int line, const std::vector<std::string_view>& tokens);
  bool handle_roster(int line, const std::vector<std::string_view>& tokens);
  bool handle_directive(int line, std::string_view text);
  bool handle_expectation(int line, std::string_view text);
  bool finish();
};

bool Parser::handle_fault(int line,
                          const std::vector<std::string_view>& tokens) {
  // tokens[0] == "fault"; tokens[1] is the kind.
  if (tokens.size() < 2) {
    return fail(line, ScenarioErrorCode::kBadValue,
                "fault needs a kind (uniform-loss, duplicate, reorder, "
                "burst, flap, partition, spike, refusal, crash, chaos)");
  }
  const std::string kind(tokens[1]);
  const std::string key = "fault " + kind;
  if (!check_duplicate(line, key)) return false;
  auto& schedule = scenario.config.fault_schedule;

  const auto need = [&](std::size_t count) {
    if (tokens.size() - 2 == count) return true;
    fail(line, ScenarioErrorCode::kBadValue,
         "fault " + kind + " takes " + std::to_string(count) + " operands");
    return false;
  };
  const auto rate_of = [&](std::string_view token,
                           double& out) {
    const auto value = parse_number(token);
    if (!value) {
      return fail(line, ScenarioErrorCode::kBadValue,
                  "fault " + kind + ": '" + std::string(token) +
                      "' is not a number");
    }
    out = *value;
    return true;
  };
  if (kind == "uniform-loss") {
    if (!need(1)) return false;
    double rate = 0.0;
    if (!rate_of(tokens[2], rate)) return false;
    return apply_checked(line, key, [rate](StudyConfig& c) {
      c.fault_schedule.uniform_loss = rate;
    });
  }
  if (kind == "duplicate") {
    if (!need(1)) return false;
    double rate = 0.0;
    if (!rate_of(tokens[2], rate)) return false;
    return apply_checked(line, key, [rate](StudyConfig& c) {
      c.fault_schedule.duplicate_rate = rate;
    });
  }
  if (kind == "reorder") {
    if (tokens.size() != 3 && tokens.size() != 4) {
      return fail(line, ScenarioErrorCode::kBadValue,
                  "fault reorder takes <rate> [delay-ms]");
    }
    double rate = 0.0;
    if (!rate_of(tokens[2], rate)) return false;
    sim::Duration delay = schedule.reorder_delay;
    if (tokens.size() == 4) {
      const auto ms = util::parse_number<std::uint64_t>(tokens[3]);
      if (!ms || *ms > 1'000'000) {
        return fail(line, ScenarioErrorCode::kBadValue,
                    "fault reorder: delay-ms must be an integer <= 1000000");
      }
      delay = sim::msec(*ms);
    }
    return apply_checked(line, key, [rate, delay](StudyConfig& c) {
      c.fault_schedule.reorder_rate = rate;
      c.fault_schedule.reorder_delay = delay;
    });
  }
  if (kind == "burst") {
    if (tokens.size() != 5 && tokens.size() != 6) {
      return fail(line, ScenarioErrorCode::kBadValue,
                  "fault burst takes <p_enter> <p_exit> <loss_bad> "
                  "[slot-ms]");
    }
    net::GilbertElliott burst;
    burst.enabled = true;
    burst.loss_good = 0.0;
    if (!rate_of(tokens[2], burst.p_enter) ||
        !rate_of(tokens[3], burst.p_exit) ||
        !rate_of(tokens[4], burst.loss_bad)) {
      return false;
    }
    if (tokens.size() == 6) {
      const auto ms = util::parse_number<std::uint64_t>(tokens[5]);
      if (!ms || *ms == 0 || *ms > 1'000'000) {
        return fail(line, ScenarioErrorCode::kBadValue,
                    "fault burst: slot-ms must be in [1, 1000000]");
      }
      burst.slot = sim::msec(*ms);
    }
    return apply_checked(line, key, [burst](StudyConfig& c) {
      c.fault_schedule.burst = burst;
    });
  }
  if (kind == "chaos") {
    if (!need(1)) return false;
    const auto days = parse_number(tokens[2]);
    if (!days || !(*days > 0.0) || *days > kMaxDays) {
      return fail(line, ScenarioErrorCode::kOutOfRange,
                  "fault chaos: end-day must be in (0, 400]");
    }
    scenario.chaos_end_days = *days;
    return true;
  }

  // The windowed kinds: flap/refusal/crash <cidr> <start> <end>,
  // partition <cidr> <cidr> <start> <end>, spike <cidr> <start> <end> <ms>.
  net::FaultWindow window;
  std::size_t cursor = 2;
  const auto cidr_of = [&](util::Cidr& out) {
    if (cursor >= tokens.size()) return false;
    const auto parsed = util::Cidr::parse(tokens[cursor]);
    if (!parsed) return false;
    out = *parsed;
    ++cursor;
    return true;
  };
  const auto day_of = [&](sim::Time& out) {
    if (cursor >= tokens.size()) return false;
    const auto parsed = parse_days(tokens[cursor]);
    if (!parsed) return false;
    out = *parsed;
    ++cursor;
    return true;
  };

  bool shape_ok = false;
  if (kind == "flap" || kind == "refusal" || kind == "crash") {
    window.kind = kind == "flap"      ? net::FaultKind::kLinkFlap
                  : kind == "refusal" ? net::FaultKind::kRefusal
                                      : net::FaultKind::kCrash;
    shape_ok = cidr_of(window.scope) && day_of(window.start) &&
               day_of(window.end) && cursor == tokens.size();
  } else if (kind == "partition") {
    window.kind = net::FaultKind::kPartition;
    shape_ok = cidr_of(window.scope) && cidr_of(window.peer) &&
               day_of(window.start) && day_of(window.end) &&
               cursor == tokens.size();
  } else if (kind == "spike") {
    window.kind = net::FaultKind::kLatencySpike;
    shape_ok = cidr_of(window.scope) && day_of(window.start) &&
               day_of(window.end);
    if (shape_ok) {
      const auto ms =
          cursor < tokens.size()
              ? util::parse_number<std::uint64_t>(tokens[cursor])
              : std::nullopt;
      ++cursor;
      if (!ms || *ms > 1'000'000 || cursor != tokens.size()) {
        shape_ok = false;
      } else {
        window.magnitude = sim::msec(*ms);
      }
    }
  } else {
    return fail(line, ScenarioErrorCode::kUnknownDirective,
                "unknown fault kind '" + kind + "'");
  }
  if (!shape_ok) {
    return fail(line, ScenarioErrorCode::kBadValue,
                "fault " + kind + ": malformed operands (cidr/day bounds)");
  }
  return apply_checked(line, key, [window](StudyConfig& c) {
    c.fault_schedule.windows.push_back(window);
  });
}

bool Parser::handle_roster(int line,
                           const std::vector<std::string_view>& tokens) {
  if (tokens.size() != 3) {
    return fail(line, ScenarioErrorCode::kBadValue,
                "roster takes <group> on|off");
  }
  const std::string group(tokens[1]);
  const auto value = parse_on_off(tokens[2]);
  if (!value) {
    return fail(line, ScenarioErrorCode::kBadValue,
                "roster " + group + ": expected on or off");
  }
  if (!check_duplicate(line, "roster " + group)) return false;
  auto& roster = scenario.config.roster;
  if (group == "scan-services") {
    roster.scan_services = *value;
  } else if (group == "infected") {
    roster.infected = *value;
  } else if (group == "external") {
    roster.external = *value;
  } else if (group == "dos") {
    roster.dos = *value;
  } else if (group == "multistage") {
    roster.multistage = *value;
  } else if (group == "background") {
    roster.background = *value;
  } else {
    return fail(line, ScenarioErrorCode::kUnknownDirective,
                "unknown roster group '" + group +
                    "' (scan-services, infected, external, dos, "
                    "multistage, background)");
  }
  return true;
}

bool Parser::handle_directive(int line, std::string_view text) {
  const auto tokens = tokenize(text);
  if (tokens.empty()) return true;  // caller already skipped blanks
  const std::string name(tokens[0]);
  any_directive = true;

  if (name == "fault") return handle_fault(line, tokens);
  if (name == "roster") return handle_roster(line, tokens);

  if (name == "report") {
    if (tokens.size() != 2) {
      return fail(line, ScenarioErrorCode::kBadValue,
                  "report takes exactly one name");
    }
    const std::string report_name(tokens[1]);
    if (!known_report(report_name)) {
      return fail(line, ScenarioErrorCode::kUnknownReport,
                  "unknown report '" + report_name + "'");
    }
    if (report_name == "degradation-vs-baseline") {
      scenario.wants_baseline = true;
    }
    scenario.reports.push_back(ScenarioReport{line, report_name, {}});
    return true;
  }

  if (name == "scenario") {
    if (!check_duplicate(line, name)) return false;
    if (tokens.size() < 2) {
      return fail(line, ScenarioErrorCode::kBadValue,
                  "scenario takes a title");
    }
    // tokens are views into `text`, so pointer arithmetic recovers the
    // title's offset — everything from the second token onward, verbatim.
    const auto title_start =
        static_cast<std::size_t>(tokens[1].data() - text.data());
    scenario.title = std::string(text.substr(title_start));
    return true;
  }

  // Everything below is a single-valued StudyConfig knob.
  if (!check_duplicate(line, name)) return false;
  const auto one_operand = [&]() -> std::optional<std::string_view> {
    if (tokens.size() != 2) {
      fail(line, ScenarioErrorCode::kBadValue,
           "'" + name + "' takes exactly one value");
      return std::nullopt;
    }
    return tokens[1];
  };
  const auto bad_value = [&](std::string_view token) {
    return fail(line, ScenarioErrorCode::kBadValue,
                "'" + name + "': cannot parse '" + std::string(token) + "'");
  };

  if (name == "seed") {
    const auto operand = one_operand();
    if (!operand) return false;
    const auto value = util::parse_number<std::uint64_t>(*operand);
    if (!value) return bad_value(*operand);
    scenario.config.seed = *value;
    return true;
  }
  if (name == "scale" || name == "attack-scale" ||
      name == "listing-boost" || name == "fault-budget" ||
      name == "telescope-rate-scale" || name == "telescope-source-scale") {
    const auto operand = one_operand();
    if (!operand) return false;
    const auto value = parse_number(*operand);
    if (!value) return bad_value(*operand);
    return apply_checked(line, name, [&name, v = *value](StudyConfig& c) {
      if (name == "scale") c.population_scale = v;
      if (name == "attack-scale") c.attack_scale = v;
      if (name == "listing-boost") c.listing_boost = v;
      if (name == "fault-budget") c.fault_budget = v;
      if (name == "telescope-rate-scale") c.telescope_rate_scale = v;
      if (name == "telescope-source-scale") c.telescope_source_scale = v;
    });
  }
  if (name == "duration-days") {
    const auto operand = one_operand();
    if (!operand) return false;
    const auto value = parse_days(*operand);
    if (!value) {
      return fail(line, ScenarioErrorCode::kOutOfRange,
                  "duration-days must be a number of days in [0, 400]");
    }
    return apply_checked(line, name, [v = *value](StudyConfig& c) {
      c.attack_duration = v;
    });
  }
  if (name == "scan-threads" || name == "scan-workers" ||
      name == "scan-batch" || name == "scan-attempts" ||
      name == "session-attempts") {
    const auto operand = one_operand();
    if (!operand) return false;
    const auto value = util::parse_number<std::uint64_t>(*operand);
    if (!value || *value > 1'000'000'000) return bad_value(*operand);
    return apply_checked(line, name, [&name, v = *value](StudyConfig& c) {
      if (name == "scan-threads") c.scan_threads = static_cast<unsigned>(v);
      // scan-workers only selects the execution backend (dispatcher vs
      // in-process): a fuzzed scenario file can request worker processes,
      // but with no dispatcher installed (scenario_fuzz never installs
      // one) the study degrades to the in-process path — and the reports
      // are byte-identical either way. worker_endpoint stays out of the
      // language entirely: hostile files must never pick bind paths.
      if (name == "scan-workers") c.scan_workers = static_cast<unsigned>(v);
      if (name == "scan-batch") c.scan_batch = static_cast<std::uint32_t>(v);
      if (name == "scan-attempts") {
        c.scan_attempts = static_cast<std::uint32_t>(v);
      }
      if (name == "session-attempts") {
        c.session_connect_attempts = static_cast<int>(v);
      }
    });
  }
  if (name == "filter-honeypots") {
    const auto operand = one_operand();
    if (!operand) return false;
    const auto value = parse_on_off(*operand);
    if (!value) return bad_value(*operand);
    scenario.config.filter_honeypots = *value;
    return true;
  }
  if (name == "telescope-range") {
    const auto operand = one_operand();
    if (!operand) return false;
    const auto value = util::Cidr::parse(*operand);
    if (!value) return bad_value(*operand);
    return apply_checked(line, name, [v = *value](StudyConfig& c) {
      c.telescope_range = v;
    });
  }

  return fail(line, ScenarioErrorCode::kUnknownDirective,
              "unknown directive '" + name + "'");
}

bool Parser::handle_expectation(int line, std::string_view text) {
  if (scenario.reports.empty()) {
    return fail(line, ScenarioErrorCode::kOrphanExpectation,
                "expectation before any report directive");
  }
  const std::string_view pattern = text.substr(1);
  if (pattern.size() > kMaxPatternBytes) {
    return fail(line, ScenarioErrorCode::kBadRegex,
                "pattern longer than " + std::to_string(kMaxPatternBytes) +
                    " bytes");
  }
  if (++expectation_count > kMaxExpectations) {
    return fail(line, ScenarioErrorCode::kBadRegex,
                "more than " + std::to_string(kMaxExpectations) +
                    " expectations");
  }
  ScenarioExpectation expectation;
  expectation.line = line;
  expectation.pattern = std::string(pattern);
  try {
    expectation.regex = std::regex(expectation.pattern,
                                   std::regex_constants::ECMAScript);
  } catch (const std::regex_error&) {
    return fail(line, ScenarioErrorCode::kBadRegex,
                "invalid regular expression");
  }
  scenario.reports.back().expectations.push_back(std::move(expectation));
  return true;
}

bool Parser::finish() {
  if (!any_directive) {
    return fail(1, ScenarioErrorCode::kSyntax,
                "empty scenario (no directives)");
  }
  return true;
}

}  // namespace

std::string_view scenario_error_code_name(ScenarioErrorCode code) {
  switch (code) {
    case ScenarioErrorCode::kIo: return "io-error";
    case ScenarioErrorCode::kSyntax: return "syntax-error";
    case ScenarioErrorCode::kUnknownDirective: return "unknown-directive";
    case ScenarioErrorCode::kDuplicateDirective: return "duplicate-directive";
    case ScenarioErrorCode::kBadValue: return "bad-value";
    case ScenarioErrorCode::kOutOfRange: return "out-of-range";
    case ScenarioErrorCode::kOrphanExpectation: return "orphan-expectation";
    case ScenarioErrorCode::kBadRegex: return "bad-regex";
    case ScenarioErrorCode::kUnknownReport: return "unknown-report";
  }
  return "unknown";
}

std::string ScenarioError::to_string() const {
  std::string out = file;
  out += ":" + std::to_string(line) + ": ";
  out += scenario_error_code_name(code);
  out += ": " + message;
  return out;
}

const std::vector<std::string>& scenario_report_names() {
  static const std::vector<std::string> kNames = {
      "table4",  "table5", "table6", "table7", "table8", "table10",
      "fig2",    "fig3",   "fig4",   "fig5",   "fig6",   "fig7",
      "fig8",    "fig9",   "correlation", "credentials", "chains",
      "summary", "degradation", "degradation-vs-baseline",
      "progress-summary"};
  return kNames;
}

std::optional<Scenario> parse_scenario_text(std::string_view text,
                                            std::string_view file,
                                            ScenarioError* error) {
  Parser parser;
  parser.file = file;
  parser.error = error;
  parser.scenario.file = std::string(file);

  if (text.size() > kMaxFileBytes) {
    parser.fail(0, ScenarioErrorCode::kIo, "file larger than 1 MiB");
    return std::nullopt;
  }

  int line_number = 0;
  std::size_t offset = 0;
  while (offset <= text.size()) {
    if (line_number >= static_cast<int>(kMaxLines)) {
      parser.fail(line_number, ScenarioErrorCode::kSyntax,
                  "more than 10000 lines");
      return std::nullopt;
    }
    const auto newline = text.find('\n', offset);
    std::string_view line =
        newline == std::string_view::npos
            ? text.substr(offset)
            : text.substr(offset, newline - offset);
    // The loop must terminate even for a final line without '\n'.
    const bool last = newline == std::string_view::npos;
    offset = last ? text.size() + 1 : newline + 1;
    ++line_number;
    if (last && line.empty()) break;

    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.size() > kMaxLineBytes) {
      parser.fail(line_number, ScenarioErrorCode::kSyntax,
                  "line longer than 4096 bytes");
      return std::nullopt;
    }
    if (!line.empty() && line.front() == '#') {
      if (!parser.handle_expectation(line_number, line)) return std::nullopt;
      continue;
    }
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.substr(0, 2) == "//") continue;
    if (!parser.handle_directive(line_number, trimmed)) return std::nullopt;
  }
  if (!parser.finish()) return std::nullopt;
  return std::move(parser.scenario);
}

std::optional<Scenario> parse_scenario_file(const std::string& path,
                                            ScenarioError* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    if (error != nullptr) {
      *error = ScenarioError{path, 0, ScenarioErrorCode::kIo,
                             "cannot open file"};
    }
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_scenario_text(buffer.str(), path, error);
}

// ----------------------------------------------------------------- running

namespace {

// Renders one named report. `baseline` is non-null only when the scenario
// ran a fault-free twin (degradation-vs-baseline).
std::string render_report(Study& study, const std::string& name,
                          const DegradationBaseline* baseline) {
  if (name == "table4") return report_table4_exposed(study);
  if (name == "table5") return report_table5_misconfigured(study);
  if (name == "table6") return report_table6_honeypots(study);
  if (name == "table7") return report_table7_attacks(study);
  if (name == "table8") return report_table8_telescope(study);
  if (name == "table10") return report_table10_countries(study);
  if (name == "fig2") return report_fig2_device_types(study);
  if (name == "fig3") return report_fig3_scanning_services(study);
  if (name == "fig4") return report_fig4_attack_types(study);
  if (name == "fig5") return report_fig5_greynoise(study);
  if (name == "fig6") return report_fig6_virustotal(study);
  if (name == "fig7") return report_fig7_trends(study);
  if (name == "fig8") return report_fig8_daily(study);
  if (name == "fig9") return report_fig9_multistage(study);
  if (name == "correlation") return report_correlation(study);
  if (name == "credentials") return report_table12_credentials(study);
  if (name == "chains") return study.attack_chains();
  if (name == "degradation") return study.degradation_report();
  if (name == "degradation-vs-baseline") {
    return study.degradation_report(baseline);
  }
  if (name == "progress-summary") {
    // Deterministic introspection digest: final board state, per-kind
    // progress-event totals and folded sweep finals are all pure functions
    // of the study's event streams, so this report is corpus-pinnable at
    // every scan_threads value. Ring *contents* are deliberately absent —
    // their interleaving is schedule-dependent.
    const auto num = [](std::uint64_t v) { return std::to_string(v); };
    const auto snap = study.introspection().snapshot(false);
    std::string out = "progress summary\n";
    out += "board: epoch=" + num(snap.epoch) +
           " phase=" + num(snap.phase) +
           " sim_day=" + num(snap.sim_day) + "\n";
    out += "events: published=" + num(snap.events_published);
    for (std::size_t i = 0; i < obs::kProgressKindCount; ++i) {
      out += " ";
      out += obs::progress_kind_name(static_cast<obs::ProgressKind>(i));
      out += "=" + num(snap.kind_counts[i]);
    }
    out += "\n";
    for (const auto& sweep : snap.sweeps) {
      out += "sweep " + sweep.name + ": done=" + num(sweep.done) +
             " total=" + num(sweep.total) + "\n";
    }
    out += "sweeps: done=" + num(snap.sweep_done) +
           " total=" + num(snap.sweep_total) + "\n";
    out += "trace: recorded=" + num(snap.trace_recorded) +
           " dropped=" + num(snap.trace_dropped) +
           " shards=" + num(snap.trace_shards.size()) + "\n";
    return out;
  }
  if (name == "summary") {
    const auto num = [](std::uint64_t v) { return std::to_string(v); };
    std::string out = "scenario summary\n";
    out += "population: devices=" + num(study.population().total_devices()) +
           " wild_honeypots=" + num(study.wild_honeypot_count()) + "\n";
    out += "scan: probes=" + num(study.scan_db().probes_sent()) +
           " responsive_hosts=" + num(study.scan_db().unique_hosts_total()) +
           " records=" + num(study.scan_db().size()) +
           " retries=" + num(study.scan_db().retries()) + "\n";
    out += "classify: findings=" + num(study.findings().size()) +
           " unfiltered=" + num(study.unfiltered_findings().size()) +
           " honeypot_hosts=" +
           num(study.fingerprints().honeypot_hosts.size()) + "\n";
    out += "attack: events=" + num(study.attack_log().size()) +
           " sessions=" + num(study.fleet().sessions_launched()) +
           " listings=" + num(study.fleet().listings().size()) +
           " multistage=" + num(study.fleet().multistage_attacker_count()) +
           "\n";
    out += "telescope: flowtuples=" + num(study.scope().total_packets()) +
           "\n";
    out += "correlation: both=" + num(study.infected().both.size()) +
           " honeypot_only=" + num(study.infected().honeypot_only.size()) +
           " telescope_only=" + num(study.infected().telescope_only.size()) +
           " censys_extra=" + num(study.censys_extra()) + "\n";
    // Scan start day per protocol: the shape of the paper's Appendix
    // Table 9 (six sweeps spread across one week).
    out += "scan-start:";
    for (const auto& [protocol, when] : study.scan_dates()) {
      out += " ";
      out += proto::protocol_name(protocol);
      out += "=" + sim::format_time(when).substr(0, 3);
    }
    out += "\n";
    out += "planted: misconfigured=" +
           num(study.population().misconfigured_count()) + " infected=" +
           num(study.fleet().infected_device_addresses().size()) + "\n";
    // A port-23-only scan (Project Sonar's) misses the port2323 hosts.
    std::uint64_t port23 = 0;
    std::uint64_t port2323 = 0;
    for (const auto& record : study.scan_db().records()) {
      if (record.protocol != proto::Protocol::kTelnet) continue;
      port23 += record.port == 23 ? 1 : 0;
      port2323 += record.port == 2323 ? 1 : 0;
    }
    out += "telnet-ports: port23=" + num(port23) +
           " port2323=" + num(port2323) + "\n";
    out += "telescope-tuples: count=" + num(study.scope().tuple_count()) +
           "\n";
    // Attack volume before and after mid-month; listing by scanning
    // services (listing-boost) makes the second half heavier (Figure 8).
    std::uint64_t first_half = 0;
    std::uint64_t second_half = 0;
    for (const auto& event : study.attack_log().events()) {
      (event.when < study.config().attack_duration / 2 ? first_half
                                                       : second_half) += 1;
    }
    out += "attack-halves: first=" + num(first_half) +
           " second=" + num(second_half) + "\n";
    return out;
  }
  return "unknown report: " + name + "\n";  // unreachable: parser validates
}

// `fault chaos` resolution: the canned schedule needs victim ranges, which
// only exist once the population is built. A throwaway replica (build() is
// pure in its spec) supplies them; explicitly parsed scalar knobs and
// windows layer on top of the canned plan.
net::FaultSchedule resolve_chaos(const Scenario& scenario) {
  const auto& config = scenario.config;
  devices::PopulationSpec spec;
  spec.seed = config.seed;
  spec.scale = config.population_scale;
  devices::Population population(spec);
  population.build();
  net::ChaosOptions options;
  options.ranges = population.prefixes();
  options.end = static_cast<sim::Time>(scenario.chaos_end_days *
                                       static_cast<double>(sim::days(1)));
  net::FaultSchedule merged = net::FaultSchedule::chaos(config.seed, options);

  const auto& parsed = config.fault_schedule;
  if (parsed.uniform_loss > 0.0) merged.uniform_loss = parsed.uniform_loss;
  if (parsed.duplicate_rate > 0.0) {
    merged.duplicate_rate = parsed.duplicate_rate;
  }
  if (parsed.reorder_rate > 0.0) {
    merged.reorder_rate = parsed.reorder_rate;
    merged.reorder_delay = parsed.reorder_delay;
  }
  if (parsed.burst.enabled) merged.burst = parsed.burst;
  merged.windows.insert(merged.windows.end(), parsed.windows.begin(),
                        parsed.windows.end());
  return merged;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t offset = 0;
  while (offset < text.size()) {
    const auto newline = text.find('\n', offset);
    if (newline == std::string::npos) {
      lines.push_back(text.substr(offset));
      break;
    }
    lines.push_back(text.substr(offset, newline - offset));
    offset = newline + 1;
  }
  return lines;
}

// regex_search wrapped so a pathological pattern (the fuzzer feeds them)
// degrades to "no match" instead of an exception escaping the library.
bool safe_search(const std::string& line, const std::regex& regex) {
  try {
    return std::regex_search(line, regex);
  } catch (const std::regex_error&) {
    return false;
  }
}

}  // namespace

ScenarioResult run_scenario(const Scenario& scenario,
                            const ScenarioRunOptions& options) {
  ScenarioResult result;
  StudyConfig config = scenario.config;
  if (scenario.chaos_end_days > 0.0) {
    config.fault_schedule = resolve_chaos(scenario);
  }

  std::vector<unsigned> sweep = options.thread_sweep;
  if (sweep.empty()) sweep.push_back(config.scan_threads);

  // The fault-free twin shares everything with the scenario except the
  // chaos knobs themselves — same seed, same scales, same roster — so
  // degradation-vs-baseline isolates exactly the schedule's effect.
  DegradationBaseline baseline;
  if (scenario.wants_baseline) {
    StudyConfig twin = config;
    twin.fault_schedule = net::FaultSchedule{};
    twin.scan_attempts = 1;
    twin.session_connect_attempts = 1;
    twin.scan_threads = sweep.front();
    Study study(twin);
    study.run_all();
    baseline = study.baseline();
  }

  std::vector<std::string> reference;  // report texts from sweep.front()
  for (std::size_t pass = 0; pass < sweep.size(); ++pass) {
    config.scan_threads = sweep[pass];
    Study study(config);
    study.run_all();
    std::vector<std::string> texts;
    texts.reserve(scenario.reports.size());
    for (const auto& block : scenario.reports) {
      texts.push_back(render_report(
          study, block.name,
          scenario.wants_baseline ? &baseline : nullptr));
    }
    if (pass == 0) {
      reference = texts;
      for (std::size_t i = 0; i < scenario.reports.size(); ++i) {
        result.reports.push_back(
            ScenarioReportOutput{scenario.reports[i].name, texts[i]});
      }
      continue;
    }
    for (std::size_t i = 0; i < texts.size(); ++i) {
      if (texts[i] == reference[i]) continue;
      // Name the first diverging line: determinism bugs are found by line,
      // not by diffing two blobs.
      const auto expected = split_lines(reference[i]);
      const auto actual = split_lines(texts[i]);
      std::size_t diff_line = 0;
      while (diff_line < expected.size() && diff_line < actual.size() &&
             expected[diff_line] == actual[diff_line]) {
        ++diff_line;
      }
      result.failures.push_back(
          scenario.file + ":" + std::to_string(scenario.reports[i].line) +
          ": report '" + scenario.reports[i].name +
          "' differs between scan_threads=" + std::to_string(sweep.front()) +
          " and scan_threads=" + std::to_string(sweep[pass]) +
          " (first diff at report line " + std::to_string(diff_line + 1) +
          ")");
    }
  }

  if (options.check_expectations) {
    for (std::size_t i = 0; i < scenario.reports.size(); ++i) {
      const auto& block = scenario.reports[i];
      const auto lines = split_lines(reference[i]);
      std::size_t pos = 0;
      for (const auto& expectation : block.expectations) {
        std::size_t found = lines.size();
        for (std::size_t j = pos; j < lines.size(); ++j) {
          if (safe_search(lines[j], expectation.regex)) {
            found = j;
            break;
          }
        }
        if (found == lines.size()) {
          result.failures.push_back(
              scenario.file + ":" + std::to_string(expectation.line) +
              ": expectation /" + expectation.pattern +
              "/ not matched in report '" + block.name +
              "' (searched report lines " + std::to_string(pos + 1) + ".." +
              std::to_string(lines.size()) + ")");
          break;  // later expectations would cascade-fail; stop at the first
        }
        pos = found + 1;
      }
    }
  }

  result.passed = result.failures.empty();
  return result;
}

// ------------------------------------------------- update-mode helpers

std::string escape_expectation(std::string_view line) {
  static constexpr std::string_view kMeta = R"(^$\.*+?()[]{}|)";
  std::string out;
  out.reserve(line.size());
  for (const char c : line) {
    if (kMeta.find(c) != std::string_view::npos) out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string expectation_literal_prefix(std::string_view pattern) {
  static constexpr std::string_view kMeta = R"(^$.*+?()[]{}|)";
  std::string out;
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    const char c = pattern[i];
    if (c == '\\') {
      // An escaped metacharacter is a literal; an escape class (\d, \s...)
      // ends the literal prefix.
      if (i + 1 < pattern.size() &&
          kMeta.find(pattern[i + 1]) != std::string_view::npos) {
        out.push_back(pattern[i + 1]);
        ++i;
        continue;
      }
      break;
    }
    if (kMeta.find(c) != std::string_view::npos) break;
    out.push_back(c);
  }
  return out;
}

}  // namespace ofh::core
