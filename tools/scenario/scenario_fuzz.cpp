// scenario_fuzz: seeded mutation fuzzer for the scenario parser + runner.
// Loads the checked-in corpus, corrupts it (truncation, token splices,
// numeric extremes, line shuffles, byte flips) and feeds the result through
// parse_scenario_text; every Nth successfully-parsed mutant also runs the
// full study pipeline at a clamped micro scale. Built and run under
// ASan+UBSan in ci.sh (500 iterations, fixed seed): the parser must reject
// hostile input with a typed ScenarioError — an escaping exception, a
// sanitizer report, or a partially-applied config is a bug and exits 1.
//
// Determinism: all randomness is splitmix64 seeded from --seed; no
// wall-clock anywhere, so a failing iteration number reproduces exactly:
//   scenario_fuzz --seed=7 --iterations=500 --only=233 --dump corpus/*.ofh
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/scenario.h"
#include "util/strings.h"

namespace {

// Local splitmix64 so the fuzzer has zero coupling to library RNG changes.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t below(std::uint64_t& state, std::uint64_t bound) {
  return bound == 0 ? 0 : splitmix64(state) % bound;
}

// Splice dictionary: valid directive heads, report names, boundary numbers
// and syntactic debris — tokens that push the parser into its rare paths.
const char* const kTokens[] = {
    "scenario", "seed", "scale", "attack-scale", "duration-days",
    "scan-threads", "scan-batch", "scan-attempts", "session-attempts",
    "filter-honeypots", "listing-boost", "telescope-range",
    "telescope-rate-scale", "telescope-source-scale", "fault-budget",
    "roster", "fault", "report", "on", "off", "uniform-loss", "burst",
    "chaos", "flap", "partition", "spike", "refusal", "crash", "reorder",
    "duplicate", "infected", "external", "dos", "multistage", "background",
    "scan-services", "table4", "summary", "degradation",
    "degradation-vs-baseline", "10.0.0.0/8", "44.0.0.0/8", "0.0.0.0/0",
    "300.1.2.3/8", "10.0.0.0/33", "#", "//", "(", "[", "\\",
};
const char* const kNumbers[] = {
    "0", "-1", "1", "1e308", "-1e308", "nan", "inf", "1/0", "0/0",
    "999999999999999999999", "18446744073709551616", "1e-320", "0.0/0.0",
    "1/8192", "366", "367", "4294967296", "-0.5", "1.0000000001",
};

std::string mutate(std::string input, std::uint64_t& state) {
  const int rounds = 1 + static_cast<int>(below(state, 4));
  for (int round = 0; round < rounds; ++round) {
    if (input.empty()) {
      input = kTokens[below(state, std::size(kTokens))];
      continue;
    }
    switch (below(state, 5)) {
      case 0: {  // truncation
        input.resize(below(state, input.size() + 1));
        break;
      }
      case 1: {  // token splice at a random offset
        const char* token =
            below(state, 3) == 0
                ? kNumbers[below(state, std::size(kNumbers))]
                : kTokens[below(state, std::size(kTokens))];
        const std::size_t at = below(state, input.size() + 1);
        input.insert(at, std::string(" ") + token + " ");
        break;
      }
      case 2: {  // numeric extreme: replace a digit run
        std::size_t start = below(state, input.size());
        while (start < input.size() &&
               (input[start] < '0' || input[start] > '9')) {
          ++start;
        }
        if (start < input.size()) {
          std::size_t end = start;
          while (end < input.size() && input[end] >= '0' &&
                 input[end] <= '9') {
            ++end;
          }
          input.replace(start, end - start,
                        kNumbers[below(state, std::size(kNumbers))]);
        }
        break;
      }
      case 3: {  // directive shuffle: swap two whole lines
        std::vector<std::string> lines;
        std::stringstream stream(input);
        std::string line;
        while (std::getline(stream, line)) lines.push_back(line);
        if (lines.size() >= 2) {
          const std::size_t a = below(state, lines.size());
          const std::size_t b = below(state, lines.size());
          std::swap(lines[a], lines[b]);
          input.clear();
          for (const auto& swapped : lines) input += swapped + "\n";
        }
        break;
      }
      default: {  // byte flip
        input[below(state, input.size())] =
            static_cast<char>(below(state, 256));
        break;
      }
    }
  }
  return input;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  int iterations = 500;
  int run_every = 25;  // full-pipeline run on every Nth successful parse
  long only = -1;      // reproduce a single iteration
  bool dump = false;
  std::vector<std::string> files;

  const auto usage = [](std::FILE* stream) {
    std::fprintf(stream,
                 "usage: scenario_fuzz [--seed=N] [--iterations=N] "
                 "[--run-every=N] [--only=ITER] [--dump] <corpus.ofh>...\n");
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    // "--flag=N" with a strictly parsed N: "--iterations=5oo" is a usage
    // error, not a 5-iteration run.
    const auto number = [&arg](std::string_view flag, auto& out) {
      const auto value =
          ofh::util::parse_number<std::remove_reference_t<decltype(out)>>(
              arg.substr(flag.size()));
      if (value) out = *value;
      return value.has_value();
    };
    bool ok = true;
    if (arg.starts_with("--seed=")) {
      ok = number("--seed=", seed);
    } else if (arg.starts_with("--iterations=")) {
      ok = number("--iterations=", iterations);
    } else if (arg.starts_with("--run-every=")) {
      ok = number("--run-every=", run_every);
    } else if (arg.starts_with("--only=")) {
      ok = number("--only=", only);
    } else if (arg == "--dump") {
      dump = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else {
      files.emplace_back(arg);
    }
    if (!ok) {
      std::fprintf(stderr, "scenario_fuzz: bad argument '%s'\n", argv[i]);
      usage(stderr);
      return 2;
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "scenario_fuzz: no corpus files given\n");
    return 2;
  }

  std::vector<std::string> corpus;
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in.good()) {
      std::fprintf(stderr, "scenario_fuzz: cannot read %s\n", file.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    corpus.push_back(buffer.str());
  }

  int parsed = 0;
  int rejected = 0;
  int pipeline_runs = 0;
  for (int iteration = 0; iteration < iterations; ++iteration) {
    // Per-iteration state derived from (seed, iteration) so --only=N
    // reproduces iteration N without replaying 0..N-1.
    std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL +
                          static_cast<std::uint64_t>(iteration);
    const std::string& base = corpus[below(state, corpus.size())];
    const std::string mutant = mutate(base, state);
    if (only >= 0 && iteration != only) continue;
    if (dump) {
      std::printf("---- iteration %d (%zu bytes) ----\n", iteration,
                  mutant.size());
      // fwrite, not printf: mutants legitimately contain NUL bytes.
      std::fwrite(mutant.data(), 1, mutant.size(), stdout);
      std::printf("\n");
      std::fflush(stdout);
    }

    ofh::core::ScenarioError error;
    const auto scenario =
        ofh::core::parse_scenario_text(mutant, "<fuzz>", &error);
    if (!scenario) {
      // The contract under test: rejection is typed, never an exception.
      if (error.message.empty()) {
        std::fprintf(stderr,
                     "iteration %d: parse failed without a message\n",
                     iteration);
        return 1;
      }
      ++rejected;
      continue;
    }
    ++parsed;

    if (run_every <= 0 || parsed % run_every != 0) continue;
    // A parsed mutant is a *valid* config by construction (the parser
    // re-validates after every directive); clamp the cost knobs so a legal
    // but expensive scenario (scale 1, 30 days) stays micro-sized, then
    // prove the runner survives it.
    ofh::core::Scenario trimmed = *scenario;
    auto& config = trimmed.config;
    config.population_scale =
        std::min(config.population_scale, 1.0 / 131'072);
    config.attack_scale = std::min(config.attack_scale, 1.0 / 512);
    config.attack_duration =
        std::min(config.attack_duration, ofh::sim::days(1));
    config.scan_threads = 1;
    config.scan_attempts = std::min<std::uint32_t>(config.scan_attempts, 4);
    config.session_connect_attempts =
        std::min(config.session_connect_attempts, 2);
    config.telescope_rate_scale =
        std::min(config.telescope_rate_scale, 1.0 / 4'000'000);
    config.telescope_source_scale =
        std::min(config.telescope_source_scale, 1.0 / 40'000);
    trimmed.chaos_end_days = std::min(trimmed.chaos_end_days, 2.0);
    trimmed.wants_baseline = false;  // one study per mutant, not two

    ofh::core::ScenarioRunOptions options;
    options.thread_sweep = {1};
    // Expectation regexes came out of the mutator: matching them risks
    // catastrophic backtracking (a hang, not UB), so the fuzz run only
    // exercises parse + pipeline + report rendering.
    options.check_expectations = false;
    const auto result = ofh::core::run_scenario(trimmed, options);
    (void)result;  // failures are fine; crashes/sanitizer reports are not
    ++pipeline_runs;
  }

  std::printf(
      "scenario_fuzz: %d iterations, %d parsed, %d rejected, "
      "%d pipeline runs, 0 crashes\n",
      iterations, parsed, rejected, pipeline_runs);
  return 0;
}
