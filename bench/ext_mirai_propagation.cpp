// Extension: Mirai-style self-propagation over the misconfigured
// population. Not a table in the paper, but its central warning (§6):
// "many of the misconfigured devices take themselves the role of the
// attacker as part of malware propagation campaigns". The epidemic runs
// over the real Telnet engines (brute force with Table 12 credentials) and
// prints the infection growth curve.
#include <algorithm>
#include <cstdio>
#include <string>

#include "attackers/malware.h"
#include "attackers/propagation.h"
#include "core/scenario.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: ext_mirai_propagation <study.ofh>\n"
                         "  e.g. experiments/paper.ofh\n");
    return 2;
  }
  ofh::core::ScenarioError error;
  const auto scenario = ofh::core::parse_scenario_file(argv[1], &error);
  if (!scenario) {
    std::fprintf(stderr, "%s\n", error.to_string().c_str());
    return 2;
  }
  const ofh::core::StudyConfig& config = scenario->config;
  std::printf("Extension (Mirai propagation dynamics), study %s\n", argv[1]);

  ofh::sim::Simulation sim;
  ofh::net::Fabric fabric(sim, config.seed);
  fabric.set_latency(ofh::sim::msec(15), ofh::sim::msec(25));

  ofh::devices::PopulationSpec pop_spec;
  pop_spec.seed = config.seed;
  pop_spec.scale = config.population_scale;
  ofh::devices::Population population(pop_spec);
  population.build();
  population.attach_all(fabric);

  ofh::attackers::MalwareCorpus corpus(config.seed, 0.05);
  ofh::attackers::PropagationConfig epidemic_config;
  epidemic_config.seed = config.seed;
  epidemic_config.duration = ofh::sim::days(14);
  epidemic_config.initial_bots = 3;
  epidemic_config.attempts_per_bot_per_hour = 10.0;
  ofh::attackers::Epidemic epidemic(epidemic_config, population, corpus);
  epidemic.deploy(fabric);

  std::printf("\npopulation: %llu devices, %zu susceptible to Telnet "
              "compromise (no-auth or default credentials)\n",
              static_cast<unsigned long long>(population.total_devices()),
              epidemic.susceptible_count());

  // Run day by day, printing the growth curve.
  std::printf("\n%-6s %-10s %s\n", "day", "infected", "growth");
  std::size_t previous = 0;
  for (int day = 1; day <= 14; ++day) {
    sim.run_until(ofh::sim::days(static_cast<std::uint64_t>(day)));
    const auto infected = epidemic.infected_count();
    // Bars scaled to the susceptible population (max 56 columns).
    std::string bar(
        static_cast<std::size_t>(
            56.0 * infected /
            std::max<std::size_t>(1, epidemic.susceptible_count())),
        '#');
    std::printf("d%02d    %-10zu %s (+%zu)\n", day, infected, bar.c_str(),
                infected - previous);
    previous = infected;
  }
  std::printf("\n%llu brute-force attempts; %.1f%% of susceptible devices "
              "compromised in 14 days\n",
              static_cast<unsigned long long>(epidemic.attempts()),
              100.0 * static_cast<double>(epidemic.infected_count()) /
                  static_cast<double>(epidemic.susceptible_count()));
  return 0;
}
