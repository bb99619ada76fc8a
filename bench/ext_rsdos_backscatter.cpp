// Extension: RSDoS backscatter reconstruction — the CAIDA telescope's third
// data product ("Aggregated Daily RSDoS Attack Metadata", paper §3.4).
// Randomly-spoofed SYN floods against devices elsewhere on the Internet
// produce SYN-ACK/RST backscatter; the slice hitting the /8 darknet lets
// the detector reconstruct victim, duration and estimated magnitude.
#include <cstdio>

#include "core/scenario.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: ext_rsdos_backscatter <study.ofh>\n"
                         "  e.g. experiments/paper.ofh\n");
    return 2;
  }
  ofh::core::ScenarioError error;
  const auto scenario = ofh::core::parse_scenario_file(argv[1], &error);
  if (!scenario) {
    std::fprintf(stderr, "%s\n", error.to_string().c_str());
    return 2;
  }
  std::printf("Extension (RSDoS backscatter), study %s\n", argv[1]);

  ofh::core::Study study(scenario->config);
  study.setup_internet();
  study.run_attack_month();

  const auto attacks = study.rsdos().attacks();
  std::printf("\nbackscatter packets at the telescope: %llu\n",
              static_cast<unsigned long long>(
                  study.rsdos().backscatter_packets()));
  std::printf("reconstructed RSDoS attacks: %zu\n\n", attacks.size());
  std::printf("%-16s %-22s %-10s %-9s %s\n", "victim", "window", "observed",
              "targets", "estimated attack size");
  for (const auto& attack : attacks) {
    std::printf("%-16s %s .. %s %-10llu %-9u ~%.0f packets\n",
                attack.victim.to_string().c_str(),
                ofh::sim::format_time(attack.first_seen).substr(0, 9).c_str(),
                ofh::sim::format_time(attack.last_seen).substr(0, 9).c_str(),
                static_cast<unsigned long long>(attack.packets),
                attack.distinct_darknet_targets,
                attack.estimated_attack_packets(
                    study.config().telescope_range));
  }
  std::printf(
      "\n(a /8 darknet sees 1/256 of randomly spoofed space, so estimated\n"
      " sizes are observed x256 — the CAIDA metadata methodology)\n");
  return 0;
}
