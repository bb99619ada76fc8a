// Extension/ablation: scan-origin effects. Some networks firewall the IP
// ranges of well-known scanning services; the paper ran its own scans from
// a university host for exactly this reason (Appendix A.3), citing Wan et
// al.'s "On the Origin of Scanning". Here a share of devices blocklists the
// known-scanner range; the same sweep is then run from a known-scanner
// vantage and from a fresh university address, and the coverage gap is
// measured.
#include <cstdio>

#include "core/scenario.h"
#include "scanner/scanner.h"

namespace {

std::uint64_t sweep_from(ofh::core::Study& study, ofh::util::Ipv4Addr origin,
                         ofh::proto::Protocol protocol) {
  ofh::scanner::ScanDb db;
  ofh::scanner::Scanner scanner(origin, db);
  scanner.attach(study.fabric());
  ofh::scanner::ScanConfig config;
  config.protocol = protocol;
  config.targets = study.population().prefixes();
  config.seed = 7;
  config.batch_size = 4'096;
  bool done = false;
  scanner.start(config, [&done] { done = true; });
  while (!done && study.sim().step()) {
  }
  scanner.detach();
  return db.unique_hosts(protocol);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: ext_scan_origin <study.ofh>\n"
                         "  e.g. experiments/paper.ofh\n");
    return 2;
  }
  ofh::core::ScenarioError error;
  const auto scenario = ofh::core::parse_scenario_file(argv[1], &error);
  if (!scenario) {
    std::fprintf(stderr, "%s\n", error.to_string().c_str());
    return 2;
  }
  std::printf("Extension (scan-origin blocking), study %s\n", argv[1]);

  ofh::core::Study study(scenario->config);
  study.setup_internet();

  // A quarter of devices firewall the known commercial-scanner range
  // (198.108.0.0/16 here), as real networks blocklist Shodan/Censys.
  const auto scanner_range = *ofh::util::Cidr::parse("198.108.0.0/16");
  std::size_t firewalled = 0;
  auto& population = study.population();
  for (std::uint64_t i = 0; i < population.size(); ++i) {
    if (population.address_at(i).value() % 4 == 0) {
      // Ingress filters live on real hosts, so the firewalled quarter of
      // the population materializes up front (as the eager world had it).
      population.device_at(i)->set_ingress_filter(
          [scanner_range](const ofh::net::Packet& packet) {
            return !scanner_range.contains(packet.src);
          });
      ++firewalled;
    }
  }
  std::printf("\n%zu of %llu devices firewall the known-scanner range %s\n",
              firewalled,
              static_cast<unsigned long long>(
                  study.population().total_devices()),
              scanner_range.to_string().c_str());

  std::printf("\n%-9s %-22s %-22s %s\n", "protocol", "from known scanner",
              "from university host", "coverage gap");
  for (const auto protocol : ofh::proto::scanned_protocols()) {
    const auto from_commercial = sweep_from(
        study, ofh::util::Ipv4Addr(198, 108, 66, 10), protocol);
    const auto from_university = sweep_from(
        study, ofh::util::Ipv4Addr(192, 35, 168, 10), protocol);
    const double gap =
        from_university == 0
            ? 0.0
            : 100.0 * (1.0 - static_cast<double>(from_commercial) /
                                 static_cast<double>(from_university));
    std::printf("%-9s %-22llu %-22llu %.1f%%\n",
                std::string(ofh::proto::protocol_name(protocol)).c_str(),
                static_cast<unsigned long long>(from_commercial),
                static_cast<unsigned long long>(from_university), gap);
  }
  std::printf(
      "\nThe fresh-origin scan sees every firewalled device that the\n"
      "commercial-scanner vantage misses — the paper's rationale for\n"
      "running its own ZMap scans and treating Shodan/Sonar as lower\n"
      "bounds (Table 4).\n");
  return 0;
}
