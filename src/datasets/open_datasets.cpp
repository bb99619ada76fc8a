#include "datasets/open_datasets.h"

#include "devices/ports.h"
#include "util/rng.h"

namespace ofh::datasets {

using proto::Protocol;

CoverageModel project_sonar_model() {
  CoverageModel model;
  model.name = "Project Sonar";
  // Ratios of Table 4 (Sonar / ZMap). No AMQP or XMPP datasets.
  model.coverage = {
      {Protocol::kCoap, 438'098.0 / 618'650.0},   // 0.708
      {Protocol::kUpnp, 395'331.0 / 1'381'940.0}, // 0.286
      {Protocol::kMqtt, 3'921'585.0 / 4'842'465.0},  // 0.810
      {Protocol::kTelnet, 6'004'956.0 / 7'096'465.0},  // 0.846
  };
  model.telnet_includes_2323 = false;  // Sonar scans port 23 only
  return model;
}

CoverageModel shodan_model() {
  CoverageModel model;
  model.name = "Shodan";
  // Shodan's crawler indexes services very differently per protocol: near
  // full CoAP coverage, but networks widely blocklist its Telnet/MQTT
  // crawlers (the paper's motivation for running its own scans).
  model.coverage = {
      {Protocol::kAmqp, 18'701.0 / 34'542.0},      // 0.541
      {Protocol::kXmpp, 315'861.0 / 423'867.0},    // 0.745
      {Protocol::kCoap, 590'740.0 / 618'650.0},    // 0.955
      {Protocol::kUpnp, 433'571.0 / 1'381'940.0},  // 0.314
      {Protocol::kMqtt, 162'216.0 / 4'842'465.0},  // 0.034
      {Protocol::kTelnet, 188'291.0 / 7'096'465.0},  // 0.027
  };
  return model;
}

void DatasetSnapshot::add(DatasetEntry entry) {
  hosts_[entry.protocol].insert(entry.host.value());
  entries_.push_back(std::move(entry));
}

std::uint64_t DatasetSnapshot::unique_hosts(Protocol protocol) const {
  const auto it = hosts_.find(protocol);
  return it == hosts_.end() ? 0 : it->second.size();
}

bool DatasetSnapshot::has_protocol(Protocol protocol) const {
  return hosts_.count(protocol) != 0;
}

bool DatasetSnapshot::contains(util::Ipv4Addr host,
                               Protocol protocol) const {
  const auto it = hosts_.find(protocol);
  return it != hosts_.end() && it->second.count(host.value()) != 0;
}

DatasetSnapshot generate_snapshot(const CoverageModel& model,
                                  const devices::Population& population,
                                  std::uint64_t seed) {
  DatasetSnapshot snapshot(model.name);
  util::Rng rng = util::Rng(seed).fork("dataset:" + model.name);

  for (std::uint64_t i = 0; i < population.size(); ++i) {
    const Protocol primary = population.primary_at(i);
    const util::Ipv4Addr address = population.address_at(i);
    const auto coverage = model.coverage.find(primary);
    if (coverage == model.coverage.end()) continue;  // protocol not published

    std::uint16_t port = proto::default_port(primary);
    if (primary == Protocol::kTelnet) {
      // The device's own port (devices/ports.h); 2323 is invisible to a
      // port-23-only source such as Sonar.
      port = devices::telnet_port(address.value());
      if (port == 2323 && !model.telnet_includes_2323) continue;
    }

    // Coverage is expressed over all exposed hosts; hosts already excluded
    // by the port model count against it, so rescale the per-host draw.
    double p = coverage->second;
    if (primary == Protocol::kTelnet && !model.telnet_includes_2323) {
      p = std::min(1.0, p / (15.0 / 16.0));
    }
    if (!rng.chance(p)) continue;

    DatasetEntry entry;
    entry.host = address;
    entry.port = port;
    entry.protocol = primary;
    const devices::DeviceModel* device_model = population.model_at(i);
    entry.banner = device_model != nullptr
                       ? std::string(device_model->identifier)
                       : std::string{};
    snapshot.add(std::move(entry));
  }
  return snapshot;
}

Correlation correlate(const std::set<std::uint32_t>& our_hosts,
                      const DatasetSnapshot& snapshot,
                      Protocol protocol) {
  Correlation result;
  result.ours = our_hosts.size();
  result.theirs = snapshot.unique_hosts(protocol);
  for (const auto host : our_hosts) {
    if (snapshot.contains(util::Ipv4Addr(host), protocol)) ++result.overlap;
  }
  return result;
}

}  // namespace ofh::datasets
