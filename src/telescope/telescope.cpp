#include "telescope/telescope.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ofh::telescope {

namespace {

// Darknet capture telemetry (Domain::kSim: the telescope runs on the main
// attack-month fabric, which is single-shard and fully deterministic).
struct TelescopeMetrics {
  obs::Counter packets = obs::counter("telescope.packets");
  obs::Counter flowtuples = obs::counter("telescope.flowtuples");
  obs::Counter spoofed = obs::counter("telescope.spoofed_packets");
  obs::Counter masscan = obs::counter("telescope.masscan_packets");
};

const TelescopeMetrics& metrics() {
  static const TelescopeMetrics m;
  return m;
}

// Below this size a source run is only compacted when read.
constexpr std::size_t kMinSourceRun = 1024;

std::vector<util::Ipv4Addr> to_addresses(
    const std::vector<std::uint32_t>& values) {
  std::vector<util::Ipv4Addr> out;
  out.reserve(values.size());
  for (const auto value : values) out.push_back(util::Ipv4Addr(value));
  return out;
}

}  // namespace

std::optional<proto::Protocol> protocol_for_port(std::uint16_t port) {
  // Destination port -> 1 + the scanned protocol it belongs to, 0 for none,
  // built once from proto::protocol_ports: one indexed load per packet.
  static const std::array<std::uint8_t, 65536> kByPort = [] {
    std::array<std::uint8_t, 65536> by_port{};
    for (const auto protocol : proto::scanned_protocols()) {
      for (const auto scanned : proto::protocol_ports(protocol)) {
        by_port[scanned] = static_cast<std::uint8_t>(
            static_cast<std::uint8_t>(protocol) + 1);
      }
    }
    return by_port;
  }();
  const std::uint8_t entry = kByPort[port];
  if (entry == 0) return std::nullopt;
  return static_cast<proto::Protocol>(entry - 1);
}

void Telescope::observe(const net::Packet& packet, sim::Time when) {
  observe_aggregate(packet, when, 1);
}

void Telescope::observe_aggregate(const net::Packet& packet, sim::Time when,
                                  std::uint64_t count) {
  if (count == 0) return;
  const auto& m = metrics();
  total_packets_ += count;
  m.packets.inc(count);
  if (packet.spoofed_src) {
    spoofed_packets_ += count;
    m.spoofed.inc(count);
  }
  if (packet.from_masscan) {
    masscan_packets_ += count;
    m.masscan.inc(count);
  }

  const std::uint64_t minute = when / sim::minutes(1);
  const TupleKey key{
      minute, packet.src.value(), packet.dst.value(),
      (std::uint32_t{packet.src_port} << 16) | packet.dst_port,
      static_cast<std::uint8_t>(packet.transport)};
  const auto protocol = protocol_for_port(packet.dst_port);
  if (2 * (tuples_.size() + 1) > index_.size()) grow_index();
  std::uint32_t& slot = index_[find_slot(key)];
  if (slot == 0) {
    m.flowtuples.inc();
    // One trace event per flowtuple (not per packet): the provenance join
    // needs the source's presence at the telescope, not its packet volume.
    obs::trace_event(
        obs::TraceEventType::kFlowTuple, when, packet.trace_id,
        packet.src.value(), packet.dst.value(), packet.dst_port, 0,
        protocol ? static_cast<std::uint8_t>(*protocol) : 0xff);
    slot = static_cast<std::uint32_t>(tuples_.size() + 1);
    auto& tuple = tuples_.emplace_back();
    tuple.minute = minute;
    tuple.src = packet.src;
    tuple.dst = packet.dst;
    tuple.src_port = packet.src_port;
    tuple.dst_port = packet.dst_port;
    tuple.transport = packet.transport;
    tuple.ttl = packet.ttl;
    tuple.tcp_flags = packet.tcp_flags;
    tuple.is_spoofed = packet.spoofed_src;
    tuple.is_masscan = packet.from_masscan;
  }
  auto& tuple = tuples_[slot - 1];
  tuple.packet_count += count;
  tuple.byte_count += count * packet.wire_size();

  if (protocol) {
    const auto index = static_cast<std::size_t>(*protocol);
    packets_by_protocol_[index] += count;
    auto& run = sources_by_protocol_[index];
    run.push_back(packet.src.value());
    if (run.size() >= 2 * std::max(compacted_[index], kMinSourceRun)) {
      compacted_sources(index);
    }
  }
}

Telescope::TupleKey Telescope::key_of(const FlowTuple& tuple) {
  return {tuple.minute, tuple.src.value(), tuple.dst.value(),
          (std::uint32_t{tuple.src_port} << 16) | tuple.dst_port,
          static_cast<std::uint8_t>(tuple.transport)};
}

std::size_t Telescope::find_slot(const TupleKey& key) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = TupleKeyHash{}(key) & mask;; i = (i + 1) & mask) {
    const std::uint32_t slot = index_[i];
    if (slot == 0 || key_of(tuples_[slot - 1]) == key) return i;
  }
}

void Telescope::grow_index() {
  // A slot stores position + 1 in 32 bits, so the index stops at 2^32
  // slots (2^31 tuples, ~100 GB of FlowTuples).
  if (index_.size() > std::numeric_limits<std::uint32_t>::max() / 2) {
    throw std::length_error("telescope: flow-tuple index is full");
  }
  index_.assign(std::max<std::size_t>(16, 2 * index_.size()), 0);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t pos = 0; pos < tuples_.size(); ++pos) {
    std::size_t i = TupleKeyHash{}(key_of(tuples_[pos])) & mask;
    while (index_[i] != 0) i = (i + 1) & mask;
    index_[i] = static_cast<std::uint32_t>(pos + 1);
  }
}

const std::vector<std::uint32_t>& Telescope::compacted_sources(
    std::size_t index) const {
  auto& run = sources_by_protocol_[index];
  auto& compacted = compacted_[index];
  if (compacted != run.size()) {
    std::sort(run.begin(), run.end());
    run.erase(std::unique(run.begin(), run.end()), run.end());
    compacted = run.size();
  }
  return run;
}

std::vector<FlowTuple> Telescope::tuples() const {
  std::vector<FlowTuple> out = tuples_;
  std::sort(out.begin(), out.end(),
            [](const FlowTuple& lhs, const FlowTuple& rhs) {
              return std::tie(lhs.minute, lhs.src, lhs.dst, lhs.src_port,
                              lhs.dst_port, lhs.transport) <
                     std::tie(rhs.minute, rhs.src, rhs.dst, rhs.src_port,
                              rhs.dst_port, rhs.transport);
            });
  return out;
}

std::uint64_t Telescope::packets_for(proto::Protocol protocol) const {
  const auto index = static_cast<std::size_t>(protocol);
  return index < kTrackedProtocols ? packets_by_protocol_[index] : 0;
}

std::uint64_t Telescope::unique_sources_for(proto::Protocol protocol) const {
  const auto index = static_cast<std::size_t>(protocol);
  return index < kTrackedProtocols ? compacted_sources(index).size() : 0;
}

std::vector<util::Ipv4Addr> Telescope::sources_for(
    proto::Protocol protocol) const {
  const auto index = static_cast<std::size_t>(protocol);
  if (index >= kTrackedProtocols) return {};
  return to_addresses(compacted_sources(index));
}

std::vector<util::Ipv4Addr> Telescope::all_sources() const {
  std::vector<std::uint32_t> all;
  std::vector<std::uint32_t> merged;
  for (std::size_t index = 0; index < kTrackedProtocols; ++index) {
    const auto& run = compacted_sources(index);
    merged.clear();
    merged.reserve(all.size() + run.size());
    std::set_union(all.begin(), all.end(), run.begin(), run.end(),
                   std::back_inserter(merged));
    all.swap(merged);
  }
  return to_addresses(all);
}

double Telescope::daily_average_for(proto::Protocol protocol,
                                    std::uint64_t capture_days) const {
  if (capture_days == 0) return 0;
  return static_cast<double>(packets_for(protocol)) /
         static_cast<double>(capture_days);
}

}  // namespace ofh::telescope
