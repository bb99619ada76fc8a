// Simulated network packets. The model is intentionally "TCP-lite": enough
// header state for what the reproduction measures — SYN-scanning, banner
// grabs, RST-on-closed-port, spoofed sources and telescope FlowTuple fields —
// without sequence numbers or retransmission.
#pragma once

#include <cstdint>
#include <functional>

#include "util/bytes.h"
#include "util/ipv4.h"

namespace ofh::net {

enum class Transport : std::uint8_t { kTcp, kUdp };

// TCP flag bits (subset used by the simulation).
struct TcpFlags {
  static constexpr std::uint8_t kSyn = 0x01;
  static constexpr std::uint8_t kAck = 0x02;
  static constexpr std::uint8_t kFin = 0x04;
  static constexpr std::uint8_t kRst = 0x08;
  static constexpr std::uint8_t kPsh = 0x10;
};

struct Packet {
  util::Ipv4Addr src;
  util::Ipv4Addr dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Transport transport = Transport::kTcp;
  std::uint8_t tcp_flags = 0;
  std::uint8_t ttl = 64;
  // Metadata mirrored into telescope FlowTuples (the CAIDA dataset carries
  // is_spoofed / is_masscan annotations).
  bool spoofed_src = false;
  bool from_masscan = false;
  // Set on copies created by the fault injector's duplication fault so a
  // duplicate is never duplicated again (net/faults.h). Kept with the other
  // flags so Packet stays 56 bytes and a delivery closure stays inline in
  // the event arena (Fabric::deliver_packet).
  bool fault_copy = false;
  // Causal id minted by the originating probe (obs/trace.h); 0 means
  // unattributed. Adopted from the ambient TraceContext at Fabric::send and
  // re-published while the receiving host handles the packet, so responses
  // and follow-on traffic inherit the originating probe's id.
  std::uint64_t trace_id = 0;
  util::Bytes payload;

  bool has_flag(std::uint8_t flag) const { return (tcp_flags & flag) != 0; }
  bool is_syn_only() const { return tcp_flags == TcpFlags::kSyn; }

  // On-wire size estimate used for FlowTuple byte counters.
  std::size_t wire_size() const {
    return 40 + payload.size();  // IPv4 + transport headers, no options
  }
};

// Identifies a connection from one endpoint's point of view.
struct ConnKey {
  std::uint16_t local_port = 0;
  util::Ipv4Addr remote;
  std::uint16_t remote_port = 0;

  auto operator<=>(const ConnKey&) const = default;
};

struct ConnKeyHash {
  std::size_t operator()(const ConnKey& key) const {
    const std::uint64_t mixed = (std::uint64_t{key.local_port} << 48) ^
                                (std::uint64_t{key.remote_port} << 32) ^
                                key.remote.value();
    return std::hash<std::uint64_t>{}(mixed * 0x9e3779b97f4a7c15ULL);
  }
};

}  // namespace ofh::net
