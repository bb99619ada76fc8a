// FlowTuple records, mirroring the schema of the CAIDA STARDUST FlowTuple
// data the paper analyzes: source/destination, ports, protocol, TTL, TCP
// flags, packet/byte counters, and the is_spoofed / is_masscan annotations.
// Tuples are aggregated per minute bucket, matching the per-minute files of
// the real dataset.
#pragma once

#include <cstdint>
#include <string>

#include "net/packet.h"
#include "proto/service.h"
#include "sim/time.h"
#include "util/ipv4.h"

namespace ofh::telescope {

struct FlowTuple {
  std::uint64_t minute = 0;  // minute bucket since capture start
  util::Ipv4Addr src;
  util::Ipv4Addr dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  net::Transport transport = net::Transport::kTcp;
  std::uint8_t ttl = 0;
  std::uint8_t tcp_flags = 0;
  // 64-bit: the paper's telescope absorbs 2.7B requests/day (Table 8), so
  // a month-long tuple at full scale wraps 32 bits.
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  bool is_spoofed = false;
  bool is_masscan = false;
};

// Maps a destination port to the IoT protocol the paper tracks, if any: the
// ports proto::protocol_ports lists for the six scanned protocols.
std::optional<proto::Protocol> protocol_for_port(std::uint16_t port);

}  // namespace ofh::telescope
