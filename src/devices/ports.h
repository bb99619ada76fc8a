// The ports a device serves, per primary protocol: the one table both
// Device::install_* (which binds them) and Population::classify (which
// predicts them for rows that are not materialized) read. A prediction
// that disagrees with the real stacks changes scan results, so neither
// side restates a port; tests/population_test.cpp checks the predictions
// against materialized devices.
#pragma once

#include <array>
#include <cstdint>

#include "proto/service.h"

namespace ofh::devices {

struct DevicePorts {
  std::array<std::uint16_t, 2> tcp{};  // listeners; 0 = unused slot
  std::uint16_t udp = 0;               // binding; 0 = none

  bool listens_tcp(std::uint16_t port) const {
    return port != 0 && (port == tcp[0] || port == tcp[1]);
  }
  bool binds_udp(std::uint16_t port) const {
    return port != 0 && port == udp;
  }
};

// Every 16th address runs its Telnet console on 2323 instead of 23: the
// paper's explanation for its ZMap scan (23 + 2323) finding more Telnet
// hosts than Project Sonar (23 only).
inline std::uint16_t telnet_port(std::uint32_t addr) {
  return addr % 16 == 0 ? 2323 : 23;
}

// Inline: Population::classify runs this for every probe of the scan.
inline DevicePorts device_ports(proto::Protocol protocol, std::uint32_t addr) {
  using P = proto::Protocol;
  switch (protocol) {
    case P::kTelnet: return {{telnet_port(addr), 0}, 0};
    case P::kMqtt: return {{1883, 0}, 0};
    case P::kAmqp: return {{5672, 0}, 0};
    case P::kXmpp: return {{5222, 5269}, 0};  // client + server-to-server
    case P::kCoap: return {{}, 5683};
    case P::kUpnp: return {{}, 1900};
    default: return {};
  }
}

}  // namespace ofh::devices
