// Common types for protocol service engines: authentication configuration
// and the Service interface that devices/honeypots compose.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ofh::net {
class Host;
}

namespace ofh::proto {

struct Credentials {
  std::string user;
  std::string pass;
  auto operator<=>(const Credentials&) const = default;
};

// Authentication posture of a service. The paper's misconfiguration classes
// map onto this struct: required=false is "no auth", allow_anonymous is
// XMPP-style ANONYMOUS SASL, plaintext_only is "no encryption".
struct AuthConfig {
  bool required = true;
  bool allow_anonymous = false;
  bool plaintext_only = false;  // offers PLAIN / no TLS
  std::vector<Credentials> valid;

  bool check(std::string_view user, std::string_view pass) const {
    if (!required) return true;
    for (const auto& cred : valid) {
      if (cred.user == user && cred.pass == pass) return true;
    }
    return false;
  }

  static AuthConfig open() {
    AuthConfig config;
    config.required = false;
    return config;
  }
  static AuthConfig anonymous() {
    AuthConfig config;
    config.allow_anonymous = true;
    return config;
  }
  static AuthConfig with(std::string user, std::string pass) {
    AuthConfig config;
    config.valid.push_back({std::move(user), std::move(pass)});
    return config;
  }
};

// A protocol endpoint that can be installed on a host. Devices own a set of
// services; install() binds the listeners on the host's stacks.
class Service {
 public:
  virtual ~Service() = default;
  virtual void install(net::Host& host) = 0;
  virtual std::string_view name() const = 0;
  virtual std::uint16_t port() const = 0;
};

// The six scanned protocols plus the honeypot-side extras.
enum class Protocol : std::uint8_t {
  kTelnet,
  kMqtt,
  kCoap,
  kAmqp,
  kXmpp,
  kUpnp,
  kSsh,
  kHttp,
  kFtp,
  kSmb,
  kModbus,
  kS7,
};

std::string_view protocol_name(Protocol protocol);

// Default port(s) per protocol, a view of static storage: the scanner
// reads it once per probe and the telescope's port map is built from it.
// Telnet scans cover both 23 and 2323 (the paper's explanation for finding
// more hosts than Project Sonar).
std::span<const std::uint16_t> protocol_ports(Protocol protocol);
std::uint16_t default_port(Protocol protocol);
bool is_udp(Protocol protocol);

// The six protocols of the paper's Internet-wide scan, in scan order.
const std::vector<Protocol>& scanned_protocols();

}  // namespace ofh::proto
