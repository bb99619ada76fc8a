#include "proto/service.h"

namespace ofh::proto {

std::string_view protocol_name(Protocol protocol) {
  switch (protocol) {
    case Protocol::kTelnet: return "Telnet";
    case Protocol::kMqtt: return "MQTT";
    case Protocol::kCoap: return "CoAP";
    case Protocol::kAmqp: return "AMQP";
    case Protocol::kXmpp: return "XMPP";
    case Protocol::kUpnp: return "UPnP";
    case Protocol::kSsh: return "SSH";
    case Protocol::kHttp: return "HTTP";
    case Protocol::kFtp: return "FTP";
    case Protocol::kSmb: return "SMB";
    case Protocol::kModbus: return "Modbus";
    case Protocol::kS7: return "S7";
  }
  return "?";
}

std::span<const std::uint16_t> protocol_ports(Protocol protocol) {
  static constexpr std::uint16_t kTelnet[] = {23, 2323};
  static constexpr std::uint16_t kMqtt[] = {1883};
  static constexpr std::uint16_t kCoap[] = {5683};
  static constexpr std::uint16_t kAmqp[] = {5672};
  static constexpr std::uint16_t kXmpp[] = {5222, 5269};
  static constexpr std::uint16_t kUpnp[] = {1900};
  static constexpr std::uint16_t kSsh[] = {22};
  static constexpr std::uint16_t kHttp[] = {80};
  static constexpr std::uint16_t kFtp[] = {21};
  static constexpr std::uint16_t kSmb[] = {445};
  static constexpr std::uint16_t kModbus[] = {502};
  static constexpr std::uint16_t kS7[] = {102};
  switch (protocol) {
    case Protocol::kTelnet: return kTelnet;
    case Protocol::kMqtt: return kMqtt;
    case Protocol::kCoap: return kCoap;
    case Protocol::kAmqp: return kAmqp;
    case Protocol::kXmpp: return kXmpp;
    case Protocol::kUpnp: return kUpnp;
    case Protocol::kSsh: return kSsh;
    case Protocol::kHttp: return kHttp;
    case Protocol::kFtp: return kFtp;
    case Protocol::kSmb: return kSmb;
    case Protocol::kModbus: return kModbus;
    case Protocol::kS7: return kS7;
  }
  return {};
}

std::uint16_t default_port(Protocol protocol) {
  return protocol_ports(protocol).front();
}

bool is_udp(Protocol protocol) {
  return protocol == Protocol::kCoap || protocol == Protocol::kUpnp;
}

const std::vector<Protocol>& scanned_protocols() {
  static const std::vector<Protocol> kScanned = {
      Protocol::kCoap, Protocol::kUpnp, Protocol::kTelnet,
      Protocol::kMqtt, Protocol::kAmqp, Protocol::kXmpp};
  return kScanned;
}

}  // namespace ofh::proto
