#include "devices/device.h"

#include "proto/amqp.h"
#include "proto/coap.h"
#include "proto/mqtt.h"
#include "proto/ssdp.h"
#include "proto/telnet.h"
#include "proto/xmpp.h"
#include "util/rng.h"

namespace ofh::devices {

Device::Device(DeviceSpec spec) : net::Host(spec.address), spec_(std::move(spec)) {}

Device::~Device() = default;

DevicePorts Device::ports() const {
  return device_ports(spec_.primary, spec_.address.value());
}

void Device::on_attached() {
  switch (spec_.primary) {
    case proto::Protocol::kTelnet: install_telnet(); break;
    case proto::Protocol::kMqtt: install_mqtt(); break;
    case proto::Protocol::kCoap: install_coap(); break;
    case proto::Protocol::kAmqp: install_amqp(); break;
    case proto::Protocol::kXmpp: install_xmpp(); break;
    case proto::Protocol::kUpnp: install_upnp(); break;
    default: break;
  }
  for (auto& service : services_) service->install(*this);
}

void Device::install_telnet() {
  using proto::telnet::TelnetServer;
  using proto::telnet::TelnetServerConfig;

  const std::string banner =
      spec_.model != nullptr ? std::string(spec_.model->identifier) + "\r\n"
                             : "BusyBox v1.20.2 (2016-09-13) built-in shell\r\n";

  TelnetServerConfig config;
  switch (spec_.misconfig) {
    case Misconfig::kTelnetNoAuthRoot:
      config = TelnetServerConfig::open_console("root@device:~$ ", banner);
      break;
    case Misconfig::kTelnetNoAuth:
      config = TelnetServerConfig::open_console("$ ", banner);
      break;
    default: {
      proto::AuthConfig auth;
      auth.valid.push_back(spec_.weak_credentials
                               ? proto::Credentials{"admin", "admin"}
                               : spec_.credentials);
      config = TelnetServerConfig::login_console(banner, std::move(auth));
      config.shell_prompt = "$ ";
      break;
    }
  }
  // A camera's console and a modem's console answer a couple of common
  // commands; bots use these for fingerprinting before dropping payloads.
  config.command_responses = {
      {"cat /proc/cpuinfo", "Processor : ARMv7\r\n"},
      {"uname", "Linux device 3.10.0 armv7l\r\n"},
      {"busybox", "BusyBox v1.20.2 multi-call binary.\r\n"},
  };
  config.port = ports().tcp[0];
  services_.push_back(std::make_unique<TelnetServer>(std::move(config)));
}

void Device::install_mqtt() {
  using proto::mqtt::Broker;
  using proto::mqtt::BrokerConfig;

  BrokerConfig config;
  if (spec_.misconfig == Misconfig::kMqttNoAuth) {
    config.auth = proto::AuthConfig::open();
  } else {
    config.auth.valid.push_back(spec_.weak_credentials
                                    ? proto::Credentials{"admin", "admin"}
                                    : spec_.credentials);
  }
  if (spec_.model != nullptr) {
    // Retained telemetry under the model's characteristic topic prefix.
    config.retained.push_back(
        {std::string(spec_.model->identifier) + "state", "online"});
    config.retained.push_back(
        {std::string(spec_.model->identifier) + "telemetry", "23.5"});
  } else {
    config.retained.push_back({"devices/generic/uptime", "3600"});
  }
  config.port = ports().tcp[0];
  services_.push_back(std::make_unique<Broker>(std::move(config)));
}

void Device::install_coap() {
  using proto::coap::CoapServer;
  using proto::coap::CoapServerConfig;
  using proto::coap::Resource;

  CoapServerConfig config;
  switch (spec_.misconfig) {
    case Misconfig::kCoapAdminAccess:
      config.open_access = true;
      config.resources.push_back(
          Resource{"admin", "core.admin", "220-Admin", true});
      break;
    case Misconfig::kCoapNoAuth:
      config.open_access = true;
      break;
    case Misconfig::kCoapReflector:
      // Discovery is open (the reflection resource) but resources are
      // protected: only the /.well-known/core response leaks.
      config.open_access = false;
      config.discovery_padding = 512;  // verbose resource table
      break;
    default:
      config.open_access = false;
      config.expose_discovery = false;
      break;
  }
  if (spec_.model != nullptr) {
    config.resources.push_back(Resource{
        std::string(spec_.model->identifier), "core.rd", "ack", false});
  }
  config.resources.push_back(Resource{"sensors/temp", "ucum:Cel", "21.3", true});
  config.resources.push_back(Resource{"sensors/state", "core.s", "x1C", true});
  config.port = ports().udp;
  services_.push_back(std::make_unique<CoapServer>(std::move(config)));
}

void Device::install_amqp() {
  using proto::amqp::AmqpBroker;
  using proto::amqp::AmqpBrokerConfig;

  AmqpBrokerConfig config;
  if (spec_.misconfig == Misconfig::kAmqpNoAuth) {
    config.auth = proto::AuthConfig::open();
    // The paper ties the "No auth" AMQP finding to CVE-affected versions.
    config.version = (spec_.address.value() % 2) == 0 ? "2.7.1" : "2.8.4";
  } else {
    config.version = "3.8.9";
    config.auth.valid.push_back(spec_.weak_credentials
                                    ? proto::Credentials{"guest", "guest"}
                                    : spec_.credentials);
  }
  config.queues.push_back({"telemetry", {"reading=ok"}});
  config.port = ports().tcp[0];
  services_.push_back(std::make_unique<AmqpBroker>(std::move(config)));
}

void Device::install_xmpp() {
  using proto::xmpp::XmppServer;
  using proto::xmpp::XmppServerConfig;

  XmppServerConfig config;
  switch (spec_.misconfig) {
    case Misconfig::kXmppAnonymous:
      config.auth = proto::AuthConfig::anonymous();
      break;
    case Misconfig::kXmppPlaintext:
      config.auth.plaintext_only = true;
      config.auth.valid.push_back(spec_.credentials);
      config.starttls_required = false;
      break;
    default:
      config.auth.valid.push_back(spec_.credentials);
      config.starttls_required = true;
      break;
  }
  config.client_port = ports().tcp[0];
  config.server_port = ports().tcp[1];
  services_.push_back(std::make_unique<XmppServer>(std::move(config)));
}

void Device::install_upnp() {
  using proto::ssdp::UpnpDevice;
  using proto::ssdp::UpnpDeviceConfig;

  UpnpDeviceConfig config;
  // All exposed UPnP devices answer; only misconfigured ones disclose the
  // identifying headers and amplify (Table 4 exposed vs Table 5 reflector).
  config.respond_to_any = true;
  config.disclose_details = spec_.misconfig == Misconfig::kUpnpReflector;
  // Derive a stable per-device uuid from the address.
  const std::uint64_t mix = util::splitmix64(spec_.address.value());
  char uuid[40];
  std::snprintf(uuid, sizeof(uuid), "%08x-1a2c-4546-ac5d-%012llx",
                static_cast<unsigned>(mix >> 32),
                static_cast<unsigned long long>(mix & 0xffffffffffffULL));
  config.uuid = uuid;
  if (spec_.model != nullptr) {
    const std::string identifier(spec_.model->identifier);
    // Table 11 identifiers are header fragments like "Model Name: H108N";
    // split them back into the corresponding SSDP fields.
    const auto colon = identifier.find(": ");
    if (identifier.starts_with("Server:")) {
      config.server = identifier.substr(colon + 2);
    } else if (identifier.starts_with("Friendly Name:")) {
      config.friendly_name = identifier.substr(colon + 2);
    } else if (identifier.starts_with("Model Name:") ||
               identifier.starts_with("Model Number:") ||
               identifier.starts_with("Model Description:")) {
      config.model_name = identifier.substr(colon + 2);
    } else if (identifier.starts_with("Manufacturer:")) {
      config.manufacturer = identifier.substr(colon + 2);
    } else {
      config.friendly_name = identifier;
    }
  }
  config.responses_per_search = 3;  // root device + embedded device + service
  config.port = ports().udp;
  services_.push_back(std::make_unique<UpnpDevice>(std::move(config)));
}

}  // namespace ofh::devices
