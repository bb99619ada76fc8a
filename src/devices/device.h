// A simulated IoT device: a host whose services are derived from a spec
// (model, protocol, misconfiguration, credentials). The banners/responses a
// device emits come from the Table 11 model registry, so the scanner and
// classifier face realistic wire data rather than ground-truth labels.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "devices/misconfig.h"
#include "devices/models.h"
#include "devices/ports.h"
#include "net/host.h"
#include "proto/service.h"

namespace ofh::devices {

struct DeviceSpec {
  util::Ipv4Addr address;
  const DeviceModel* model = nullptr;  // nullptr => generic/unidentified
  std::string device_type = "Unidentified";
  std::string country = "Other";
  std::uint32_t asn = 0;
  proto::Protocol primary = proto::Protocol::kTelnet;
  Misconfig misconfig = Misconfig::kNone;
  // Correctly-configured devices still often ship weak/default credentials;
  // these are what Mirai-style bots brute-force (Table 12).
  bool weak_credentials = false;
  proto::Credentials credentials{"admin", "S3cure!pass"};
  // Marked devices run bot behaviour (the infected population of §5.3).
  bool infected = false;
};

class Device : public net::Host {
 public:
  explicit Device(DeviceSpec spec);
  ~Device() override;

  const DeviceSpec& spec() const { return spec_; }
  bool misconfigured() const { return spec_.misconfig != Misconfig::kNone; }

 protected:
  void on_attached() override;

 private:
  void install_telnet();
  void install_mqtt();
  void install_coap();
  void install_amqp();
  void install_xmpp();
  void install_upnp();
  // This device's row of the port table (devices/ports.h).
  DevicePorts ports() const;

  DeviceSpec spec_;
  std::vector<std::unique_ptr<proto::Service>> services_;
};

}  // namespace ofh::devices
