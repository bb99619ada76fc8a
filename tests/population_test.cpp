// Lazy-population tests: the struct-of-arrays columns and the
// LazyHostSource contract. The load-bearing guard here is the drift check:
// Population::classify() *predicts* what a device's stacks would do with a
// packet, and that prediction must agree with the services
// Device::on_attached() actually installs — for every protocol, misconfig
// and port — or the lazy world silently diverges from the eager one.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "devices/device.h"
#include "devices/population.h"
#include "devices/ports.h"
#include "test_helpers.h"

namespace ofh::devices {
namespace {

using test::PlainHost;
using test::SimTest;
using util::Ipv4Addr;
using Verdict = net::LazyHostSource::Verdict;

net::Packet tcp_syn(Ipv4Addr dst, std::uint16_t port) {
  net::Packet packet;
  packet.src = Ipv4Addr(9, 9, 9, 9);
  packet.dst = dst;
  packet.src_port = 40'000;
  packet.dst_port = port;
  packet.transport = net::Transport::kTcp;
  packet.tcp_flags = net::TcpFlags::kSyn;
  return packet;
}

net::Packet udp_probe(Ipv4Addr dst, std::uint16_t port) {
  net::Packet packet;
  packet.src = Ipv4Addr(9, 9, 9, 9);
  packet.dst = dst;
  packet.src_port = 40'000;
  packet.dst_port = port;
  packet.transport = net::Transport::kUdp;
  return packet;
}

class PopulationLazy : public SimTest {
 protected:
  PopulationLazy() {
    PopulationSpec spec;
    spec.seed = 7;
    spec.scale = 1.0 / 8'192;
    population_ = std::make_unique<Population>(spec);
    population_->build();
    population_->attach_all(fabric_);
  }

  std::unique_ptr<Population> population_;
};

TEST_F(PopulationLazy, ClassifyPredictionMatchesMaterializedStacks) {
  // Every port the table (devices/ports.h) names for any protocol, probed
  // over both transports so each also serves as a closed control for the
  // other, plus ports no device serves.
  std::set<std::uint16_t> ports = {80, 443, 4711};
  for (const auto protocol : proto::scanned_protocols()) {
    for (const std::uint32_t addr : {0u, 1u}) {  // Telnet: 2323, then 23
      const DevicePorts row = device_ports(protocol, addr);
      for (const auto port : row.tcp) {
        if (port != 0) ports.insert(port);
      }
      if (row.udp != 0) ports.insert(row.udp);
    }
  }

  for (std::uint64_t i = 0; i < population_->size(); ++i) {
    const Ipv4Addr addr = population_->address_at(i);
    if (*population_->index_of(addr) != i) continue;  // duplicate address

    // Predict first: classify() only answers for unmaterialized rows.
    std::vector<std::pair<Verdict, Verdict>> predicted;  // (tcp, udp)
    for (const auto port : ports) {
      predicted.emplace_back(population_->classify(tcp_syn(addr, port)),
                             population_->classify(udp_probe(addr, port)));
    }

    // Then materialize the real device and compare against its stacks.
    Device* device = population_->device_at(i);
    ASSERT_NE(device, nullptr);
    auto verdict = predicted.begin();
    for (const auto port : ports) {
      const auto [tcp, udp] = *verdict++;
      EXPECT_EQ(tcp, device->tcp().listening(port) ? Verdict::kMaterialize
                                                   : Verdict::kReset)
          << addr.to_string() << " tcp port " << port;
      EXPECT_EQ(udp, device->udp().bound(port) ? Verdict::kMaterialize
                                               : Verdict::kConsume)
          << addr.to_string() << " udp port " << port;
    }
  }
}

TEST_F(PopulationLazy, NonSynTcpSegmentsAreConsumedWithoutMaterializing) {
  const Ipv4Addr addr = population_->address_at(0);
  auto packet = tcp_syn(addr, 23);
  packet.tcp_flags = net::TcpFlags::kAck;
  EXPECT_EQ(population_->classify(packet), Verdict::kConsume);
  packet.tcp_flags = net::TcpFlags::kSyn | net::TcpFlags::kAck;
  EXPECT_EQ(population_->classify(packet), Verdict::kConsume);
  packet.tcp_flags = net::TcpFlags::kRst;
  EXPECT_EQ(population_->classify(packet), Verdict::kConsume);
}

TEST_F(PopulationLazy, UnownedAddressIsNotClaimed) {
  EXPECT_EQ(population_->classify(tcp_syn(Ipv4Addr(203, 0, 113, 1), 23)),
            Verdict::kNotOwned);
}

TEST_F(PopulationLazy, ClosedPortSynIsRefusedWithoutMaterializing) {
  const auto before = population_->materialized_count();
  // No device listens on 4444; the fabric answers the SYN with a RST on
  // the row's behalf and the Device object is never built.
  PlainHost client(Ipv4Addr(9, 8, 7, 6));
  client.attach(fabric_);
  bool called = false;
  net::TcpConnection* result = nullptr;
  client.tcp().connect(population_->address_at(0), 4444,
                       [&](net::TcpConnection* conn) {
                         called = true;
                         result = conn;
                       });
  run();
  EXPECT_TRUE(called);
  EXPECT_EQ(result, nullptr);
  EXPECT_EQ(population_->materialized_count(), before);
}

TEST_F(PopulationLazy, OpenPortSynMaterializesAndCompletesHandshake) {
  // Find a canonical Telnet row; its listener port depends on the address
  // (devices/ports.h: every 16th device listens on 2323 instead of 23).
  std::uint64_t row = population_->size();
  for (std::uint64_t i = 0; i < population_->size(); ++i) {
    if (population_->primary_at(i) != proto::Protocol::kTelnet) continue;
    if (population_->materialized_at(i) != nullptr) continue;
    if (*population_->index_of(population_->address_at(i)) != i) continue;
    row = i;
    break;
  }
  ASSERT_LT(row, population_->size());
  const Ipv4Addr addr = population_->address_at(row);
  const std::uint16_t port = telnet_port(addr.value());

  const auto before = population_->materialized_count();
  PlainHost client(Ipv4Addr(9, 8, 7, 5));
  client.attach(fabric_);
  bool connected = false;
  client.tcp().connect(addr, port, [&](net::TcpConnection* conn) {
    connected = conn != nullptr;
  });
  run();
  EXPECT_TRUE(connected);
  EXPECT_EQ(population_->materialized_count(), before + 1);
  EXPECT_NE(population_->materialized_at(row), nullptr);
}

TEST_F(PopulationLazy, DetachedMaterializedRowStopsAnswering) {
  Device* device = population_->device_at(3);
  ASSERT_TRUE(device->attached());
  device->detach();
  EXPECT_EQ(population_->classify(tcp_syn(population_->address_at(3), 23)),
            Verdict::kNotOwned);
}

TEST_F(PopulationLazy, SpecRoundTripMatchesColumns) {
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(
                                    population_->size(), 64);
       ++i) {
    const DeviceSpec spec = population_->spec_at(i);
    EXPECT_EQ(spec.address, population_->address_at(i));
    EXPECT_EQ(spec.primary, population_->primary_at(i));
    EXPECT_EQ(spec.misconfig, population_->misconfig_at(i));
    EXPECT_EQ(spec.weak_credentials, population_->weak_credentials_at(i));
    EXPECT_EQ(spec.model, population_->model_at(i));
  }
}

}  // namespace
}  // namespace ofh::devices
