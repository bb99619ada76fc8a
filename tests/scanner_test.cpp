// Scanner engine tests: permutation properties, sweep completeness, banner
// collection per protocol, blocklists and UDP probing.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "devices/device.h"
#include "honeynet/honeypot.h"
#include "net/faults.h"
#include "scanner/permutation.h"
#include "scanner/scanner.h"
#include "test_helpers.h"

namespace ofh::scanner {
namespace {

using test::SimTest;
using util::Ipv4Addr;

// ------------------------------------------------------------- permutation

class PermutationSize : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PermutationSize, VisitsEveryIndexExactlyOnce) {
  const std::uint64_t size = GetParam();
  AddressPermutation permutation(size, 1234);
  std::set<std::uint64_t> seen;
  while (const auto index = permutation.next()) {
    EXPECT_LT(*index, size);
    EXPECT_TRUE(seen.insert(*index).second) << "duplicate " << *index;
  }
  EXPECT_EQ(seen.size(), size);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PermutationSize,
                         ::testing::Values(1, 2, 3, 7, 64, 100, 1023, 1024,
                                           1025, 40'000));

TEST(Permutation, EveryTinySizeIsFullPeriodForEverySeedShape) {
  // Exhaustive 1..64 sweep: the degenerate-parameter hardening widens tiny
  // cycles to 64 states; each (size, seed) must still visit every index
  // exactly once, including seed 0 and all-ones.
  const std::uint64_t seeds[] = {0, 1, 42, 0xffffffffffffffffull};
  for (std::uint64_t size = 1; size <= 64; ++size) {
    for (const auto seed : seeds) {
      AddressPermutation permutation(size, seed);
      std::set<std::uint64_t> seen;
      while (const auto index = permutation.next()) {
        ASSERT_LT(*index, size);
        ASSERT_TRUE(seen.insert(*index).second)
            << "size " << size << " seed " << seed << " repeats " << *index;
      }
      ASSERT_EQ(seen.size(), size) << "size " << size << " seed " << seed;
    }
  }
}

TEST(Permutation, TinySizesAreNotIncrementWalks) {
  // The pre-hardening bug: with modulus <= 4 the derived multiplier
  // collapsed to 1 and the "permutation" was a pure +1 walk. At 64 states
  // no value is rejected, so any increment pattern would be fully visible.
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    AddressPermutation permutation(64, seed);
    int increments = 0;
    auto previous = *permutation.next();
    for (int i = 1; i < 64; ++i) {
      const auto current = *permutation.next();
      if (current == (previous + 1) % 64) ++increments;
      previous = current;
    }
    EXPECT_LT(increments, 32) << "seed " << seed << " walks by increments";
  }
}

TEST(Permutation, NearFullAddressSpaceSizeStaysInRangeAndDistinct) {
  // A /0-scale sweep: size just under 2^32 forces the widest modulus.
  // Enumerating the cycle is infeasible; check a long prefix for range and
  // distinctness instead.
  const std::uint64_t size = (std::uint64_t{1} << 32) - 5;
  AddressPermutation permutation(size, 77);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100'000; ++i) {
    const auto index = permutation.next();
    ASSERT_TRUE(index.has_value());
    ASSERT_LT(*index, size);
    ASSERT_TRUE(seen.insert(*index).second) << "repeat " << *index;
  }
}

TEST(Permutation, DifferentSeedsGiveDifferentOrders) {
  AddressPermutation a(1000, 1), b(1000, 2);
  int same_position = 0;
  for (int i = 0; i < 1000; ++i) {
    if (*a.next() == *b.next()) ++same_position;
  }
  EXPECT_LT(same_position, 50);
}

TEST(Permutation, OrderIsDecorrelatedFromIndexOrder) {
  AddressPermutation permutation(10'000, 99);
  // Count ascending adjacent pairs; a sequential sweep would have ~100%.
  int ascending = 0;
  auto previous = *permutation.next();
  for (int i = 1; i < 10'000; ++i) {
    const auto current = *permutation.next();
    if (current == previous + 1) ++ascending;
    previous = current;
  }
  EXPECT_LT(ascending, 100);
}

TEST(Permutation, SameSeedIsReproducible) {
  AddressPermutation a(5'000, 7), b(5'000, 7);
  for (int i = 0; i < 5'000; ++i) EXPECT_EQ(*a.next(), *b.next());
}

// ------------------------------------------------------------------ scan db

TEST(ScanDb, TracksUniqueHostsPerProtocol) {
  ScanDb db;
  db.add({Ipv4Addr(1, 2, 3, 4), 23, proto::Protocol::kTelnet, "x", 0});
  db.add({Ipv4Addr(1, 2, 3, 4), 2323, proto::Protocol::kTelnet, "y", 0});
  db.add({Ipv4Addr(1, 2, 3, 5), 23, proto::Protocol::kTelnet, "z", 0});
  db.add({Ipv4Addr(1, 2, 3, 4), 1883, proto::Protocol::kMqtt, "m", 0});
  EXPECT_EQ(db.unique_hosts(proto::Protocol::kTelnet), 2u);
  EXPECT_EQ(db.unique_hosts(proto::Protocol::kMqtt), 1u);
  EXPECT_EQ(db.unique_hosts(proto::Protocol::kCoap), 0u);
  EXPECT_EQ(db.unique_hosts_total(), 2u);
  EXPECT_EQ(db.for_protocol(proto::Protocol::kTelnet).size(), 3u);
}

// -------------------------------------------------------------- full sweeps

class ScannerTest : public SimTest {
 protected:
  ScannerTest() : scanner_(Ipv4Addr(9, 9, 9, 9), db_) {
    scanner_.attach(fabric_);
  }

  // Runs one sweep over the given /24 and returns when complete.
  void sweep(proto::Protocol protocol, util::Cidr target,
             std::vector<util::Cidr> blocklist = {}) {
    ScanConfig config;
    config.protocol = protocol;
    config.targets = {target};
    config.blocklist = std::move(blocklist);
    config.batch_size = 64;
    bool done = false;
    scanner_.start(config, [&done] { done = true; });
    while (!done && sim_.step()) {
    }
    EXPECT_TRUE(done);
  }

  devices::DeviceSpec make_spec(Ipv4Addr addr, proto::Protocol protocol,
                                devices::Misconfig misconfig) {
    devices::DeviceSpec spec;
    spec.address = addr;
    spec.primary = protocol;
    spec.misconfig = misconfig;
    return spec;
  }

  ScanDb db_;
  Scanner scanner_;
};

TEST_F(ScannerTest, FindsOpenTelnetConsoleBanner) {
  devices::Device device(make_spec(Ipv4Addr(10, 1, 0, 33),
                                   proto::Protocol::kTelnet,
                                   devices::Misconfig::kTelnetNoAuthRoot));
  device.attach(fabric_);
  sweep(proto::Protocol::kTelnet, *util::Cidr::parse("10.1.0.0/24"));

  EXPECT_EQ(db_.unique_hosts(proto::Protocol::kTelnet), 1u);
  const auto records = db_.for_protocol(proto::Protocol::kTelnet);
  ASSERT_FALSE(records.empty());
  EXPECT_NE(records[0]->banner.find("root@"), std::string::npos);
}

TEST_F(ScannerTest, MissesNothingInPopulatedRange) {
  std::vector<std::unique_ptr<devices::Device>> devices;
  for (int i = 1; i <= 40; ++i) {
    devices.push_back(std::make_unique<devices::Device>(
        make_spec(Ipv4Addr(10, 2, 0, static_cast<std::uint8_t>(i)),
                  proto::Protocol::kMqtt, devices::Misconfig::kMqttNoAuth)));
    devices.back()->attach(fabric_);
  }
  sweep(proto::Protocol::kMqtt, *util::Cidr::parse("10.2.0.0/24"));
  EXPECT_EQ(db_.unique_hosts(proto::Protocol::kMqtt), 40u);
}

TEST_F(ScannerTest, MqttBannerCarriesConnectCode) {
  devices::Device open_device(make_spec(Ipv4Addr(10, 3, 0, 1),
                                        proto::Protocol::kMqtt,
                                        devices::Misconfig::kMqttNoAuth));
  devices::Device closed_device(make_spec(Ipv4Addr(10, 3, 0, 2),
                                          proto::Protocol::kMqtt,
                                          devices::Misconfig::kNone));
  open_device.attach(fabric_);
  closed_device.attach(fabric_);
  sweep(proto::Protocol::kMqtt, *util::Cidr::parse("10.3.0.0/24"));

  bool saw_open = false, saw_denied = false;
  for (const auto* record : db_.for_protocol(proto::Protocol::kMqtt)) {
    if (record->banner.find("MQTT Connection Code:0") != std::string::npos) {
      saw_open = true;
    }
    if (record->banner.find("MQTT Connection Code:5") != std::string::npos) {
      saw_denied = true;
    }
  }
  EXPECT_TRUE(saw_open);
  EXPECT_TRUE(saw_denied);
}

TEST_F(ScannerTest, AmqpBannerCarriesVersionAndMechanisms) {
  devices::Device device(make_spec(Ipv4Addr(10, 4, 0, 2),
                                   proto::Protocol::kAmqp,
                                   devices::Misconfig::kAmqpNoAuth));
  device.attach(fabric_);
  sweep(proto::Protocol::kAmqp, *util::Cidr::parse("10.4.0.0/24"));
  const auto records = db_.for_protocol(proto::Protocol::kAmqp);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NE(records[0]->banner.find("Version: 2.7.1"), std::string::npos);
  EXPECT_NE(records[0]->banner.find("ANONYMOUS"), std::string::npos);
}

TEST_F(ScannerTest, CoapProbeDisclosesResourcesAndAccessLevel) {
  devices::Device reflector(make_spec(Ipv4Addr(10, 5, 0, 1),
                                      proto::Protocol::kCoap,
                                      devices::Misconfig::kCoapReflector));
  devices::Device open_device(make_spec(Ipv4Addr(10, 5, 0, 2),
                                        proto::Protocol::kCoap,
                                        devices::Misconfig::kCoapNoAuth));
  devices::Device hardened(make_spec(Ipv4Addr(10, 5, 0, 3),
                                     proto::Protocol::kCoap,
                                     devices::Misconfig::kNone));
  reflector.attach(fabric_);
  open_device.attach(fabric_);
  hardened.attach(fabric_);
  sweep(proto::Protocol::kCoap, *util::Cidr::parse("10.5.0.0/24"));

  ASSERT_EQ(db_.unique_hosts(proto::Protocol::kCoap), 3u);
  std::string reflector_banner, open_banner, hardened_banner;
  for (const auto* record : db_.for_protocol(proto::Protocol::kCoap)) {
    if (record->host == reflector.address()) reflector_banner = record->banner;
    if (record->host == open_device.address()) open_banner = record->banner;
    if (record->host == hardened.address()) hardened_banner = record->banner;
  }
  EXPECT_NE(reflector_banner.find("CoAP Resources"), std::string::npos);
  EXPECT_EQ(reflector_banner.find("x1C"), std::string::npos);  // locked down
  EXPECT_NE(open_banner.find("x1C"), std::string::npos);       // full access
  EXPECT_NE(hardened_banner.find("4.01"), std::string::npos);
}

TEST_F(ScannerTest, UpnpProbeRecordsHttpuResponse) {
  devices::DeviceSpec spec = make_spec(Ipv4Addr(10, 6, 0, 7),
                                       proto::Protocol::kUpnp,
                                       devices::Misconfig::kUpnpReflector);
  spec.model = devices::models_for(proto::Protocol::kUpnp).front();
  devices::Device device(std::move(spec));
  device.attach(fabric_);
  sweep(proto::Protocol::kUpnp, *util::Cidr::parse("10.6.0.0/24"));
  const auto records = db_.for_protocol(proto::Protocol::kUpnp);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NE(records[0]->banner.find("USN:"), std::string::npos);
  EXPECT_NE(records[0]->banner.find("LOCATION:"), std::string::npos);
}

TEST_F(ScannerTest, BlocklistIsNeverProbed) {
  devices::Device device(make_spec(Ipv4Addr(10, 7, 0, 1),
                                   proto::Protocol::kTelnet,
                                   devices::Misconfig::kTelnetNoAuth));
  device.attach(fabric_);
  sweep(proto::Protocol::kTelnet, *util::Cidr::parse("10.7.0.0/24"),
        {*util::Cidr::parse("10.7.0.0/24")});
  EXPECT_EQ(db_.unique_hosts(proto::Protocol::kTelnet), 0u);
}

TEST_F(ScannerTest, DefaultBlocklistCoversReservedRanges) {
  const auto blocklist = default_blocklist();
  const auto blocked = [&blocklist](const char* addr) {
    for (const auto& range : blocklist) {
      if (range.contains(*Ipv4Addr::parse(addr))) return true;
    }
    return false;
  };
  EXPECT_TRUE(blocked("10.1.2.3"));
  EXPECT_TRUE(blocked("127.0.0.1"));
  EXPECT_TRUE(blocked("192.168.1.1"));
  EXPECT_TRUE(blocked("224.0.0.1"));
  EXPECT_TRUE(blocked("100.64.0.1"));
  EXPECT_FALSE(blocked("8.8.8.8"));
  EXPECT_FALSE(blocked("44.0.0.1"));
}

TEST_F(ScannerTest, TelnetSweepCoversBothPorts) {
  // A device on the alternate port 2323 (address % 16 == 0).
  devices::Device alt(make_spec(Ipv4Addr(10, 8, 0, 16),
                                proto::Protocol::kTelnet,
                                devices::Misconfig::kTelnetNoAuth));
  alt.attach(fabric_);
  ASSERT_TRUE(alt.tcp().listening(2323));
  sweep(proto::Protocol::kTelnet, *util::Cidr::parse("10.8.0.0/24"));
  const auto records = db_.for_protocol(proto::Protocol::kTelnet);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0]->port, 2323);
}

TEST_F(ScannerTest, WildHoneypotBannerIsCapturedVerbatim) {
  honeynet::WildHoneypot honeypot(honeynet::honeypot_signatures()[1],  // Cowrie
                                  Ipv4Addr(10, 9, 0, 5));
  honeypot.attach(fabric_);
  sweep(proto::Protocol::kTelnet, *util::Cidr::parse("10.9.0.0/24"));
  const auto records = db_.for_protocol(proto::Protocol::kTelnet);
  ASSERT_EQ(records.size(), 1u);
  // Raw IAC bytes preserved: \xff\xfd\x1f prefix.
  ASSERT_GE(records[0]->banner.size(), 3u);
  EXPECT_EQ(static_cast<std::uint8_t>(records[0]->banner[0]), 0xff);
  EXPECT_EQ(static_cast<std::uint8_t>(records[0]->banner[1]), 0xfd);
  EXPECT_EQ(static_cast<std::uint8_t>(records[0]->banner[2]), 0x1f);
}

TEST_F(ScannerTest, ConcurrentUdpSweepsBindDistinctSourcePorts) {
  // Regression: two concurrent UDP sweeps whose seeds are equal mod 10'000
  // used to bind the same source port — the second bind() silently replaced
  // the first sweep's response handler (losing every CoAP response), and
  // whichever sweep finished first unbound the other's live handler.
  devices::Device coap_device(make_spec(Ipv4Addr(10, 20, 0, 2),
                                        proto::Protocol::kCoap,
                                        devices::Misconfig::kCoapNoAuth));
  devices::DeviceSpec upnp_spec = make_spec(Ipv4Addr(10, 21, 0, 3),
                                            proto::Protocol::kUpnp,
                                            devices::Misconfig::kUpnpReflector);
  upnp_spec.model = devices::models_for(proto::Protocol::kUpnp).front();
  devices::Device upnp_device(std::move(upnp_spec));
  coap_device.attach(fabric_);
  upnp_device.attach(fabric_);

  ScanConfig coap;
  coap.protocol = proto::Protocol::kCoap;
  coap.targets = {*util::Cidr::parse("10.20.0.0/24")};
  coap.seed = 1;
  coap.batch_size = 64;
  ScanConfig upnp = coap;
  upnp.protocol = proto::Protocol::kUpnp;
  upnp.targets = {*util::Cidr::parse("10.21.0.0/24")};
  upnp.seed = 10'001;  // equal mod 10'000: the collision case

  bool done_coap = false, done_upnp = false;
  scanner_.start(coap, [&done_coap] { done_coap = true; });
  scanner_.start(upnp, [&done_upnp] { done_upnp = true; });
  while ((!done_coap || !done_upnp) && sim_.step()) {
  }
  EXPECT_TRUE(done_coap);
  EXPECT_TRUE(done_upnp);

  // Both sweeps collected their own responses.
  ASSERT_EQ(db_.unique_hosts(proto::Protocol::kCoap), 1u);
  ASSERT_EQ(db_.unique_hosts(proto::Protocol::kUpnp), 1u);
  EXPECT_NE(db_.for_protocol(proto::Protocol::kCoap)[0]->banner.find(
                "CoAP Resources"),
            std::string::npos);
  EXPECT_NE(db_.for_protocol(proto::Protocol::kUpnp)[0]->banner.find("USN:"),
            std::string::npos);
}

TEST_F(ScannerTest, SequentialSweepsAccumulateInOneDb) {
  devices::Device telnet_device(make_spec(Ipv4Addr(10, 10, 0, 1),
                                          proto::Protocol::kTelnet,
                                          devices::Misconfig::kTelnetNoAuth));
  devices::Device mqtt_device(make_spec(Ipv4Addr(10, 10, 0, 2),
                                        proto::Protocol::kMqtt,
                                        devices::Misconfig::kMqttNoAuth));
  telnet_device.attach(fabric_);
  mqtt_device.attach(fabric_);
  sweep(proto::Protocol::kTelnet, *util::Cidr::parse("10.10.0.0/24"));
  sweep(proto::Protocol::kMqtt, *util::Cidr::parse("10.10.0.0/24"));
  EXPECT_EQ(db_.unique_hosts(proto::Protocol::kTelnet), 1u);
  EXPECT_EQ(db_.unique_hosts(proto::Protocol::kMqtt), 1u);
  EXPECT_GT(db_.probes_sent(), 0u);
}

// TCP probe state lives in two slot tables: one outcome per target, one
// port probe per (target, port), kept across retries. A lossy two-port
// sweep must return every slot to its free list, and a later sweep must
// reuse the slots, cleared, without growing either table.
TEST_F(ScannerTest, LossyTelnetSweepFreesAndReusesEverySlot) {
  net::FaultSchedule lossy;
  lossy.uniform_loss = 0.3;
  fabric_.set_fault_schedule(lossy);
  // Responsive targets (Telnet devices) and refused ones (MQTT devices
  // answer both Telnet ports with RST), so reused slots carry both flags.
  std::vector<std::unique_ptr<devices::Device>> hosts;
  for (std::uint8_t i = 1; i <= 60; ++i) {
    const bool telnet = i <= 40;
    hosts.push_back(std::make_unique<devices::Device>(make_spec(
        Ipv4Addr(10, 30, 0, i),
        telnet ? proto::Protocol::kTelnet : proto::Protocol::kMqtt,
        telnet ? devices::Misconfig::kTelnetNoAuth
               : devices::Misconfig::kMqttNoAuth)));
    hosts.back()->attach(fabric_);
  }

  // One batch issues the whole /24 before any event runs, so each sweep's
  // peak is exactly 256 outcomes and 512 port probes, whatever is lost.
  const auto run_sweep = [this](const char* target) {
    ScanConfig config;
    config.protocol = proto::Protocol::kTelnet;
    config.targets = {*util::Cidr::parse(target)};
    config.batch_size = 256;
    config.max_attempts = 3;
    bool done = false;
    scanner_.start(config, [&done] { done = true; });
    while (!done && sim_.step()) {
    }
    EXPECT_TRUE(done);
    run(sim::minutes(1));  // drain in-flight teardown
  };

  run_sweep("10.30.0.0/24");
  EXPECT_EQ(db_.probes_sent(), 256u);
  EXPECT_EQ(db_.probes_sent(),
            db_.responsive() + db_.refused() + db_.unresolved());
  EXPECT_GT(db_.retries(), 0u);
  EXPECT_GT(db_.responsive(), 0u);
  EXPECT_GT(db_.refused(), 0u);
  const Scanner::SlotUsage first = scanner_.slot_usage();
  EXPECT_EQ(first.port_probes, 512u);
  EXPECT_EQ(first.outcomes, 256u);
  EXPECT_EQ(first.free_port_probes, first.port_probes);
  EXPECT_EQ(first.free_outcomes, first.outcomes);

  // Nothing listens in the second /24: every target must end unresolved,
  // so a reused outcome slot that kept a flag would show up here.
  const std::uint64_t responsive = db_.responsive();
  const std::uint64_t refused = db_.refused();
  const std::uint64_t unresolved = db_.unresolved();
  run_sweep("10.31.0.0/24");
  EXPECT_EQ(db_.probes_sent(), 512u);
  EXPECT_EQ(db_.responsive(), responsive);
  EXPECT_EQ(db_.refused(), refused);
  EXPECT_EQ(db_.unresolved(), unresolved + 256);
  const Scanner::SlotUsage second = scanner_.slot_usage();
  EXPECT_EQ(second.port_probes, first.port_probes);
  EXPECT_EQ(second.outcomes, first.outcomes);
  EXPECT_EQ(second.free_port_probes, second.port_probes);
  EXPECT_EQ(second.free_outcomes, second.outcomes);
}

}  // namespace
}  // namespace ofh::scanner
