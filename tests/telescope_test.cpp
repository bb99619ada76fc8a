// Telescope tests: FlowTuple aggregation, protocol/port mapping, unique
// sources, spoofed/masscan annotations and darknet behaviour on the fabric.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "telescope/telescope.h"
#include "test_helpers.h"

namespace ofh::telescope {
namespace {

using test::PlainHost;
using test::SimTest;
using util::Ipv4Addr;

net::Packet syn(Ipv4Addr src, Ipv4Addr dst, std::uint16_t dst_port,
                std::uint16_t src_port = 40'000) {
  net::Packet packet;
  packet.src = src;
  packet.dst = dst;
  packet.src_port = src_port;
  packet.dst_port = dst_port;
  packet.transport = net::Transport::kTcp;
  packet.tcp_flags = net::TcpFlags::kSyn;
  return packet;
}

TEST(ProtocolForPort, MapsIotPorts) {
  EXPECT_EQ(protocol_for_port(23), proto::Protocol::kTelnet);
  EXPECT_EQ(protocol_for_port(2323), proto::Protocol::kTelnet);
  EXPECT_EQ(protocol_for_port(1883), proto::Protocol::kMqtt);
  EXPECT_EQ(protocol_for_port(5683), proto::Protocol::kCoap);
  EXPECT_EQ(protocol_for_port(5672), proto::Protocol::kAmqp);
  EXPECT_EQ(protocol_for_port(5222), proto::Protocol::kXmpp);
  EXPECT_EQ(protocol_for_port(1900), proto::Protocol::kUpnp);
  EXPECT_FALSE(protocol_for_port(443));
  EXPECT_FALSE(protocol_for_port(0));
}

// The telescope's port map and the scanner's port lists are one table: every
// port of every scanned protocol maps back to that protocol, and the ports
// of the honeypot-only protocols map to nothing.
TEST(ProtocolForPort, EveryScannedPortMapsBackToItsProtocol) {
  std::size_t mapped = 0;
  for (const auto protocol : proto::scanned_protocols()) {
    for (const auto port : proto::protocol_ports(protocol)) {
      EXPECT_EQ(protocol_for_port(port), protocol) << port;
      ++mapped;
    }
  }
  EXPECT_EQ(mapped, 8u);
  for (const auto protocol : {proto::Protocol::kSsh, proto::Protocol::kHttp,
                              proto::Protocol::kFtp, proto::Protocol::kSmb,
                              proto::Protocol::kModbus, proto::Protocol::kS7}) {
    for (const auto port : proto::protocol_ports(protocol)) {
      EXPECT_FALSE(protocol_for_port(port)) << port;
    }
  }
  std::size_t tracked = 0;
  for (std::uint32_t port = 0; port <= 0xffff; ++port) {
    if (protocol_for_port(static_cast<std::uint16_t>(port))) ++tracked;
  }
  EXPECT_EQ(tracked, mapped);
}

TEST(Telescope, AggregatesRepeatedPacketsIntoOneTuplePerMinute) {
  Telescope telescope(*util::Cidr::parse("44.0.0.0/8"));
  const auto packet = syn(Ipv4Addr(1, 2, 3, 4), Ipv4Addr(44, 0, 0, 1), 23);
  telescope.observe(packet, sim::seconds(10));
  telescope.observe(packet, sim::seconds(20));
  telescope.observe(packet, sim::minutes(2));  // next minute bucket

  const auto tuples = telescope.tuples();
  ASSERT_EQ(tuples.size(), 2u);
  EXPECT_EQ(tuples[0].packet_count, 2u);
  EXPECT_EQ(tuples[1].packet_count, 1u);
  EXPECT_EQ(telescope.total_packets(), 3u);
  EXPECT_EQ(tuples[0].byte_count, 2 * packet.wire_size());
}

TEST(Telescope, AggregateCountsPastFourBillionDoNotWrap) {
  // Flow-level aggregation plants more packets in one call than a 32-bit
  // counter holds (paper scale: 2.7e9/day); every downstream total must
  // carry the full 64-bit count.
  Telescope telescope(*util::Cidr::parse("44.0.0.0/8"));
  const auto packet = syn(Ipv4Addr(1, 2, 3, 4), Ipv4Addr(44, 0, 0, 1), 23);
  const std::uint64_t kHuge = (std::uint64_t{1} << 32) + 7;
  telescope.observe_aggregate(packet, sim::seconds(10), kHuge);
  telescope.observe(packet, sim::seconds(20));  // equivalent to count 1

  const auto tuples = telescope.tuples();
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples.front().packet_count, kHuge + 1);
  EXPECT_EQ(tuples.front().byte_count, (kHuge + 1) * 40);  // bare SYNs
  EXPECT_EQ(telescope.total_packets(), kHuge + 1);
  EXPECT_EQ(telescope.packets_for(proto::Protocol::kTelnet), kHuge + 1);
  EXPECT_EQ(telescope.unique_sources_for(proto::Protocol::kTelnet), 1u);
}

// The tuple store keeps first-seen order, so the export must sort by key
// or it would depend on arrival order. Feed the same flows in opposite
// orders and demand identical sequences — the same contract
// tests/parallel_test proves end-to-end for the full study's reports at
// scan_threads 1/2/8/hardware.
TEST(Telescope, TupleExportIsInsertionOrderIndependent) {
  const auto flows = [](Telescope& telescope, bool reversed) {
    std::vector<net::Packet> packets;
    for (std::uint32_t src = 1; src <= 64; ++src) {
      for (const std::uint16_t port : {23, 1883, 1900, 443}) {
        packets.push_back(syn(Ipv4Addr(src * 7919), Ipv4Addr(44 << 24 | src),
                              port, static_cast<std::uint16_t>(1000 + src)));
      }
    }
    if (reversed) std::reverse(packets.begin(), packets.end());
    for (const auto& packet : packets) {
      // The timestamp is a function of the packet, not of arrival order, so
      // both feeds describe the same flows in the same minute buckets.
      telescope.observe(packet, sim::minutes(packet.src.value() % 3));
    }
    return telescope.tuples();
  };

  Telescope forward(*util::Cidr::parse("44.0.0.0/8"));
  Telescope backward(*util::Cidr::parse("44.0.0.0/8"));
  const auto lhs = flows(forward, false);
  const auto rhs = flows(backward, true);

  ASSERT_EQ(lhs.size(), rhs.size());
  ASSERT_EQ(lhs.size(), 64u * 4u);
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i].src, rhs[i].src) << "tuple " << i;
    EXPECT_EQ(lhs[i].dst, rhs[i].dst) << "tuple " << i;
    EXPECT_EQ(lhs[i].src_port, rhs[i].src_port) << "tuple " << i;
    EXPECT_EQ(lhs[i].dst_port, rhs[i].dst_port) << "tuple " << i;
    EXPECT_EQ(lhs[i].minute, rhs[i].minute) << "tuple " << i;
    EXPECT_EQ(lhs[i].packet_count, rhs[i].packet_count) << "tuple " << i;
    EXPECT_EQ(lhs[i].byte_count, rhs[i].byte_count) << "tuple " << i;
  }
  // And the sequence is genuinely sorted by the deterministic key.
  for (std::size_t i = 1; i < lhs.size(); ++i) {
    const bool ordered =
        std::tie(lhs[i - 1].minute, lhs[i - 1].src, lhs[i - 1].dst,
                 lhs[i - 1].src_port, lhs[i - 1].dst_port) <
        std::tie(lhs[i].minute, lhs[i].src, lhs[i].dst, lhs[i].src_port,
                 lhs[i].dst_port);
    EXPECT_TRUE(ordered) << "export not key-sorted at index " << i;
  }
}

// Every key field on its own splits a flow: two packets that differ in
// exactly one of (minute, src, dst, src_port, dst_port, transport) land in
// two tuples, and a repeat of either (later in the same minute) finds its
// own tuple again.
TEST(Telescope, DistinguishesFlowsByEveryKeyField) {
  const auto base = syn(Ipv4Addr(1), Ipv4Addr(44 << 24 | 1), 23, 1000);
  const sim::Time base_when = sim::seconds(5);
  struct Case {
    const char* field;
    net::Packet packet;
    sim::Time when;
  };
  std::vector<Case> cases;
  cases.push_back({"minute", base, base_when + sim::minutes(1)});
  cases.push_back({"src", base, base_when});
  cases.back().packet.src = Ipv4Addr(2);
  cases.push_back({"dst", base, base_when});
  cases.back().packet.dst = Ipv4Addr(44 << 24 | 2);
  cases.push_back({"src_port", base, base_when});
  cases.back().packet.src_port = 1001;
  cases.push_back({"dst_port", base, base_when});
  cases.back().packet.dst_port = 24;
  cases.push_back({"transport", base, base_when});
  cases.back().packet.transport = net::Transport::kUdp;

  for (const auto& c : cases) {
    SCOPED_TRACE(c.field);
    Telescope telescope(*util::Cidr::parse("44.0.0.0/8"));
    telescope.observe(base, base_when);
    telescope.observe(c.packet, c.when);
    telescope.observe(base, base_when + sim::seconds(30));
    telescope.observe(c.packet, c.when + sim::seconds(30));
    ASSERT_EQ(telescope.tuple_count(), 2u);
    for (const auto& tuple : telescope.tuples()) {
      EXPECT_EQ(tuple.packet_count, 2u);
    }
  }
}

// 50,000 distinct tuples force the flat index through many growths; a
// second pass in reverse order must find every one of them again.
TEST(Telescope, IndexGrowthKeepsEveryTupleFindable) {
  constexpr std::uint32_t kTuples = 50'000;
  const auto packet_for = [](std::uint32_t i) {
    return syn(Ipv4Addr(i * 2'654'435'761u), Ipv4Addr(44 << 24 | i),
               i % 2 == 0 ? 23 : 1883, static_cast<std::uint16_t>(i));
  };
  const auto when_for = [](std::uint32_t i) { return sim::minutes(i % 7); };

  Telescope telescope(*util::Cidr::parse("44.0.0.0/8"));
  for (std::uint32_t i = 0; i < kTuples; ++i) {
    telescope.observe(packet_for(i), when_for(i));
  }
  ASSERT_EQ(telescope.tuple_count(), kTuples);
  for (std::uint32_t i = kTuples; i-- > 0;) {
    telescope.observe(packet_for(i), when_for(i));
  }
  EXPECT_EQ(telescope.tuple_count(), kTuples);
  EXPECT_EQ(telescope.total_packets(), 2u * kTuples);
  const auto tuples = telescope.tuples();
  ASSERT_EQ(tuples.size(), kTuples);
  for (const auto& tuple : tuples) {
    ASSERT_EQ(tuple.packet_count, 2u) << tuple.src.value();
  }
}

TEST(Telescope, TracksProtocolsAndUniqueSources) {
  Telescope telescope(*util::Cidr::parse("44.0.0.0/8"));
  telescope.observe(syn(Ipv4Addr(1), Ipv4Addr(44 << 24 | 1), 23), 0);
  telescope.observe(syn(Ipv4Addr(1), Ipv4Addr(44 << 24 | 2), 23), 0);
  telescope.observe(syn(Ipv4Addr(2), Ipv4Addr(44 << 24 | 3), 23), 0);
  telescope.observe(syn(Ipv4Addr(3), Ipv4Addr(44 << 24 | 4), 1883), 0);

  EXPECT_EQ(telescope.packets_for(proto::Protocol::kTelnet), 3u);
  EXPECT_EQ(telescope.unique_sources_for(proto::Protocol::kTelnet), 2u);
  EXPECT_EQ(telescope.packets_for(proto::Protocol::kMqtt), 1u);
  EXPECT_EQ(telescope.all_sources().size(), 3u);
  EXPECT_EQ(telescope.unique_sources_for(proto::Protocol::kCoap), 0u);
}

// The per-protocol source runs are append-only between compactions; every
// reader must see sorted, unique addresses whether the run was compacted
// by the reader itself (few sources) or on the way in (many), and after
// more appends land behind a compacted prefix.
TEST(Telescope, SourcesAreSortedAndUniqueAcrossCompactions) {
  Telescope telescope(*util::Cidr::parse("44.0.0.0/8"));
  std::set<std::uint32_t> telnet;
  std::set<std::uint32_t> mqtt;
  const auto feed = [&](std::uint32_t first, std::uint32_t last,
                        std::uint32_t distinct) {
    for (std::uint32_t i = first; i < last; ++i) {
      const std::uint32_t src = 1 + util::splitmix64(i) % distinct;
      const bool to_mqtt = i % 3 == 0;
      telescope.observe(
          syn(Ipv4Addr(src), Ipv4Addr(44 << 24 | i), to_mqtt ? 1883 : 23), 0);
      (to_mqtt ? mqtt : telnet).insert(src);
    }
  };
  const auto expect_sources = [&] {
    std::vector<Ipv4Addr> expected_telnet(telnet.begin(), telnet.end());
    std::vector<Ipv4Addr> expected_mqtt(mqtt.begin(), mqtt.end());
    std::set<std::uint32_t> both = telnet;
    both.insert(mqtt.begin(), mqtt.end());
    std::vector<Ipv4Addr> expected_all(both.begin(), both.end());
    EXPECT_EQ(telescope.sources_for(proto::Protocol::kTelnet), expected_telnet);
    EXPECT_EQ(telescope.sources_for(proto::Protocol::kMqtt), expected_mqtt);
    EXPECT_EQ(telescope.all_sources(), expected_all);
    EXPECT_EQ(telescope.unique_sources_for(proto::Protocol::kTelnet),
              telnet.size());
  };

  feed(0, 40, 16);  // few appends: compacted only when read
  {
    SCOPED_TRACE("compacted by the reader");
    expect_sources();
  }
  feed(40, 20'000, 3'000);  // past the compaction threshold on the way in
  {
    SCOPED_TRACE("compacted while observing");
    expect_sources();
  }
  feed(20'000, 20'050, 5'000);  // a fresh tail behind a compacted prefix
  {
    SCOPED_TRACE("tail merged into a compacted run");
    expect_sources();
  }
}

// protocol_for_port maps nothing to the six untracked protocols, so the
// telescope counts their packets in the totals but in no protocol row.
TEST(Telescope, UntrackedProtocolsHaveNoPacketsOrSources) {
  Telescope telescope(*util::Cidr::parse("44.0.0.0/8"));
  telescope.observe(syn(Ipv4Addr(1), Ipv4Addr(44 << 24 | 1), 22), 0);
  telescope.observe(syn(Ipv4Addr(2), Ipv4Addr(44 << 24 | 2), 23), 0);
  EXPECT_EQ(telescope.total_packets(), 2u);
  EXPECT_EQ(telescope.tuple_count(), 2u);
  for (const auto protocol : {proto::Protocol::kSsh, proto::Protocol::kS7}) {
    EXPECT_EQ(telescope.packets_for(protocol), 0u);
    EXPECT_EQ(telescope.unique_sources_for(protocol), 0u);
    EXPECT_TRUE(telescope.sources_for(protocol).empty());
  }
  EXPECT_EQ(telescope.all_sources(), std::vector<Ipv4Addr>{Ipv4Addr(2)});
}

TEST(Telescope, DailyAverage) {
  Telescope telescope(*util::Cidr::parse("44.0.0.0/8"));
  for (int i = 0; i < 60; ++i) {
    telescope.observe(
        syn(Ipv4Addr(static_cast<std::uint32_t>(i)), Ipv4Addr(44 << 24 | 1), 23),
        0);
  }
  EXPECT_DOUBLE_EQ(telescope.daily_average_for(proto::Protocol::kTelnet, 30),
                   2.0);
  EXPECT_DOUBLE_EQ(telescope.daily_average_for(proto::Protocol::kTelnet, 0),
                   0.0);
}

TEST(Telescope, RecordsSpoofedAndMasscanAnnotations) {
  Telescope telescope(*util::Cidr::parse("44.0.0.0/8"));
  auto packet = syn(Ipv4Addr(9), Ipv4Addr(44 << 24 | 9), 23);
  packet.spoofed_src = true;
  packet.from_masscan = true;
  telescope.observe(packet, 0);
  EXPECT_EQ(telescope.spoofed_packets(), 1u);
  EXPECT_EQ(telescope.masscan_packets(), 1u);
  const auto tuples = telescope.tuples();
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_TRUE(tuples[0].is_spoofed);
  EXPECT_TRUE(tuples[0].is_masscan);
}

class TelescopeFabricTest : public SimTest {};

TEST_F(TelescopeFabricTest, CapturesDarknetTrafficViaFabric) {
  Telescope telescope(*util::Cidr::parse("44.0.0.0/8"));
  telescope.attach(fabric_);
  PlainHost scanner(Ipv4Addr(7, 7, 7, 7));
  scanner.attach(fabric_);

  for (int i = 0; i < 10; ++i) {
    net::Packet packet = syn(scanner.address(),
                             Ipv4Addr(44, 1, 2, static_cast<std::uint8_t>(i)),
                             23);
    fabric_.send(std::move(packet));
  }
  run();
  EXPECT_EQ(telescope.total_packets(), 10u);
  EXPECT_EQ(telescope.unique_sources_for(proto::Protocol::kTelnet), 1u);
}

TEST_F(TelescopeFabricTest, NonDarknetTrafficIsNotCaptured) {
  Telescope telescope(*util::Cidr::parse("44.0.0.0/8"));
  telescope.attach(fabric_);
  PlainHost a(Ipv4Addr(7, 7, 7, 7)), b(Ipv4Addr(8, 8, 8, 8));
  a.attach(fabric_);
  b.attach(fabric_);
  a.udp().send(b.address(), 53, util::to_bytes("query"));
  run();
  EXPECT_EQ(telescope.total_packets(), 0u);
}

}  // namespace
}  // namespace ofh::telescope
