#include <gtest/gtest.h>

#include <vector>

#include "net/fabric.h"
#include "net/host.h"
#include "test_helpers.h"
#include "util/bytes.h"

namespace ofh::net {
namespace {

using test::PlainHost;
using test::SimTest;
using util::Ipv4Addr;

class NetTest : public SimTest {};

TEST_F(NetTest, TcpHandshakeAndDataExchange) {
  PlainHost server(Ipv4Addr(10, 0, 0, 1));
  PlainHost client(Ipv4Addr(10, 0, 0, 2));
  server.attach(fabric_);
  client.attach(fabric_);

  std::string received_by_server, received_by_client;
  server.tcp().listen(80, [&](TcpConnection& conn) {
    conn.send_text("hello from server");
    conn.on_data = [&](TcpConnection&, std::span<const std::uint8_t> data) {
      received_by_server += util::to_string(data);
    };
  });

  bool connected = false;
  client.tcp().connect(Ipv4Addr(10, 0, 0, 1), 80, [&](TcpConnection* conn) {
    ASSERT_NE(conn, nullptr);
    connected = true;
    conn->on_data = [&](TcpConnection&, std::span<const std::uint8_t> data) {
      received_by_client += util::to_string(data);
    };
    conn->send_text("hi server");
  });

  run();
  EXPECT_TRUE(connected);
  EXPECT_EQ(received_by_server, "hi server");
  EXPECT_EQ(received_by_client, "hello from server");
}

TEST_F(NetTest, ConnectToClosedPortFails) {
  PlainHost server(Ipv4Addr(10, 0, 0, 1));
  PlainHost client(Ipv4Addr(10, 0, 0, 2));
  server.attach(fabric_);
  client.attach(fabric_);

  bool called = false;
  TcpConnection* result = reinterpret_cast<TcpConnection*>(0x1);
  client.tcp().connect(Ipv4Addr(10, 0, 0, 1), 81, [&](TcpConnection* conn) {
    called = true;
    result = conn;
  });
  run();
  EXPECT_TRUE(called);
  EXPECT_EQ(result, nullptr);  // RST path
}

TEST_F(NetTest, ConnectToUnallocatedAddressTimesOut) {
  PlainHost client(Ipv4Addr(10, 0, 0, 2));
  client.attach(fabric_);

  bool called = false;
  TcpConnection* result = reinterpret_cast<TcpConnection*>(0x1);
  client.tcp().connect(Ipv4Addr(10, 9, 9, 9), 80,
                       [&](TcpConnection* conn) {
                         called = true;
                         result = conn;
                       },
                       sim::seconds(2));
  run();
  EXPECT_TRUE(called);
  EXPECT_EQ(result, nullptr);
  EXPECT_GE(sim_.now(), sim::seconds(2));  // resolved by the timeout
}

TEST_F(NetTest, ServerSeesClientCloseViaFin) {
  PlainHost server(Ipv4Addr(10, 0, 0, 1));
  PlainHost client(Ipv4Addr(10, 0, 0, 2));
  server.attach(fabric_);
  client.attach(fabric_);

  bool server_closed = false;
  server.tcp().listen(80, [&](TcpConnection& conn) {
    conn.on_close = [&](TcpConnection&) { server_closed = true; };
  });
  client.tcp().connect(Ipv4Addr(10, 0, 0, 1), 80, [&](TcpConnection* conn) {
    ASSERT_NE(conn, nullptr);
    conn->close();
  });
  run();
  EXPECT_TRUE(server_closed);
}

TEST_F(NetTest, AbortSendsRst) {
  PlainHost server(Ipv4Addr(10, 0, 0, 1));
  PlainHost client(Ipv4Addr(10, 0, 0, 2));
  server.attach(fabric_);
  client.attach(fabric_);

  bool server_closed = false;
  server.tcp().listen(80, [&](TcpConnection& conn) {
    conn.on_close = [&](TcpConnection&) { server_closed = true; };
  });
  client.tcp().connect(Ipv4Addr(10, 0, 0, 1), 80, [&](TcpConnection* conn) {
    ASSERT_NE(conn, nullptr);
    conn->abort();
  });
  run();
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(server.tcp().open_connections(), 0u);
  EXPECT_EQ(client.tcp().open_connections(), 0u);
}

TEST_F(NetTest, LossMakesConnectTimeOut) {
  fabric_.set_loss_rate(1.0);  // everything dropped
  PlainHost server(Ipv4Addr(10, 0, 0, 1));
  PlainHost client(Ipv4Addr(10, 0, 0, 2));
  server.attach(fabric_);
  client.attach(fabric_);
  server.tcp().listen(80, [](TcpConnection&) {});

  bool failed = false;
  client.tcp().connect(Ipv4Addr(10, 0, 0, 1), 80,
                       [&](TcpConnection* conn) { failed = conn == nullptr; },
                       sim::seconds(1));
  run();
  EXPECT_TRUE(failed);
  EXPECT_GT(fabric_.packets_dropped(), 0u);
}

TEST_F(NetTest, LossRateOutsideUnitIntervalIsABug) {
  // Debug builds assert; release builds clamp (regression test for the
  // former behaviour of storing the bogus rate verbatim and feeding it to
  // Rng::chance).
  EXPECT_DEBUG_DEATH(fabric_.set_loss_rate(1.5), "loss rate");
  EXPECT_DEBUG_DEATH(fabric_.set_loss_rate(-0.25), "loss rate");
#ifdef NDEBUG
  fabric_.set_loss_rate(1.5);
  EXPECT_DOUBLE_EQ(fabric_.loss_rate(), 1.0);
  fabric_.set_loss_rate(-0.25);
  EXPECT_DOUBLE_EQ(fabric_.loss_rate(), 0.0);
#endif
  fabric_.set_loss_rate(0.5);  // in range passes through untouched
  EXPECT_DOUBLE_EQ(fabric_.loss_rate(), 0.5);
}

TEST_F(NetTest, UdpDatagramDelivery) {
  PlainHost server(Ipv4Addr(10, 0, 0, 1));
  PlainHost client(Ipv4Addr(10, 0, 0, 2));
  server.attach(fabric_);
  client.attach(fabric_);

  std::string received;
  std::uint16_t seen_src_port = 0;
  server.udp().bind(5683, [&](const Datagram& datagram) {
    received = util::to_string(datagram.payload);
    seen_src_port = datagram.src_port;
  });
  client.udp().send(Ipv4Addr(10, 0, 0, 1), 5683, util::to_bytes("ping"),
                    12345);
  run();
  EXPECT_EQ(received, "ping");
  EXPECT_EQ(seen_src_port, 12345);
}

TEST_F(NetTest, UdpToUnboundPortIsSilent) {
  PlainHost server(Ipv4Addr(10, 0, 0, 1));
  PlainHost client(Ipv4Addr(10, 0, 0, 2));
  server.attach(fabric_);
  client.attach(fabric_);
  client.udp().send(Ipv4Addr(10, 0, 0, 1), 9999, util::to_bytes("x"));
  run();  // no crash, nothing delivered
  SUCCEED();
}

TEST_F(NetTest, SpoofedUdpRepliesGoToVictim) {
  PlainHost reflector(Ipv4Addr(10, 0, 0, 1));
  PlainHost attacker(Ipv4Addr(10, 0, 0, 2));
  PlainHost victim(Ipv4Addr(10, 0, 0, 3));
  reflector.attach(fabric_);
  attacker.attach(fabric_);
  victim.attach(fabric_);

  // Reflector echoes back 10x the payload to whatever source it saw.
  reflector.udp().bind(1900, [&](const Datagram& datagram) {
    util::Bytes big;
    for (int i = 0; i < 10; ++i) {
      big.insert(big.end(), datagram.payload.begin(), datagram.payload.end());
    }
    reflector.udp().send(datagram.src, datagram.src_port, std::move(big),
                         1900);
  });

  std::size_t victim_bytes = 0;
  victim.udp().bind(40'000, [&](const Datagram& datagram) {
    victim_bytes += datagram.payload.size();
  });

  attacker.udp().send_spoofed(victim.address(), reflector.address(), 1900,
                              util::to_bytes("amplifyme"), 40'000);
  run();
  EXPECT_EQ(victim_bytes, 90u);  // 10x amplification landed on the victim
}

class CountingSink : public PacketSink {
 public:
  void observe(const Packet& packet, sim::Time) override {
    ++count_;
    last_ = packet;
  }
  int count() const { return count_; }
  const Packet& last() const { return last_; }

 private:
  int count_ = 0;
  Packet last_;
};

TEST_F(NetTest, DarknetRangeDeliversToSinkNotHosts) {
  CountingSink telescope;
  fabric_.add_darknet(*util::Cidr::parse("44.0.0.0/8"), telescope);

  PlainHost client(Ipv4Addr(10, 0, 0, 2));
  client.attach(fabric_);
  client.udp().send(Ipv4Addr(44, 1, 2, 3), 23, util::to_bytes("probe"));
  run();
  EXPECT_EQ(telescope.count(), 1);
  EXPECT_EQ(telescope.last().dst.to_string(), "44.1.2.3");
}

TEST_F(NetTest, DarknetNeverAnswers) {
  CountingSink telescope;
  fabric_.add_darknet(*util::Cidr::parse("44.0.0.0/8"), telescope);
  PlainHost client(Ipv4Addr(10, 0, 0, 2));
  client.attach(fabric_);

  bool failed = false;
  client.tcp().connect(Ipv4Addr(44, 3, 2, 1), 23,
                       [&](TcpConnection* conn) { failed = conn == nullptr; },
                       sim::seconds(1));
  run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(telescope.count(), 1);  // the SYN was observed
  EXPECT_TRUE(telescope.last().is_syn_only());
}

TEST_F(NetTest, TapObservesAllPackets) {
  CountingSink tap;
  fabric_.add_tap(tap);
  PlainHost a(Ipv4Addr(10, 0, 0, 1));
  PlainHost b(Ipv4Addr(10, 0, 0, 2));
  a.attach(fabric_);
  b.attach(fabric_);
  b.udp().send(a.address(), 1, util::to_bytes("x"));
  run();
  EXPECT_EQ(tap.count(), 1);
}

TEST_F(NetTest, DetachedHostStopsReceiving) {
  PlainHost server(Ipv4Addr(10, 0, 0, 1));
  PlainHost client(Ipv4Addr(10, 0, 0, 2));
  server.attach(fabric_);
  client.attach(fabric_);
  int received = 0;
  server.udp().bind(7, [&](const Datagram&) { ++received; });

  client.udp().send(server.address(), 7, util::to_bytes("1"));
  run();
  server.detach();
  client.udp().send(Ipv4Addr(10, 0, 0, 1), 7, util::to_bytes("2"));
  run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(fabric_.host_count(), 1u);
}

TEST_F(NetTest, BacklogLimitCausesRstWhenExhausted) {
  PlainHost server(Ipv4Addr(10, 0, 0, 1));
  PlainHost client(Ipv4Addr(10, 0, 0, 2));
  server.attach(fabric_);
  client.attach(fabric_);
  server.tcp().set_backlog_limit(0);
  server.tcp().listen(80, [](TcpConnection&) {});

  bool refused = false;
  client.tcp().connect(Ipv4Addr(10, 0, 0, 1), 80,
                       [&](TcpConnection* conn) { refused = conn == nullptr; });
  run();
  EXPECT_TRUE(refused);
}

TEST_F(NetTest, IngressFilterDropsBlockedSources) {
  PlainHost server(Ipv4Addr(10, 0, 0, 1));
  PlainHost blocked(Ipv4Addr(10, 0, 0, 2));
  PlainHost allowed(Ipv4Addr(10, 0, 0, 3));
  server.attach(fabric_);
  blocked.attach(fabric_);
  allowed.attach(fabric_);

  int received = 0;
  server.udp().bind(9, [&received](const Datagram&) { ++received; });
  server.set_ingress_filter([](const Packet& packet) {
    return packet.src != Ipv4Addr(10, 0, 0, 2);
  });

  blocked.udp().send(server.address(), 9, util::to_bytes("drop me"));
  allowed.udp().send(server.address(), 9, util::to_bytes("keep me"));
  run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetTest, IngressFilterMakesTcpConnectTimeOut) {
  PlainHost server(Ipv4Addr(10, 0, 0, 1));
  PlainHost blocked(Ipv4Addr(10, 0, 0, 2));
  server.attach(fabric_);
  blocked.attach(fabric_);
  server.tcp().listen(80, [](TcpConnection&) {});
  server.set_ingress_filter(
      [](const Packet& packet) { return packet.src != Ipv4Addr(10, 0, 0, 2); });

  bool failed = false;
  blocked.tcp().connect(server.address(), 80,
                        [&failed](TcpConnection* conn) {
                          failed = conn == nullptr;
                        },
                        sim::seconds(1));
  run();
  EXPECT_TRUE(failed);  // firewalled: no SYN-ACK, no RST — just a timeout
}

TEST_F(NetTest, StaleConnectTimeoutDoesNotFireOnReusedKey) {
  PlainHost server(Ipv4Addr(10, 0, 0, 1));
  PlainHost client(Ipv4Addr(10, 0, 0, 2));
  server.attach(fabric_);
  client.attach(fabric_);
  server.tcp().listen(80, [](TcpConnection&) {});
  bool silent = false;
  server.set_ingress_filter([&silent](const Packet&) { return !silent; });

  client.tcp().set_next_ephemeral(40'000);
  TcpConnection* first = nullptr;
  client.tcp().connect_ex(
      server.address(), 80,
      [&first](TcpConnection* conn, ConnectOutcome outcome) {
        ASSERT_EQ(outcome, ConnectOutcome::kEstablished);
        first = conn;
      },
      sim::seconds(5));  // this attempt's timeout timer pends until t=5s
  run(sim::seconds(1));
  ASSERT_NE(first, nullptr);
  first->abort();  // frees the (40000 -> 10.0.0.1:80) key immediately

  // Reuse the exact key while the first connect's timer is still pending;
  // the server has gone silent, so this attempt sits in SynSent when the
  // stale timer fires at t=5s.
  silent = true;
  client.tcp().set_next_ephemeral(40'000);
  int callbacks = 0;
  ConnectOutcome second_outcome = ConnectOutcome::kEstablished;
  sim::Time resolved_at = 0;
  client.tcp().connect_ex(
      server.address(), 80,
      [&](TcpConnection* conn, ConnectOutcome outcome) {
        ++callbacks;
        EXPECT_EQ(conn, nullptr);
        second_outcome = outcome;
        resolved_at = sim_.now();
      },
      sim::seconds(10));
  run();

  // Timers are keyed by (key, generation): the first connect's stale timer
  // must stand down instead of killing the reused key at t=5s, and the
  // second attempt must run its full 10s timeout and resolve exactly once.
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(second_outcome, ConnectOutcome::kTimeout);
  EXPECT_GE(resolved_at, sim::seconds(11));
}

TEST_F(NetTest, ManyOpensToOnePeerResolveInScrambledOrder) {
  // Every open targets one silent (dst, port), so the keys differ only in
  // the local port. RSTs for the even-numbered opens arrive in a scrambled
  // order, so entries leave the SYN_SENT table from the middle of its probe
  // runs; the odd-numbered survivors must still be found by their timeouts.
  PlainHost client(Ipv4Addr(10, 0, 0, 2));
  client.attach(fabric_);
  const Ipv4Addr peer(10, 0, 0, 1);  // no host: every SYN is lost

  constexpr int kOpens = 2'000;
  constexpr std::uint16_t kFirstPort = 40'000;
  client.tcp().set_next_ephemeral(kFirstPort);
  std::vector<int> refused_order;
  std::vector<int> outcomes(kOpens, -1);
  for (int i = 0; i < kOpens; ++i) {
    client.tcp().connect_ex(
        peer, 81,
        [&, i](TcpConnection* conn, ConnectOutcome outcome) {
          EXPECT_EQ(conn, nullptr);
          EXPECT_EQ(outcomes[i], -1) << "open " << i << " resolved twice";
          outcomes[i] = static_cast<int>(outcome);
          if (outcome == ConnectOutcome::kRefused) refused_order.push_back(i);
        },
        sim::seconds(3));
  }
  EXPECT_EQ(client.tcp().open_connections(), std::size_t{kOpens});

  std::vector<int> rst_order;
  for (int k = 0; k < kOpens / 2; ++k) {
    rst_order.push_back(2 * ((k * 617) % (kOpens / 2)));  // 617 is prime
    Packet rst;
    rst.src = peer;
    rst.dst = client.address();
    rst.src_port = 81;
    rst.dst_port = static_cast<std::uint16_t>(kFirstPort + rst_order.back());
    rst.tcp_flags = TcpFlags::kRst;
    fabric_.send(std::move(rst));
  }
  run(sim::seconds(1));
  EXPECT_EQ(refused_order, rst_order);
  EXPECT_EQ(client.tcp().open_connections(), std::size_t{kOpens / 2});

  run();
  for (int i = 0; i < kOpens; ++i) {
    const ConnectOutcome expected =
        i % 2 == 0 ? ConnectOutcome::kRefused : ConnectOutcome::kTimeout;
    EXPECT_EQ(outcomes[i], static_cast<int>(expected)) << "open " << i;
  }
  EXPECT_EQ(client.tcp().open_connections(), 0u);
}

TEST_F(NetTest, SynForKeyInSynSentIsAnsweredWithRst) {
  // Simultaneous open: each side's SYN reaches a key the other holds in
  // SYN_SENT. Both listen on the target port, so only the SYN_SENT entry
  // can cause the refusal; neither side may accept.
  PlainHost a(Ipv4Addr(10, 0, 0, 1));
  PlainHost b(Ipv4Addr(10, 0, 0, 2));
  a.attach(fabric_);
  b.attach(fabric_);
  int accepts = 0;
  a.tcp().listen(40'000, [&accepts](TcpConnection&) { ++accepts; });
  b.tcp().listen(80, [&accepts](TcpConnection&) { ++accepts; });

  a.tcp().set_next_ephemeral(40'000);
  b.tcp().set_next_ephemeral(80);
  std::vector<ConnectOutcome> outcomes;
  const auto record = [&outcomes](TcpConnection* conn,
                                  ConnectOutcome outcome) {
    EXPECT_EQ(conn, nullptr);
    outcomes.push_back(outcome);
  };
  a.tcp().connect_ex(b.address(), 80, record);     // key (40000, b, 80)
  b.tcp().connect_ex(a.address(), 40'000, record);  // key (80, a, 40000)
  run();

  EXPECT_EQ(outcomes, (std::vector<ConnectOutcome>{ConnectOutcome::kRefused,
                                                   ConnectOutcome::kRefused}));
  EXPECT_EQ(accepts, 0);
  EXPECT_EQ(a.tcp().open_connections(), 0u);
  EXPECT_EQ(b.tcp().open_connections(), 0u);
}

TEST_F(NetTest, ResetConnectionsDropsPendingOpensSilently) {
  PlainHost client(Ipv4Addr(10, 0, 0, 2));
  client.attach(fabric_);
  int callbacks = 0;
  client.tcp().set_next_ephemeral(40'000);
  for (int i = 0; i < 8; ++i) {
    client.tcp().connect_ex(
        Ipv4Addr(10, 9, 9, 9), 80,
        [&callbacks](TcpConnection*, ConnectOutcome) { ++callbacks; },
        sim::seconds(5));
  }
  run(sim::seconds(1));
  ASSERT_EQ(client.tcp().open_connections(), 8u);

  client.tcp().reset_connections();  // power loss: no handler may run
  EXPECT_EQ(client.tcp().open_connections(), 0u);

  // Reuse the first open's key; the eight stale timers firing at t=5s must
  // stand down, and this open must run its own 10s timeout exactly once.
  client.tcp().set_next_ephemeral(40'000);
  sim::Time resolved_at = 0;
  client.tcp().connect_ex(
      Ipv4Addr(10, 9, 9, 9), 80,
      [&](TcpConnection* conn, ConnectOutcome outcome) {
        ++callbacks;
        EXPECT_EQ(conn, nullptr);
        EXPECT_EQ(outcome, ConnectOutcome::kTimeout);
        resolved_at = sim_.now();
      },
      sim::seconds(10));
  run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(resolved_at, sim::seconds(11));
  EXPECT_EQ(client.tcp().open_connections(), 0u);
}

TEST_F(NetTest, PacketWireSizeIncludesPayload) {
  Packet packet;
  packet.payload = util::to_bytes("12345");
  EXPECT_EQ(packet.wire_size(), 45u);
}

}  // namespace
}  // namespace ofh::net
