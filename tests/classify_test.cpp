// Classifier tests: misconfiguration rules (Tables 2-3), device tagging
// (Table 11) and honeypot fingerprinting / filtering (Table 6).
#include <gtest/gtest.h>

#include "classify/device_tagger.h"
#include "classify/fingerprint.h"
#include "classify/misconfig_rules.h"

namespace ofh::classify {
namespace {

using devices::Misconfig;
using proto::Protocol;

scanner::ScanRecord record_of(Protocol protocol, std::string banner,
                              std::uint32_t host = 0x0a000001) {
  scanner::ScanRecord record;
  record.host = util::Ipv4Addr(host);
  record.port = proto::default_port(protocol);
  record.protocol = protocol;
  record.banner = std::move(banner);
  return record;
}

// ------------------------------------------------- misconfiguration rules

struct RuleCase {
  Protocol protocol;
  const char* banner;
  std::optional<Misconfig> expected;
};

class MisconfigRule : public ::testing::TestWithParam<RuleCase> {};

TEST_P(MisconfigRule, ClassifiesBannerPerTable2And3) {
  const auto& param = GetParam();
  EXPECT_EQ(classify_misconfig(record_of(param.protocol, param.banner)),
            param.expected)
      << param.banner;
}

// Names each case "<protocol>_<index>". The default name would be the
// struct's raw bytes, which embed the banner pointer and so change with
// every load address.
std::string rule_case_name(const ::testing::TestParamInfo<RuleCase>& info) {
  return std::string(proto::protocol_name(info.param.protocol)) + "_" +
         std::to_string(info.index);
}

INSTANTIATE_TEST_SUITE_P(
    Table2Tcp, MisconfigRule,
    ::testing::Values(
        // Telnet (Table 2).
        RuleCase{Protocol::kTelnet, "BusyBox v1.20.2\r\nroot@device:~$ ",
                 Misconfig::kTelnetNoAuthRoot},
        RuleCase{Protocol::kTelnet, "admin@router:~$ ",
                 Misconfig::kTelnetNoAuthRoot},
        RuleCase{Protocol::kTelnet, "device console\r\n$", // bare prompt
                 Misconfig::kTelnetNoAuth},
        RuleCase{Protocol::kTelnet, "192.168.0.64 login: ", std::nullopt},
        RuleCase{Protocol::kTelnet, "", std::nullopt},
        // MQTT.
        RuleCase{Protocol::kMqtt, "MQTT Connection Code:0",
                 Misconfig::kMqttNoAuth},
        RuleCase{Protocol::kMqtt, "MQTT Connection Code:5", std::nullopt},
        // AMQP.
        RuleCase{Protocol::kAmqp,
                 "Product: RabbitMQ Version: 2.7.1 Mechanisms: PLAIN",
                 Misconfig::kAmqpNoAuth},
        RuleCase{Protocol::kAmqp,
                 "Product: RabbitMQ Version: 2.8.4 Mechanisms: PLAIN",
                 Misconfig::kAmqpNoAuth},
        RuleCase{Protocol::kAmqp,
                 "Product: RabbitMQ Version: 3.8.9 Mechanisms: PLAIN "
                 "AMQPLAIN ANONYMOUS",
                 Misconfig::kAmqpNoAuth},
        RuleCase{Protocol::kAmqp,
                 "Product: RabbitMQ Version: 3.8.9 Mechanisms: PLAIN",
                 std::nullopt},
        // XMPP.
        RuleCase{Protocol::kXmpp,
                 "<stream:features><mechanisms><mechanism>ANONYMOUS"
                 "</mechanism></mechanisms></stream:features>",
                 Misconfig::kXmppAnonymous},
        RuleCase{Protocol::kXmpp,
                 "<mechanisms><mechanism>PLAIN</mechanism></mechanisms>",
                 Misconfig::kXmppPlaintext},
        RuleCase{Protocol::kXmpp,
                 "<starttls><required/></starttls><mechanisms>"
                 "<mechanism>PLAIN</mechanism></mechanisms>",
                 std::nullopt},
        RuleCase{Protocol::kXmpp,
                 "<mechanism>SCRAM-SHA-1</mechanism>"
                 "<mechanism>PLAIN</mechanism>",
                 std::nullopt}),
    rule_case_name);

INSTANTIATE_TEST_SUITE_P(
    Table3Udp, MisconfigRule,
    ::testing::Values(
        RuleCase{Protocol::kCoap, "CoAP Resources </sensors>\n220 220-Admin",
                 Misconfig::kCoapAdminAccess},
        RuleCase{Protocol::kCoap, "CoAP Resources </sensors>\n220 x1C",
                 Misconfig::kCoapNoAuth},
        RuleCase{Protocol::kCoap, "CoAP Resources </sensors/temp>\n4.01",
                 Misconfig::kCoapReflector},
        RuleCase{Protocol::kCoap, "4.01 Unauthorized", std::nullopt},
        RuleCase{Protocol::kUpnp,
                 "HTTP/1.1 200 OK\r\nST: upnp:rootdevice\r\n"
                 "USN: uuid:x::upnp:rootdevice\r\nSERVER: MiniUPnPd/1.4\r\n"
                 "LOCATION: http://192.0.2.1:16537/rootDesc.xml\r\n",
                 Misconfig::kUpnpReflector},
        RuleCase{Protocol::kUpnp,
                 "HTTP/1.1 200 OK\r\nST: upnp:rootdevice\r\nEXT:\r\n",
                 std::nullopt}),
    rule_case_name);

TEST(ClassifyAll, PicksMostSevereFindingPerHost) {
  scanner::ScanDb db;
  db.add(record_of(Protocol::kCoap, "CoAP Resources </a>\n4.01", 0x01020304));
  db.add(record_of(Protocol::kCoap, "CoAP Resources </a>\n220 220-Admin",
                   0x01020304));
  const auto findings = classify_all(db);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].misconfig, Misconfig::kCoapAdminAccess);
}

TEST(ClassifyAll, CountsEachHostOnce) {
  scanner::ScanDb db;
  db.add(record_of(Protocol::kTelnet, "root@x:~$ ", 1));
  db.add(record_of(Protocol::kTelnet, "root@x:~$ ", 1));
  db.add(record_of(Protocol::kTelnet, "root@x:~$ ", 2));
  db.add(record_of(Protocol::kTelnet, "login: ", 3));  // not misconfigured
  EXPECT_EQ(classify_all(db).size(), 2u);
}

// ---------------------------------------------------------- device tagging

TEST(DeviceTagger, MatchesTable11Identifiers) {
  const auto hik = tag_device(
      record_of(Protocol::kTelnet, "192.168.0.64 login: "));
  ASSERT_TRUE(hik);
  EXPECT_EQ(hik->device_type, "Camera");
  EXPECT_EQ(hik->model, "HiKVision Camera");

  const auto router = tag_device(record_of(
      Protocol::kUpnp, "HTTP/1.1 200 OK\r\nModel Name: HG532e\r\n"));
  ASSERT_TRUE(router);
  EXPECT_EQ(router->device_type, "Router");

  const auto printer = tag_device(record_of(
      Protocol::kMqtt, "topic octoPrint/temperature/bed = 60.0"));
  ASSERT_TRUE(printer);
  EXPECT_EQ(printer->device_type, "3D Printer");
}

TEST(DeviceTagger, RequiresMatchingProtocol) {
  // A Telnet identifier inside a UPnP response must not match.
  EXPECT_FALSE(
      tag_device(record_of(Protocol::kUpnp, "192.168.0.64 login: ")));
}

TEST(DeviceTagger, UnknownBannersAreUntagged) {
  EXPECT_FALSE(tag_device(record_of(Protocol::kTelnet, "login: ")));
  EXPECT_FALSE(tag_device(record_of(Protocol::kXmpp, "<stream:features/>")));
}

TEST(DeviceTagger, HistogramGroupsByProtocol) {
  scanner::ScanDb db;
  db.add(record_of(Protocol::kTelnet, "192.168.0.64 login: ", 1));
  db.add(record_of(Protocol::kTelnet, "PK5001Z login", 2));
  db.add(record_of(Protocol::kTelnet, "whatever", 3));
  const auto histogram = type_histogram(db);
  const auto& telnet = histogram.at(Protocol::kTelnet);
  EXPECT_EQ(telnet.count("Camera"), 1u);
  EXPECT_EQ(telnet.count("DSL Modem"), 1u);
  EXPECT_EQ(telnet.count("Unidentified"), 1u);
}

// ----------------------------------------------------------- fingerprinting

TEST(Fingerprint, DetectsEachSignature) {
  for (const auto& signature : honeynet::honeypot_signatures()) {
    scanner::ScanRecord record;
    record.host = util::Ipv4Addr(7);
    record.port = signature.port;
    record.protocol = proto::Protocol::kTelnet;
    record.banner = signature.banner + "extra session noise";
    const auto name = fingerprint_honeypot(record);
    ASSERT_TRUE(name) << signature.name;
    EXPECT_EQ(*name, signature.name);
  }
}

TEST(Fingerprint, RealDeviceBannersAreNotFlagged) {
  EXPECT_FALSE(fingerprint_honeypot(
      record_of(Protocol::kTelnet, "192.168.0.64 login: ")));
  EXPECT_FALSE(fingerprint_honeypot(
      record_of(Protocol::kTelnet, "BusyBox v1.20.2 (2016-09-13)\r\n$ ")));
  EXPECT_FALSE(fingerprint_honeypot(record_of(Protocol::kTelnet, "")));
}

TEST(Fingerprint, RequiresExactPrefixNotSubstring) {
  // The Cowrie IAC sequence *not* at the start of the banner is a session
  // artefact, not a static greeting.
  EXPECT_FALSE(fingerprint_honeypot(
      record_of(Protocol::kTelnet, std::string("login: \xff\xfd\x1f"))));
}

TEST(Fingerprint, CountsUniqueHostsNotRecords) {
  scanner::ScanDb db;
  const auto& cowrie = honeynet::honeypot_signatures()[1];
  for (int i = 0; i < 3; ++i) {
    scanner::ScanRecord record;
    record.host = util::Ipv4Addr(42);  // same host three times
    record.protocol = Protocol::kTelnet;
    record.banner = cowrie.banner;
    db.add(std::move(record));
  }
  const auto result = fingerprint_all(db);
  EXPECT_EQ(result.detections.count("Cowrie"), 1u);
  EXPECT_EQ(result.honeypot_hosts.size(), 1u);
}

TEST(Fingerprint, FilterRemovesHoneypotFindings) {
  scanner::ScanDb db;
  const auto& anglerfish = honeynet::honeypot_signatures().back();
  ASSERT_EQ(anglerfish.name, "Anglerfish");
  // Anglerfish's "[root@LocalHost tmp]$ " banner would classify as an
  // unauthenticated console — the poisoning the paper warns about.
  scanner::ScanRecord hp_record;
  hp_record.host = util::Ipv4Addr(100);
  hp_record.protocol = Protocol::kTelnet;
  hp_record.banner = anglerfish.banner;
  db.add(hp_record);
  db.add(record_of(Protocol::kTelnet, "root@cam:~$ ", 200));

  auto findings = classify_all(db);
  ASSERT_EQ(findings.size(), 2u);  // both look misconfigured
  const auto result = fingerprint_all(db);
  findings = filter_honeypots(std::move(findings), result);
  ASSERT_EQ(findings.size(), 1u);  // honeypot filtered out
  EXPECT_EQ(findings[0].host.value(), 200u);
}

}  // namespace
}  // namespace ofh::classify
