// Wire-codec tests: encode/decode round trips, malformed-input rejection and
// framing edge cases for every protocol codec.
#include <gtest/gtest.h>

#include "proto/amqp.h"
#include "proto/coap.h"
#include "proto/http.h"
#include "proto/modbus.h"
#include "proto/mqtt.h"
#include "proto/s7.h"
#include "proto/smb.h"
#include "proto/ssdp.h"
#include "proto/ssh.h"
#include "proto/telnet.h"
#include "proto/xmpp.h"

namespace ofh::proto {
namespace {

// ----------------------------------------------------------------- telnet

TEST(TelnetCodec, SplitsTextAndNegotiations) {
  const util::Bytes data = {0xff, 0xfd, 0x1f, 'l', 'o', 'g', 'i', 'n', ':'};
  const auto decoded = telnet::decode(data);
  ASSERT_EQ(decoded.negotiations.size(), 1u);
  EXPECT_EQ(decoded.negotiations[0].verb, telnet::kDo);
  EXPECT_EQ(decoded.negotiations[0].option, telnet::kOptNaws);
  EXPECT_EQ(decoded.text, "login:");
}

TEST(TelnetCodec, UnescapesDoubledIac) {
  const util::Bytes data = {'a', 0xff, 0xff, 'b'};
  const auto decoded = telnet::decode(data);
  EXPECT_EQ(decoded.text, std::string("a\xff") + "b");
}

TEST(TelnetCodec, SkipsSubnegotiation) {
  const util::Bytes data = {0xff, telnet::kSb, 24, 1, 2, 3,
                            0xff, telnet::kSe, 'x'};
  const auto decoded = telnet::decode(data);
  EXPECT_EQ(decoded.text, "x");
  EXPECT_TRUE(decoded.negotiations.empty());
}

TEST(TelnetCodec, EncodeRoundTrip) {
  const std::vector<telnet::Negotiation> negotiations = {
      {telnet::kWill, telnet::kOptEcho}, {telnet::kDo, telnet::kOptSga}};
  const auto encoded = telnet::encode_negotiation(negotiations);
  const auto decoded = telnet::decode(encoded);
  EXPECT_EQ(decoded.negotiations.size(), 2u);
  EXPECT_EQ(decoded.negotiations[0].verb, telnet::kWill);
  EXPECT_EQ(decoded.negotiations[1].option, telnet::kOptSga);
}

TEST(TelnetCodec, RefuseAllMapsVerbs) {
  const std::vector<telnet::Negotiation> received = {
      {telnet::kDo, 1}, {telnet::kWill, 3}, {telnet::kWont, 5}};
  const auto replies = telnet::refuse_all(received);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].verb, telnet::kWont);
  EXPECT_EQ(replies[1].verb, telnet::kDont);
}

TEST(TelnetCodec, TruncatedNegotiationIsDropped) {
  const util::Bytes data = {'o', 'k', 0xff, 0xfd};  // IAC DO, option missing
  const auto decoded = telnet::decode(data);
  EXPECT_EQ(decoded.text, "ok");
  EXPECT_TRUE(decoded.negotiations.empty());
}

// ------------------------------------------------------------------- mqtt

TEST(MqttCodec, FixedHeaderVarintLengths) {
  // remaining length 321 = 0xC1 0x02
  const util::Bytes data = {0x30, 0xc1, 0x02, 0x00};
  const auto header = mqtt::decode_fixed_header(data);
  ASSERT_TRUE(header);
  EXPECT_EQ(header->type, mqtt::PacketType::kPublish);
  EXPECT_EQ(header->remaining_length, 321u);
  EXPECT_EQ(header->header_size, 3u);
}

TEST(MqttCodec, FixedHeaderRejectsOverlongVarint) {
  const util::Bytes data = {0x30, 0x80, 0x80, 0x80, 0x80, 0x01};
  EXPECT_FALSE(mqtt::decode_fixed_header(data));
}

TEST(MqttCodec, FixedHeaderRejectsReservedTypes) {
  const util::Bytes zero = {0x00, 0x00};
  const util::Bytes fifteen = {0xf0, 0x00};
  EXPECT_FALSE(mqtt::decode_fixed_header(zero));
  EXPECT_FALSE(mqtt::decode_fixed_header(fifteen));
}

TEST(MqttCodec, ConnectRoundTrip) {
  mqtt::ConnectPacket packet;
  packet.client_id = "sensor-1";
  packet.username = "user";
  packet.password = "pass";
  packet.keep_alive = 30;
  const auto encoded = mqtt::encode_connect(packet);
  const auto header = mqtt::decode_fixed_header(encoded);
  ASSERT_TRUE(header);
  ASSERT_EQ(header->type, mqtt::PacketType::kConnect);
  const auto decoded = mqtt::decode_connect(
      std::span<const std::uint8_t>(encoded).subspan(header->header_size));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->client_id, "sensor-1");
  EXPECT_EQ(decoded->username, "user");
  EXPECT_EQ(decoded->password, "pass");
  EXPECT_EQ(decoded->keep_alive, 30);
}

TEST(MqttCodec, ConnectWithoutCredentials) {
  mqtt::ConnectPacket packet;
  packet.client_id = "anon";
  const auto encoded = mqtt::encode_connect(packet);
  const auto header = mqtt::decode_fixed_header(encoded);
  const auto decoded = mqtt::decode_connect(
      std::span<const std::uint8_t>(encoded).subspan(header->header_size));
  ASSERT_TRUE(decoded);
  EXPECT_FALSE(decoded->username);
  EXPECT_FALSE(decoded->password);
}

TEST(MqttCodec, ConnackCodes) {
  for (int code = 0; code <= 5; ++code) {
    const auto encoded =
        mqtt::encode_connack(static_cast<mqtt::ConnectCode>(code));
    const auto header = mqtt::decode_fixed_header(encoded);
    ASSERT_TRUE(header);
    const auto decoded = mqtt::decode_connack(
        std::span<const std::uint8_t>(encoded).subspan(header->header_size));
    ASSERT_TRUE(decoded);
    EXPECT_EQ(static_cast<int>(*decoded), code);
  }
}

TEST(MqttCodec, PublishRoundTrip) {
  mqtt::PublishPacket packet;
  packet.topic = "a/b/c";
  packet.payload = util::to_bytes("value");
  packet.retain = true;
  const auto encoded = mqtt::encode_publish(packet);
  const auto header = mqtt::decode_fixed_header(encoded);
  ASSERT_TRUE(header);
  EXPECT_EQ(header->flags & 0x01, 0x01);
  const auto decoded = mqtt::decode_publish(
      std::span<const std::uint8_t>(encoded).subspan(header->header_size),
      header->flags);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->topic, "a/b/c");
  EXPECT_EQ(util::to_string(decoded->payload), "value");
  EXPECT_TRUE(decoded->retain);
}

TEST(MqttCodec, SubscribeRoundTrip) {
  mqtt::SubscribePacket packet;
  packet.packet_id = 7;
  packet.topic_filters = {"$SYS/#", "home/+/temp"};
  const auto encoded = mqtt::encode_subscribe(packet);
  const auto header = mqtt::decode_fixed_header(encoded);
  const auto decoded = mqtt::decode_subscribe(
      std::span<const std::uint8_t>(encoded).subspan(header->header_size));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->packet_id, 7);
  EXPECT_EQ(decoded->topic_filters,
            (std::vector<std::string>{"$SYS/#", "home/+/temp"}));
}

struct TopicCase {
  const char* filter;
  const char* topic;
  bool matches;
};

class TopicMatch : public ::testing::TestWithParam<TopicCase> {};

TEST_P(TopicMatch, MatchesPerSpec) {
  const auto& param = GetParam();
  EXPECT_EQ(mqtt::topic_matches(param.filter, param.topic), param.matches)
      << param.filter << " vs " << param.topic;
}

// Names each case "matches_<index>" or "rejects_<index>"; the default name
// would print the filter and topic pointers, which move with the load address.
std::string topic_case_name(const ::testing::TestParamInfo<TopicCase>& info) {
  return (info.param.matches ? "matches_" : "rejects_") +
         std::to_string(info.index);
}

INSTANTIATE_TEST_SUITE_P(
    Wildcards, TopicMatch,
    ::testing::Values(TopicCase{"a/b", "a/b", true},
                      TopicCase{"a/b", "a/c", false},
                      TopicCase{"a/+", "a/b", true},
                      TopicCase{"a/+", "a/b/c", false},
                      TopicCase{"a/#", "a/b/c", true},
                      TopicCase{"#", "anything/at/all", true},
                      TopicCase{"a/+/c", "a/b/c", true},
                      TopicCase{"a/+/c", "a/b/d", false},
                      TopicCase{"$SYS/#", "$SYS/broker/version", true},
                      TopicCase{"a/b", "a", false},
                      TopicCase{"a", "a/b", false}),
    topic_case_name);

// ------------------------------------------------------------------- coap

TEST(CoapCodec, HeaderRoundTrip) {
  coap::Message message;
  message.type = coap::Type::kConfirmable;
  message.code = coap::Code::kGet;
  message.message_id = 0x1234;
  message.token = {0xaa, 0xbb};
  message.set_uri_path("/.well-known/core");
  const auto encoded = coap::encode(message);
  const auto decoded = coap::decode(encoded);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->type, coap::Type::kConfirmable);
  EXPECT_EQ(decoded->code, coap::Code::kGet);
  EXPECT_EQ(decoded->message_id, 0x1234);
  EXPECT_EQ(decoded->token, (util::Bytes{0xaa, 0xbb}));
  EXPECT_EQ(decoded->uri_path(), "/.well-known/core");
}

TEST(CoapCodec, PayloadMarker) {
  coap::Message message;
  message.code = coap::Code::kContent;
  message.payload = util::to_bytes("</sensors>");
  const auto decoded = coap::decode(coap::encode(message));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(util::to_string(decoded->payload), "</sensors>");
}

TEST(CoapCodec, RejectsBadVersion) {
  util::Bytes data = {0x80, 0x01, 0x00, 0x01};  // version 2
  EXPECT_FALSE(coap::decode(data));
}

TEST(CoapCodec, RejectsTruncated) {
  EXPECT_FALSE(coap::decode(util::Bytes{0x40}));
  EXPECT_FALSE(coap::decode(util::Bytes{}));
}

TEST(CoapCodec, RejectsMarkerWithoutPayload) {
  coap::Message message;
  auto encoded = coap::encode(message);
  encoded.push_back(0xff);  // marker then nothing
  EXPECT_FALSE(coap::decode(encoded));
}

TEST(CoapCodec, LongOptionValuesUseExtendedLength) {
  coap::Message message;
  message.code = coap::Code::kGet;
  coap::Option option;
  option.number = coap::kOptionUriPath;
  option.value = util::Bytes(300, 'a');  // needs the 14 nibble
  message.options.push_back(option);
  const auto decoded = coap::decode(coap::encode(message));
  ASSERT_TRUE(decoded);
  ASSERT_EQ(decoded->options.size(), 1u);
  EXPECT_EQ(decoded->options[0].value.size(), 300u);
}

TEST(CoapCodec, OptionDeltaOrdering) {
  coap::Message message;
  message.options.push_back({coap::kOptionContentFormat, {40}});
  message.options.push_back(
      {coap::kOptionUriPath, util::to_bytes("x")});  // lower number
  const auto decoded = coap::decode(coap::encode(message));
  ASSERT_TRUE(decoded);
  ASSERT_EQ(decoded->options.size(), 2u);
  // Encoder must have sorted by option number for delta encoding.
  EXPECT_EQ(decoded->options[0].number, coap::kOptionUriPath);
  EXPECT_EQ(decoded->options[1].number, coap::kOptionContentFormat);
}

// ------------------------------------------------------------------- amqp

TEST(AmqpCodec, ProtocolHeader) {
  const auto header = amqp::protocol_header();
  EXPECT_TRUE(amqp::is_protocol_header(header));
  EXPECT_FALSE(amqp::is_protocol_header(util::to_bytes("HTTP/1.1")));
}

TEST(AmqpCodec, FrameRoundTrip) {
  amqp::Frame frame;
  frame.type = amqp::FrameType::kMethod;
  frame.channel = 3;
  frame.payload = util::to_bytes("payload");
  std::size_t consumed = 0;
  const auto decoded = amqp::decode_frame(amqp::encode_frame(frame), &consumed);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->channel, 3);
  EXPECT_EQ(util::to_string(decoded->payload), "payload");
  EXPECT_EQ(consumed, 7u + 7u + 1u);
}

TEST(AmqpCodec, FrameRejectsBadEndMarker) {
  amqp::Frame frame;
  frame.payload = util::to_bytes("x");
  auto encoded = amqp::encode_frame(frame);
  encoded.back() = 0x00;  // corrupt frame-end octet
  EXPECT_FALSE(amqp::decode_frame(encoded, nullptr));
}

TEST(AmqpCodec, StartRoundTrip) {
  amqp::StartMethod start;
  start.product = "RabbitMQ";
  start.version = "2.7.1";
  start.mechanisms = {"PLAIN", "ANONYMOUS"};
  const auto decoded = amqp::decode_start(amqp::encode_start(start));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->product, "RabbitMQ");
  EXPECT_EQ(decoded->version, "2.7.1");
  EXPECT_EQ(decoded->mechanisms,
            (std::vector<std::string>{"PLAIN", "ANONYMOUS"}));
}

TEST(AmqpCodec, StartOkRoundTrip) {
  amqp::StartOkMethod ok{"PLAIN", "guest", "guest"};
  const auto decoded = amqp::decode_start_ok(amqp::encode_start_ok(ok));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->mechanism, "PLAIN");
  EXPECT_EQ(decoded->user, "guest");
}

TEST(AmqpCodec, StartRejectsWrongMethod) {
  amqp::StartOkMethod ok{"PLAIN", "u", "p"};
  EXPECT_FALSE(amqp::decode_start(amqp::encode_start_ok(ok)));
}

// ------------------------------------------------------------------- ssdp

TEST(SsdpCodec, MSearchRoundTrip) {
  ssdp::MSearch request;
  request.search_target = "upnp:rootdevice";
  request.mx = 2;
  const auto decoded = ssdp::decode_msearch(ssdp::encode_msearch(request));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->search_target, "upnp:rootdevice");
  EXPECT_EQ(decoded->mx, 2);
}

TEST(SsdpCodec, MSearchRequiresManHeader) {
  EXPECT_FALSE(ssdp::decode_msearch(util::to_bytes("M-SEARCH * HTTP/1.1\r\n\r\n")));
  EXPECT_FALSE(ssdp::decode_msearch(util::to_bytes("GET / HTTP/1.1\r\n\r\n")));
}

TEST(SsdpCodec, ResponseRoundTrip) {
  ssdp::SearchResponse response;
  response.usn = "uuid:abc::upnp:rootdevice";
  response.server = "Ubuntu/lucid UPnP/1.0 MiniUPnPd/1.4";
  response.location = "http://192.0.2.1:16537/rootDesc.xml";
  response.extra["Model Name"] = "H108N";
  const auto decoded = ssdp::decode_response(ssdp::encode_response(response));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->usn, "uuid:abc::upnp:rootdevice");
  EXPECT_EQ(decoded->server, "Ubuntu/lucid UPnP/1.0 MiniUPnPd/1.4");
  EXPECT_EQ(decoded->extra.at("model name"), "H108N");
}

// ------------------------------------------------------------------- xmpp

TEST(XmppCodec, ExtractElement) {
  const std::string xml = "<a><b>inner</b></a>";
  EXPECT_EQ(xmpp::extract_element(xml, "b"), "inner");
  EXPECT_FALSE(xmpp::extract_element(xml, "c"));
}

TEST(XmppCodec, ExtractAllElements) {
  const std::string xml = "<m>PLAIN</m><m>ANONYMOUS</m>";
  const auto all = xmpp::extract_all_elements(xml, "m");
  EXPECT_EQ(all, (std::vector<std::string>{"PLAIN", "ANONYMOUS"}));
}

TEST(XmppCodec, ExtractAttribute) {
  const std::string xml = "<auth mechanism='PLAIN'>x</auth>";
  EXPECT_EQ(xmpp::extract_attribute(xml, "auth", "mechanism"), "PLAIN");
  const std::string xml2 = "<auth mechanism=\"ANONYMOUS\"/>";
  EXPECT_EQ(xmpp::extract_attribute(xml2, "auth", "mechanism"), "ANONYMOUS");
  EXPECT_FALSE(xmpp::extract_attribute(xml, "auth", "missing"));
}

TEST(XmppCodec, FeaturesAdvertiseMechanisms) {
  const auto features = xmpp::stream_features({"PLAIN", "ANONYMOUS"}, false);
  EXPECT_NE(features.find("<mechanism>PLAIN</mechanism>"), std::string::npos);
  EXPECT_NE(features.find("<mechanism>ANONYMOUS</mechanism>"),
            std::string::npos);
  EXPECT_EQ(features.find("<required/>"), std::string::npos);
  const auto strict = xmpp::stream_features({"SCRAM-SHA-1"}, true);
  EXPECT_NE(strict.find("<required/>"), std::string::npos);
}

// -------------------------------------------------------------------- ssh

TEST(SshCodec, AuthRoundTrip) {
  const auto encoded = ssh::encode_auth("root", "xc3511");
  const auto decoded = ssh::decode_auth(util::to_string(encoded));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->user, "root");
  EXPECT_EQ(decoded->pass, "xc3511");
  EXPECT_FALSE(ssh::decode_auth("GARBAGE line"));
}

// ------------------------------------------------------------------- http

TEST(HttpCodec, RequestRoundTrip) {
  http::Request request;
  request.method = "POST";
  request.path = "/login";
  request.headers["host"] = "device";
  request.body = "user=admin&pass=admin";
  const auto decoded =
      http::decode_request(util::to_string(http::encode_request(request)));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->method, "POST");
  EXPECT_EQ(decoded->path, "/login");
  EXPECT_EQ(decoded->headers.at("host"), "device");
  EXPECT_EQ(decoded->body, "user=admin&pass=admin");
}

TEST(HttpCodec, ResponseRoundTrip) {
  http::Response response;
  response.status = 401;
  response.reason = "Unauthorized";
  response.server = "lighttpd/1.4.54";
  response.body = "denied";
  const auto decoded =
      http::decode_response(util::to_string(http::encode_response(response)));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->status, 401);
  EXPECT_EQ(decoded->server, "lighttpd/1.4.54");
  EXPECT_EQ(decoded->body, "denied");
}

TEST(HttpCodec, RejectsNonHttp) {
  EXPECT_FALSE(http::decode_request("SSH-2.0-OpenSSH\r\n"));
  EXPECT_FALSE(http::decode_response("M-SEARCH * HTTP/1.1\r\n"));
}

// -------------------------------------------------------------------- smb

TEST(SmbCodec, FrameRoundTrip) {
  smb::SmbFrame frame;
  frame.command = smb::Command::kNegotiate;
  frame.payload = util::to_bytes("NT LM 0.12");
  std::size_t consumed = 0;
  const auto decoded = smb::decode_frame(smb::encode_frame(frame), &consumed);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->command, smb::Command::kNegotiate);
  EXPECT_EQ(util::to_string(decoded->payload), "NT LM 0.12");
}

TEST(SmbCodec, RejectsBadMagic) {
  auto encoded = smb::encode_frame(smb::SmbFrame{});
  encoded[4] = 0x00;  // clobber 0xFF S M B
  EXPECT_FALSE(smb::decode_frame(encoded, nullptr));
}

TEST(SmbCodec, EternalBlueProbeDetected) {
  std::size_t consumed = 0;
  const auto probe = smb::decode_frame(smb::eternalblue_probe(), &consumed);
  ASSERT_TRUE(probe);
  EXPECT_TRUE(smb::is_eternalblue_probe(*probe));
  smb::SmbFrame benign;
  benign.command = smb::Command::kEcho;
  EXPECT_FALSE(smb::is_eternalblue_probe(benign));
}

// ----------------------------------------------------------------- modbus

TEST(ModbusCodec, RequestRoundTrip) {
  modbus::Request request;
  request.transaction_id = 99;
  request.unit_id = 2;
  request.function = 0x03;
  request.data = {0x00, 0x01, 0x00, 0x02};
  std::size_t consumed = 0;
  const auto decoded =
      modbus::decode_request(modbus::encode_request(request), &consumed);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->transaction_id, 99);
  EXPECT_EQ(decoded->unit_id, 2);
  EXPECT_EQ(decoded->function, 0x03);
  EXPECT_EQ(decoded->data.size(), 4u);
}

TEST(ModbusCodec, ValidFunctionTable) {
  EXPECT_TRUE(modbus::is_valid_function(0x03));
  EXPECT_TRUE(modbus::is_valid_function(0x2b));
  EXPECT_FALSE(modbus::is_valid_function(0x00));
  EXPECT_FALSE(modbus::is_valid_function(0x63));
  int valid = 0;
  for (int code = 0; code < 256; ++code) {
    if (modbus::is_valid_function(static_cast<std::uint8_t>(code))) ++valid;
  }
  EXPECT_EQ(valid, 19);  // the nineteen public function codes (paper §5.1.4)
}

TEST(ModbusCodec, RejectsTruncated) {
  modbus::Request request;
  request.data = {1, 2, 3, 4};
  auto encoded = modbus::encode_request(request);
  encoded.resize(encoded.size() - 2);
  EXPECT_FALSE(modbus::decode_request(encoded, nullptr));
}

// --------------------------------------------------------------------- s7

TEST(S7Codec, CotpConnectRoundTrip) {
  std::size_t consumed = 0;
  const auto decoded = s7::decode(s7::encode_cotp_connect(), &consumed);
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(decoded->is_cotp_connect);
}

TEST(S7Codec, PduRoundTrip) {
  const auto encoded =
      s7::encode_pdu(s7::PduType::kJob, 42, util::to_bytes("read"));
  std::size_t consumed = 0;
  const auto decoded = s7::decode(encoded, &consumed);
  ASSERT_TRUE(decoded);
  EXPECT_FALSE(decoded->is_cotp_connect);
  EXPECT_EQ(decoded->pdu_type, s7::PduType::kJob);
  EXPECT_EQ(decoded->pdu_ref, 42);
  EXPECT_EQ(util::to_string(decoded->payload), "read");
  EXPECT_EQ(consumed, encoded.size());
}

TEST(S7Codec, RejectsWrongTpktVersion) {
  auto encoded = s7::encode_pdu(s7::PduType::kJob, 1, {});
  encoded[0] = 2;
  EXPECT_FALSE(s7::decode(encoded, nullptr));
}

// ---------------------------------------------------------------- service

TEST(Service, ProtocolPorts) {
  const auto ports = [](Protocol protocol) {
    const auto view = protocol_ports(protocol);
    return std::vector<std::uint16_t>(view.begin(), view.end());
  };
  EXPECT_EQ(ports(Protocol::kTelnet), (std::vector<std::uint16_t>{23, 2323}));
  EXPECT_EQ(ports(Protocol::kXmpp), (std::vector<std::uint16_t>{5222, 5269}));
  EXPECT_EQ(default_port(Protocol::kMqtt), 1883);
  EXPECT_TRUE(is_udp(Protocol::kCoap));
  EXPECT_TRUE(is_udp(Protocol::kUpnp));
  EXPECT_FALSE(is_udp(Protocol::kTelnet));
  EXPECT_EQ(scanned_protocols().size(), 6u);
}

TEST(Service, AuthConfigCheck) {
  const auto open = AuthConfig::open();
  EXPECT_TRUE(open.check("anything", "goes"));
  auto strict = AuthConfig::with("admin", "secret");
  EXPECT_TRUE(strict.check("admin", "secret"));
  EXPECT_FALSE(strict.check("admin", "wrong"));
  EXPECT_FALSE(strict.check("root", "secret"));
}

}  // namespace
}  // namespace ofh::proto
