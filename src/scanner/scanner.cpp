#include "scanner/scanner.h"

#include <algorithm>
#include <type_traits>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "proto/amqp.h"
#include "proto/coap.h"
#include "proto/mqtt.h"
#include "proto/service.h"
#include "proto/ssdp.h"
#include "proto/xmpp.h"
#include "util/strings.h"

namespace ofh::scanner {

namespace {

// Sweep-layer telemetry. Totals are Domain::kSim: each sweep runs in its own
// deterministic shard regardless of scan_threads, so the sums match across
// thread counts. Per-protocol hit-rate counters are interned lazily at sweep
// start (see Scanner::start).
struct ScannerMetrics {
  obs::Counter probes = obs::counter("scanner.probes_sent");
  obs::Counter records = obs::counter("scanner.records");
  obs::Counter banner_grabs = obs::counter("scanner.banner_grabs");
  // Per-target outcome trio: probes_sent == the sum of these three once
  // every sweep drains (the accounting identity of tests/faults_test.cpp).
  obs::Counter responsive = obs::counter("scanner.targets_responsive");
  obs::Counter refused = obs::counter("scanner.targets_refused");
  obs::Counter unresolved = obs::counter("scanner.targets_unresolved");
  obs::Counter retries = obs::counter("scanner.probe_retries");
};

const ScannerMetrics& metrics() {
  static const ScannerMetrics m;
  return m;
}

// Exponential backoff with deterministic jitter: the jitter is a pure
// function of (seed, target, port, attempt), so the retry timeline is
// identical on every run and for every scan_threads value.
sim::Duration retry_delay(const ScanConfig& config, util::Ipv4Addr target,
                          std::uint16_t port, std::uint32_t attempt) {
  sim::Duration delay = config.retry_backoff * (std::uint64_t{1} << (attempt - 1));
  if (config.retry_jitter > 0) {
    delay += util::splitmix64(config.seed ^
                              (std::uint64_t{target.value()} << 16) ^
                              (std::uint64_t{port} << 3) ^ attempt) %
             config.retry_jitter;
  }
  return delay;
}

}  // namespace

std::vector<util::Cidr> default_blocklist() {
  // The standing ZMap blocklist: RFC1918, loopback, link-local, multicast,
  // and other special-purpose ranges.
  const auto cidr = [](const char* text) { return *util::Cidr::parse(text); };
  return {
      cidr("0.0.0.0/8"),      cidr("10.0.0.0/8"),     cidr("100.64.0.0/10"),
      cidr("127.0.0.0/8"),    cidr("169.254.0.0/16"), cidr("172.16.0.0/12"),
      cidr("192.0.0.0/24"),   cidr("192.0.2.0/24"),   cidr("192.168.0.0/16"),
      cidr("198.18.0.0/15"),  cidr("198.51.100.0/24"), cidr("203.0.113.0/24"),
      cidr("224.0.0.0/4"),    cidr("240.0.0.0/4"),
  };
}

struct Scanner::Sweep {
  ScanConfig config;
  DoneCallback done;
  // Cumulative range table mapping permutation index -> address.
  struct Range {
    std::uint32_t base;
    std::uint64_t size;
  };
  std::vector<Range> ranges;
  // ends[i] = cumulative address count through ranges[0..i]; address_at
  // binary-searches it, so the per-probe lookup is O(log ranges) instead of
  // a linear walk (at paper scale a sweep spans thousands of prefixes and
  // issues one lookup per permutation index).
  std::vector<std::uint64_t> ends;
  std::unique_ptr<AddressPermutation> permutation;
  std::uint64_t outstanding = 0;
  bool exhausted = false;
  bool finished = false;
  // UDP probe state: address -> accumulated response bytes.
  std::unordered_map<std::uint32_t, std::string> udp_waiting;
  std::uint16_t udp_port = 0;
  // Per-protocol hit-rate pair: probes{protocol=...} / responses{protocol=...}.
  obs::Counter probes_by_proto;
  obs::Counter responses_by_proto;

  util::Ipv4Addr address_at(std::uint64_t index) const {
    const auto it = std::upper_bound(ends.begin(), ends.end(), index);
    if (it == ends.end()) return util::Ipv4Addr(0);
    const auto slot = static_cast<std::size_t>(it - ends.begin());
    const std::uint64_t start = slot == 0 ? 0 : ends[slot - 1];
    return util::Ipv4Addr(ranges[slot].base +
                          static_cast<std::uint32_t>(index - start));
  }

  bool blocked(util::Ipv4Addr addr) const {
    for (const auto& range : config.blocklist) {
      if (range.contains(addr)) return true;
    }
    return false;
  }
};

void Scanner::start(ScanConfig config, DoneCallback done) {
  auto sweep = std::make_shared<Sweep>();
  sweep->config = std::move(config);
  sweep->done = std::move(done);
  const std::string_view proto_name =
      proto::protocol_name(sweep->config.protocol);
  sweep->probes_by_proto =
      obs::counter(obs::labeled("scanner.probes", "protocol", proto_name));
  sweep->responses_by_proto =
      obs::counter(obs::labeled("scanner.responses", "protocol", proto_name));

  std::uint64_t total = 0;
  sweep->ranges.reserve(sweep->config.targets.size());
  sweep->ends.reserve(sweep->config.targets.size());
  for (const auto& target : sweep->config.targets) {
    sweep->ranges.push_back({target.base().value(), target.size()});
    total += target.size();
    sweep->ends.push_back(total);
  }
  sweep->permutation =
      std::make_unique<AddressPermutation>(total, sweep->config.seed);

  if (proto::is_udp(sweep->config.protocol)) {
    // One source port per sweep; responses are matched by source address
    // (the custom-script UDP methodology of §3.1.1). The port must be
    // unique among live sweeps: two sweeps sharing a port would mean the
    // second bind() replaces the first sweep's response handler, and
    // whichever finished first would unbind the other's live handler.
    sweep->udp_port = allocate_udp_source_port(sweep->config.seed);
    std::weak_ptr<Sweep> weak = sweep;
    udp().bind(sweep->udp_port, [weak](const net::Datagram& datagram) {
      const auto sweep = weak.lock();
      if (!sweep) return;
      const auto it = sweep->udp_waiting.find(datagram.src.value());
      if (it == sweep->udp_waiting.end()) return;
      it->second += util::to_string(datagram.payload);
    });
  }

  pump(std::move(sweep));
}

std::uint16_t Scanner::allocate_udp_source_port(std::uint64_t seed) {
  // Seed-derived starting point inside [50000, 60000), then linear probe to
  // the first port with no live handler. Ports are released by finish_probe
  // when a sweep completes, so exhaustion would need 10,000 concurrent UDP
  // sweeps on one scanner host.
  const auto offset = static_cast<std::uint16_t>(seed % 10'000);
  for (std::uint32_t step = 0; step < 10'000; ++step) {
    const auto port =
        static_cast<std::uint16_t>(50'000 + (offset + step) % 10'000);
    if (!udp().bound(port)) return port;
  }
  return 0;  // unreachable in practice; 0 means "no port" downstream
}

void Scanner::pump(std::shared_ptr<Sweep> sweep) {
  for (std::uint32_t i = 0; i < sweep->config.batch_size; ++i) {
    const auto index = sweep->permutation->next();
    if (!index) {
      sweep->exhausted = true;
      if (sweep->outstanding == 0) finish_probe(*sweep);  // nothing in flight
      return;
    }
    const util::Ipv4Addr target = sweep->address_at(*index);
    if (sweep->blocked(target)) continue;
    probe(sweep, target);
  }
  sim().after_fixed(sweep->config.tick, [this, sweep] { pump(sweep); });
}

void Scanner::probe(const std::shared_ptr<Sweep>& sweep,
                    util::Ipv4Addr target) {
  ++probes_sent_;
  db_->note_probe();
  metrics().probes.inc();
  sweep->probes_by_proto.inc();
  const auto ports = proto::protocol_ports(sweep->config.protocol);
  // Mint one causal id per probe (covering both ports of a multi-port
  // protocol) and keep it ambient while the probe traffic is issued, so
  // everything downstream — connect, banner exchange, honeypot log entry —
  // carries the id of this probe.
  const std::uint64_t trace_id = obs::mint_trace_id();
  const obs::TraceContext trace_context(trace_id);
  obs::trace_event(obs::TraceEventType::kProbe, sim().now(), trace_id,
                   address().value(), target.value(), ports.front(),
                   static_cast<std::uint8_t>(obs::TraceProbeOrigin::kScanner),
                   static_cast<std::uint8_t>(sweep->config.protocol));
  // One outstanding entry — and exactly one booked outcome — per target,
  // however many ports the protocol probes.
  ++sweep->outstanding;
  if (proto::is_udp(sweep->config.protocol)) {
    probe_udp(sweep, target, ports.front(), /*attempt=*/1);
  } else {
    // Multi-port protocols (Telnet 23+2323, XMPP 5222+5269) probe each port;
    // one outcome slot gathers their fates.
    const std::uint32_t outcome = outcomes_.acquire();
    outcomes_[outcome].pending = static_cast<int>(ports.size());
    for (const auto port : ports) {
      const std::uint32_t slot = port_probes_.acquire();
      port_probes_[slot] =
          PortProbe{sweep, outcome, target, port, /*attempt=*/1, trace_id};
      probe_tcp(slot);
    }
  }
}

sim::Duration Scanner::note_retry(const Sweep& sweep, util::Ipv4Addr target,
                                 std::uint16_t port, std::uint32_t attempt) {
  db_->note_retries();
  metrics().retries.inc();
  return retry_delay(sweep.config, target, port, attempt);
}

void Scanner::port_resolved(std::uint32_t slot) {
  // The sweep outlives its last port probe: this holds it until the target
  // is booked and, if that was the sweep's last one, `done` has run.
  const std::shared_ptr<Sweep> sweep = std::move(port_probes_[slot].sweep);
  const std::uint32_t outcome_slot = port_probes_[slot].outcome;
  port_probes_.release(slot);
  TargetOutcome& outcome = outcomes_[outcome_slot];
  if (--outcome.pending > 0) return;
  const bool responsive = outcome.responsive;
  const bool refused = outcome.refused;
  outcomes_.release(outcome_slot);
  resolve_target(*sweep, responsive, refused);
}

void Scanner::resolve_target(Sweep& sweep, bool responsive, bool refused) {
  if (responsive) {
    db_->note_responsive();
    metrics().responsive.inc();
  } else if (refused) {
    db_->note_refused();
    metrics().refused.inc();
  } else {
    db_->note_unresolved();
    metrics().unresolved.inc();
  }
  finish_probe(sweep);
}

void Scanner::probe_tcp(std::uint32_t slot) {
  const PortProbe& probe = port_probes_[slot];
  // The handler names the probe by slot, so libstdc++'s std::function (two
  // pointers of local storage) keeps it inside the SynSent record.
  const auto handler = [this, slot](net::TcpConnection* conn,
                                    net::ConnectOutcome result) {
    on_connect(slot, conn, result);
  };
  static_assert(sizeof(handler) <= 2 * sizeof(void*) &&
                    std::is_trivially_copyable_v<decltype(handler)>,
                "the connect handler must fit std::function's local storage");
  tcp().connect_ex(probe.target, probe.port, handler,
                   probe.sweep->config.connect_timeout);
}

void Scanner::on_connect(std::uint32_t slot, net::TcpConnection* conn,
                         net::ConnectOutcome result) {
  PortProbe& probe = port_probes_[slot];
  const Sweep& sweep = *probe.sweep;
  if (conn == nullptr) {  // refused, timed out, or filtered
    if (result == net::ConnectOutcome::kTimeout &&
        probe.attempt < sweep.config.max_attempts) {
      // A timeout is indistinguishable from loss: try again, in the same
      // slot. A refusal is an answer and resolves the port immediately.
      const sim::Duration delay =
          note_retry(sweep, probe.target, probe.port, probe.attempt);
      ++probe.attempt;
      const auto resend = [this, slot, trace_id = probe.trace_id] {
        // The retry re-sends under the original probe's causal id: it is
        // the same probe, trying again. The connect timeout that led here
        // fired from a bare timer where no context is ambient.
        const obs::TraceContext trace_context(trace_id);
        probe_tcp(slot);
      };
      static_assert(sim::SmallCallable::stores_inline<decltype(resend)>);
      sim().after(delay, resend);
      return;
    }
    if (result == net::ConnectOutcome::kRefused) {
      outcomes_[probe.outcome].refused = true;
    }
    port_resolved(slot);
    return;
  }
  outcomes_[probe.outcome].responsive = true;
  const proto::Protocol protocol = sweep.config.protocol;
  // ZGrab stage: optional protocol-specific stimulus, then collect
  // whatever arrives during the banner window.
  auto collected = std::make_shared<std::string>();
  switch (protocol) {
    case proto::Protocol::kMqtt: {
      proto::mqtt::ConnectPacket connect;
      connect.client_id = "zgrab";
      conn->send(proto::mqtt::encode_connect(connect));
      break;
    }
    case proto::Protocol::kAmqp:
      conn->send(proto::amqp::protocol_header());
      break;
    case proto::Protocol::kXmpp:
      conn->send_text(proto::xmpp::stream_open("zgrab.scanner"));
      break;
    default:
      break;  // Telnet and friends: passive banner grab
  }

  conn->on_data = [collected, protocol](net::TcpConnection&,
                                        std::span<const std::uint8_t> data) {
    // Decode binary-framed protocols into the textual banner forms the
    // misconfiguration rules match on (Table 2).
    switch (protocol) {
      case proto::Protocol::kMqtt: {
        const auto header = proto::mqtt::decode_fixed_header(
            std::span<const std::uint8_t>(data));
        if (header && header->type == proto::mqtt::PacketType::kConnack &&
            data.size() >= header->header_size + 2) {
          const auto code = data[header->header_size + 1];
          *collected += "MQTT Connection Code:" + std::to_string(code);
        }
        break;
      }
      case proto::Protocol::kAmqp: {
        std::size_t consumed = 0;
        const auto frame = proto::amqp::decode_frame(
            std::span<const std::uint8_t>(data), &consumed);
        if (frame) {
          const auto start = proto::amqp::decode_start(frame->payload);
          if (start) {
            *collected += "Product: " + start->product +
                          " Version: " + start->version + " Mechanisms:";
            for (const auto& mechanism : start->mechanisms) {
              *collected += " " + mechanism;
            }
          }
        }
        break;
      }
      default:
        *collected += util::to_string(data);
        break;
    }
  };

  // Resolve the probe at the end of the banner window.
  const net::ConnKey key{conn->local_port(), conn->remote_addr(),
                         conn->remote_port()};
  sim().after_fixed(sweep.config.banner_wait, [this, slot, collected, key] {
    net::TcpConnection* live = tcp().lookup(key);
    if (live != nullptr) live->abort();
    const PortProbe& resolved = port_probes_[slot];
    ScanRecord record;
    record.host = resolved.target;
    record.port = resolved.port;
    record.protocol = resolved.sweep->config.protocol;
    record.banner = *collected;
    record.when = sim().now();
    store(*resolved.sweep, std::move(record));
    port_resolved(slot);
  });
}

void Scanner::send_udp_stimulus(Sweep& sweep, util::Ipv4Addr target,
                                std::uint16_t port) {
  switch (sweep.config.protocol) {
    case proto::Protocol::kCoap: {
      const auto request = proto::coap::make_discovery_request(
          static_cast<std::uint16_t>(target.value() & 0xffff));
      udp().send(target, port, proto::coap::encode(request), sweep.udp_port);
      break;
    }
    case proto::Protocol::kUpnp: {
      proto::ssdp::MSearch search;
      search.search_target = "upnp:rootdevice";
      udp().send(target, port, proto::ssdp::encode_msearch(search),
                 sweep.udp_port);
      break;
    }
    default:
      break;
  }
}

void Scanner::probe_udp(std::shared_ptr<Sweep> sweep, util::Ipv4Addr target,
                        std::uint16_t port, std::uint32_t attempt) {
  sweep->udp_waiting[target.value()];  // open collection slot
  // Captured for the deferred CoAP follow-up GET, which runs outside the
  // probe's ambient context.
  const std::uint64_t probe_trace_id = obs::current_trace_id();

  send_udp_stimulus(*sweep, target, port);

  sim().after_fixed(sweep->config.banner_wait,
                    [this, sweep, target, port, probe_trace_id, attempt] {
    const auto it = sweep->udp_waiting.find(target.value());
    std::string raw = it == sweep->udp_waiting.end() ? "" : it->second;
    sweep->udp_waiting.erase(target.value());

    if (raw.empty()) {  // silent: lost, filtered, or genuinely not exposed
      if (attempt < sweep->config.max_attempts) {
        // UDP gives no refusal signal, so silence is retried like a TCP
        // timeout (re-sending the discovery stimulus, not the follow-up).
        sim().after(note_retry(*sweep, target, port, attempt),
                    [this, sweep, target, port, attempt, probe_trace_id] {
                      // Re-sent under the original probe's causal id, as
                      // a TCP retry is.
                      const obs::TraceContext trace_context(probe_trace_id);
                      probe_udp(sweep, target, port, attempt + 1);
                    });
        return;
      }
      resolve_target(*sweep, /*responsive=*/false, /*refused=*/false);
      return;
    }

    if (sweep->config.protocol == proto::Protocol::kCoap) {
      // Decode the CoAP response into the textual response form of Table 3,
      // then follow up on a disclosed resource to distinguish full access
      // from a mere reflection resource.
      const auto message = proto::coap::decode(util::to_bytes(raw));
      std::string banner;
      if (message) {
        if (message->code == proto::coap::Code::kContent) {
          banner = "CoAP Resources " + util::to_string(message->payload);
        } else if (message->code == proto::coap::Code::kUnauthorized) {
          banner = "4.01 Unauthorized";
        } else {
          banner = "CoAP";
        }
      } else {
        banner = raw;
      }

      if (message && message->code == proto::coap::Code::kContent) {
        // Follow-up GET: admin resource if advertised, else the state
        // resource; the reply reveals the access level.
        const std::string payload = util::to_string(message->payload);
        const std::string follow_path = util::contains(payload, "<4/admin>") ||
                                                util::contains(payload, "admin")
                                            ? "admin"
                                            : "sensors/state";
        sweep->udp_waiting[target.value()];
        proto::coap::Message follow;
        follow.code = proto::coap::Code::kGet;
        follow.message_id =
            static_cast<std::uint16_t>((target.value() >> 8) & 0xffff);
        follow.set_uri_path(follow_path);
        {
          const obs::TraceContext trace_context(probe_trace_id);
          udp().send(target, port, proto::coap::encode(follow),
                     sweep->udp_port);
        }
        sim().after_fixed(sweep->config.banner_wait,
                          [this, sweep, target, port, banner] {
                      const auto follow_it =
                          sweep->udp_waiting.find(target.value());
                      std::string follow_raw = follow_it ==
                                                       sweep->udp_waiting.end()
                                                   ? ""
                                                   : follow_it->second;
                      sweep->udp_waiting.erase(target.value());
                      std::string full = banner;
                      const auto reply =
                          proto::coap::decode(util::to_bytes(follow_raw));
                      if (reply &&
                          reply->code == proto::coap::Code::kContent) {
                        full += "\n220 " + util::to_string(reply->payload);
                      } else if (reply) {
                        full += "\n4.01";
                      }
                      ScanRecord record;
                      record.host = target;
                      record.port = port;
                      record.protocol = proto::Protocol::kCoap;
                      record.banner = std::move(full);
                      record.when = sim().now();
                      store(*sweep, std::move(record));
                      resolve_target(*sweep, /*responsive=*/true,
                                     /*refused=*/false);
                    });
        return;
      }

      ScanRecord record;
      record.host = target;
      record.port = port;
      record.protocol = proto::Protocol::kCoap;
      record.banner = std::move(banner);
      record.when = sim().now();
      store(*sweep, std::move(record));
      resolve_target(*sweep, /*responsive=*/true, /*refused=*/false);
      return;
    }

    // UPnP: store the raw HTTPU response(s).
    ScanRecord record;
    record.host = target;
    record.port = port;
    record.protocol = sweep->config.protocol;
    record.banner = std::move(raw);
    record.when = sim().now();
    store(*sweep, std::move(record));
    resolve_target(*sweep, /*responsive=*/true, /*refused=*/false);
  });
}

void Scanner::store(Sweep& sweep, ScanRecord record) {
  metrics().records.inc();
  sweep.responses_by_proto.inc();
  if (!record.banner.empty()) metrics().banner_grabs.inc();
  db_->add(std::move(record));
}

void Scanner::finish_probe(Sweep& sweep) {
  if (sweep.outstanding > 0) --sweep.outstanding;
  if (sweep.exhausted && sweep.outstanding == 0 && !sweep.finished) {
    sweep.finished = true;
    if (sweep.udp_port != 0) udp().unbind(sweep.udp_port);
    if (sweep.done) sweep.done();
  }
}

}  // namespace ofh::scanner
