#include "net/fabric.h"

#include <algorithm>
#include <vector>

#include "net/host.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ofh::net {

namespace {

// Fleet-wide fabric telemetry: sums over every Fabric instance, including
// the scan layer's private per-sweep replicas. All Domain::kSim — packet
// fates are pure functions of the simulation inputs, so these are
// byte-identical across scan_threads settings. Conservation invariant:
//   packets_sent ==
//       packets_delivered + packets_dropped + packets_faulted + inflight
// where inflight covers packets scheduled but not yet resolved when the
// simulation stops (zero after a full drain) and faulted counts terminal
// injector fates (drops and refusals; see net/faults.h).
struct FabricMetrics {
  obs::Counter sent = obs::counter("fabric.packets_sent");
  obs::Counter delivered = obs::counter("fabric.packets_delivered");
  obs::Counter dropped = obs::counter("fabric.packets_dropped");
  obs::Counter faulted = obs::counter("fabric.packets_faulted");
  obs::Counter host_crashes = obs::counter("fabric.host_crashes");
  obs::Gauge inflight = obs::gauge("fabric.packets_inflight");
  obs::Gauge hosts = obs::gauge("fabric.hosts_attached");
  obs::Histogram latency = obs::histogram("fabric.latency_usec");
  std::array<obs::Counter, kFaultKindCount> by_kind{};
};

const FabricMetrics& metrics() {
  static const FabricMetrics m = [] {
    FabricMetrics built;
    for (std::size_t i = 0; i < kFaultKindCount; ++i) {
      built.by_kind[i] = obs::counter(
          obs::labeled("fabric.faults_injected", "kind",
                       fault_kind_name(static_cast<FaultKind>(i))));
    }
    return built;
  }();
  return m;
}

void count_fault(FaultInjector& injector, FaultKind kind) {
  injector.count(kind);
  metrics().by_kind[static_cast<std::size_t>(kind)].inc();
}

void trace_fault(const Packet& packet, sim::Time now, FaultKind kind) {
  obs::trace_event(obs::TraceEventType::kPacketFault, now, packet.trace_id,
                   packet.src.value(), packet.dst.value(), packet.dst_port,
                   static_cast<std::uint8_t>(kind));
}

}  // namespace

void Fabric::register_host(Host& host) {
  hosts_[host.address().value()] = &host;
  metrics().hosts.add(1);
}

void Fabric::unregister_host(Host& host) {
  const auto it = hosts_.find(host.address().value());
  if (it != hosts_.end() && it->second == &host) {
    hosts_.erase(it);
    metrics().hosts.sub(1);
  }
}

sim::Duration Fabric::sample_latency(const Packet& packet) const {
  if (latency_jitter_ == 0) return latency_base_;
  // Latency is stable per (src, dst) pair: packets of one flow never
  // reorder, which the TCP-lite model (no sequence numbers) relies on.
  const std::uint64_t key =
      (std::uint64_t{packet.src.value()} << 32) | packet.dst.value();
  return latency_base_ + util::splitmix64(key) % latency_jitter_;
}

void Fabric::set_fault_schedule(const FaultSchedule& schedule) {
  if (schedule.empty()) {
    injector_.reset();
    return;
  }
  injector_ = std::make_unique<FaultInjector>(schedule, seed_);
  // Crash windows act on hosts, not packets: one sim event per boundary
  // wipes (start) or restores (end) the scoped hosts' connection state.
  for (const auto& window : schedule.windows) {
    if (window.kind != FaultKind::kCrash) continue;
    sim_.at(window.start,
            [this, window] { apply_crash_window(window, /*restart=*/false); });
    sim_.at(window.end,
            [this, window] { apply_crash_window(window, /*restart=*/true); });
  }
}

void Fabric::apply_crash_window(const FaultWindow& window, bool restart) {
  // Address-sorted victims: hosts_ is an unordered_map, and the kHostFault
  // event order must not depend on hash-table iteration order.
  std::vector<Host*> victims;
  // ofh-lint: allow(unordered-iteration) — collected then address-sorted below; hash order cannot reach the kHostFault event sequence
  for (const auto& [addr, host] : hosts_) {
    if (window.scope.contains(util::Ipv4Addr(addr))) victims.push_back(host);
  }
  std::sort(victims.begin(), victims.end(),
            [](const Host* lhs, const Host* rhs) {
              return lhs->address().value() < rhs->address().value();
            });
  for (Host* host : victims) {
    if (!restart) {
      host->fault_crash();
      metrics().host_crashes.inc();
    }
    obs::trace_event(obs::TraceEventType::kHostFault, sim_.now(), 0,
                     host->address().value(), 0, 0, restart ? 1 : 0);
  }
}

void Fabric::note_sent(const Packet& packet, sim::Time when) {
  ++packets_sent_;
  metrics().sent.inc();
  metrics().inflight.add(1);
  obs::trace_event(obs::TraceEventType::kPacketSend, when, packet.trace_id,
                   packet.src.value(), packet.dst.value(), packet.dst_port);
  for (PacketSink* tap : taps_) tap->observe(packet, when);
}

void Fabric::note_delivered(const Packet& packet, sim::Duration delay,
                            sim::Time when) {
  ++packets_delivered_;
  metrics().delivered.inc();
  metrics().inflight.sub(1);
  metrics().latency.observe(delay);
  obs::trace_event(obs::TraceEventType::kPacketDeliver, when, packet.trace_id,
                   packet.src.value(), packet.dst.value(), packet.dst_port);
}

void Fabric::note_dropped(const Packet& packet, sim::Time when) {
  ++packets_dropped_;
  metrics().dropped.inc();
  metrics().inflight.sub(1);
  obs::trace_event(obs::TraceEventType::kPacketDrop, when, packet.trace_id,
                   packet.src.value(), packet.dst.value(), packet.dst_port);
}

void Fabric::send(Packet packet) {
  // A packet sent from inside a traced context (a probe, or a host
  // responding to a traced delivery) inherits the ambient causal id.
  if (packet.trace_id == 0) packet.trace_id = obs::current_trace_id();
  note_sent(packet, sim_.now());

  if (loss_rate_ > 0 && rng_.chance(loss_rate_)) {
    note_dropped(packet, sim_.now());
    return;
  }

  sim::Duration extra_delay = 0;
  if (injector_ != nullptr) {
    const FaultDecision decision = injector_->decide(packet, sim_.now());
    if (decision.drop) {
      count_fault(*injector_, decision.drop_kind);
      ++packets_faulted_;
      metrics().faulted.inc();
      metrics().inflight.sub(1);
      trace_fault(packet, sim_.now(), decision.drop_kind);
      return;
    }
    if (decision.refuse) {
      count_fault(*injector_, FaultKind::kRefusal);
      ++packets_faulted_;
      metrics().faulted.inc();
      metrics().inflight.sub(1);
      trace_fault(packet, sim_.now(), FaultKind::kRefusal);
      // The ICMP-unreachable analogue in a TCP-lite world: answer the SYN
      // with an RST on the refused host's behalf, through the normal send
      // path (an RST is not a SYN, so this cannot recurse into refusal).
      Packet rst;
      rst.src = packet.dst;
      rst.dst = packet.src;
      rst.src_port = packet.dst_port;
      rst.dst_port = packet.src_port;
      rst.transport = Transport::kTcp;
      rst.tcp_flags = TcpFlags::kRst;
      rst.trace_id = packet.trace_id;
      send(std::move(rst));
      return;
    }
    if (decision.duplicate) {
      count_fault(*injector_, FaultKind::kDuplicate);
      trace_fault(packet, sim_.now(), FaultKind::kDuplicate);
      Packet copy = packet;
      copy.fault_copy = true;
      send(std::move(copy));  // counts as its own sent packet
    }
    if (decision.spike_delay > 0) {
      count_fault(*injector_, FaultKind::kLatencySpike);
      trace_fault(packet, sim_.now(), FaultKind::kLatencySpike);
      extra_delay += decision.spike_delay;
    }
    if (decision.reorder_delay > 0) {
      count_fault(*injector_, FaultKind::kReorder);
      trace_fault(packet, sim_.now(), FaultKind::kReorder);
      extra_delay += decision.reorder_delay;
    }
  }
  deliver_packet(std::move(packet), extra_delay);
}

void Fabric::send_flow(std::vector<FlowPacket> batch) {
  // Packets fire from the event loop, so (like the scheduled sends this
  // replaces) they never adopt the caller's ambient trace context: a flow
  // packet's trace_id is whatever the caller stamped, usually 0.
  const bool fabric_clean = injector_ == nullptr && loss_rate_ == 0.0;
  struct InlineSend {
    std::size_t index;
    sim::Time when;
  };
  std::vector<InlineSend> inline_sends;
  inline_sends.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    FlowPacket& fp = batch[i];
    if (fabric_clean && sink_for(fp.packet.dst) != nullptr) {
      inline_sends.push_back({i, fp.when});
      continue;
    }
    // Ineligible (lossy/faulty fabric, or a non-darknet destination):
    // exactly the per-packet scheduling this API replaces.
    sim_.at(fp.when, [this, packet = std::move(fp.packet)]() mutable {
      send(std::move(packet));
    });
  }
  if (inline_sends.empty()) return;

  // Phase 1 — sends, in the order the event queue would run them: by time,
  // ties broken by scheduling (input) order.
  std::stable_sort(inline_sends.begin(), inline_sends.end(),
                   [](const InlineSend& lhs, const InlineSend& rhs) {
                     return lhs.when < rhs.when;
                   });
  struct InlineDelivery {
    sim::Time when;
    std::size_t rank;  // send order == the delivery event's scheduling order
    std::size_t index;
    sim::Duration delay;
  };
  std::vector<InlineDelivery> deliveries;
  deliveries.reserve(inline_sends.size());
  for (std::size_t rank = 0; rank < inline_sends.size(); ++rank) {
    const InlineSend& entry = inline_sends[rank];
    const Packet& packet = batch[entry.index].packet;
    note_sent(packet, entry.when);
    const sim::Duration delay = sample_latency(packet);
    deliveries.push_back({entry.when + delay, rank, entry.index, delay});
  }

  // Phase 2 — darknet deliveries, again in event-queue order. Running all
  // sends before all deliveries is safe because taps and sinks are
  // independent observers keyed by the `when` timestamps they are handed.
  std::stable_sort(deliveries.begin(), deliveries.end(),
                   [](const InlineDelivery& lhs, const InlineDelivery& rhs) {
                     return lhs.when != rhs.when ? lhs.when < rhs.when
                                                 : lhs.rank < rhs.rank;
                   });
  for (const InlineDelivery& entry : deliveries) {
    const Packet& packet = batch[entry.index].packet;
    note_delivered(packet, entry.delay, entry.when);
    sink_for(packet.dst)->observe(packet, entry.when);
  }
}

void Fabric::send_flood(std::vector<Packet> packets) {
  if (packets.empty()) return;
  // send() semantics: synchronous sends from the caller's context, so the
  // ambient causal id is adopted here.
  for (Packet& packet : packets) {
    if (packet.trace_id == 0) packet.trace_id = obs::current_trace_id();
  }

  const util::Ipv4Addr victim = packets.front().dst;
  const std::uint16_t port = packets.front().dst_port;
  bool uniform = true;
  for (const Packet& packet : packets) {
    if (packet.dst.value() != victim.value() || packet.dst_port != port ||
        packet.transport != Transport::kTcp || !packet.is_syn_only()) {
      uniform = false;
      break;
    }
  }
  LazyHostSource::Verdict verdict = LazyHostSource::Verdict::kNotOwned;
  bool emulate = uniform && injector_ == nullptr && loss_rate_ == 0.0 &&
                 lazy_source_ != nullptr && host_at(victim) == nullptr &&
                 sink_for(victim) == nullptr;
  if (emulate) {
    verdict = lazy_source_->classify(packets.front());
    emulate = verdict == LazyHostSource::Verdict::kMaterialize ||
              verdict == LazyHostSource::Verdict::kReset;
  }
  if (!emulate) {
    for (Packet& packet : packets) send(std::move(packet));
    return;
  }

  // Emulated flood: the victim is owned but unmaterialized, and its
  // TCP-lite passive-open behaviour is a pure function of (listener
  // prediction, half-open ledger), so the whole exchange resolves inline.
  const sim::Time t0 = sim_.now();
  struct SynDelivery {
    sim::Time when;
    std::size_t index;
    sim::Duration delay;
  };
  std::vector<SynDelivery> syns;
  syns.reserve(packets.size());
  // Send-side effects run synchronously in input order, exactly as the
  // per-packet send() loop would.
  for (std::size_t i = 0; i < packets.size(); ++i) {
    note_sent(packets[i], t0);
    const sim::Duration delay = sample_latency(packets[i]);
    syns.push_back({t0 + delay, i, delay});
  }
  std::stable_sort(syns.begin(), syns.end(),
                   [](const SynDelivery& lhs, const SynDelivery& rhs) {
                     return lhs.when < rhs.when;
                   });

  // The victim's virtual kSynReceived entries. Entries whose GC horizon
  // already passed can never influence a query at t >= t0 again.
  auto& ledger = virtual_half_open_[victim.value()];
  std::erase_if(ledger,
                [t0](const VirtualHalfOpen& entry) { return entry.gc <= t0; });

  struct ReplyDelivery {
    Packet packet;
    sim::Time when;
    sim::Duration delay;
    std::size_t rank;
    PacketSink* sink;  // nullptr: consumed by an owned address, or dropped
    bool dropped;
  };
  std::vector<ReplyDelivery> replies;
  replies.reserve(packets.size());
  std::size_t rank = 0;
  for (const SynDelivery& entry : syns) {
    const Packet& syn = packets[entry.index];
    const sim::Time t = entry.when;
    note_delivered(syn, entry.delay, t);

    // Mirror TcpStack::handle's passive-open decision. A connection "exists"
    // if a live ledger entry holds the same (src, src_port) key.
    const std::uint64_t conn_key =
        (std::uint64_t{syn.src.value()} << 16) | syn.src_port;
    bool conn_exists = false;
    std::size_t half_open = 0;
    for (const VirtualHalfOpen& live : ledger) {
      if (live.gc > t) {
        ++half_open;
        if (live.key == conn_key) conn_exists = true;
      }
    }

    Packet reply;
    reply.src = victim;
    reply.dst = syn.src;
    reply.src_port = port;
    reply.dst_port = syn.src_port;
    reply.transport = Transport::kTcp;
    reply.trace_id = syn.trace_id;
    const bool accept = verdict == LazyHostSource::Verdict::kMaterialize &&
                        !conn_exists &&
                        half_open < TcpStack::kDefaultBacklogLimit;
    if (accept) {
      obs::trace_event(obs::TraceEventType::kTcpState, t, syn.trace_id,
                       victim.value(), syn.src.value(), port,
                       static_cast<std::uint8_t>(obs::TcpTrace::kSynReceived));
      reply.tcp_flags = TcpFlags::kSyn | TcpFlags::kAck;
      ledger.push_back({conn_key, t + TcpStack::kHalfOpenGcDelay});
    } else {
      if (verdict == LazyHostSource::Verdict::kMaterialize && !conn_exists) {
        note_emulated_backlog_drop();  // refused for capacity, not absence
      }
      // Like the real inline-RST path: no tcp.resets_sent, no state trace.
      reply.tcp_flags = TcpFlags::kRst;
    }

    note_sent(reply, t);
    const sim::Duration reply_delay = sample_latency(reply);
    const sim::Time reply_when = t + reply_delay;
    if (PacketSink* sink = sink_for(reply.dst)) {
      // Backscatter into a darknet: the common case for spoofed sources.
      replies.push_back(
          {std::move(reply), reply_when, reply_delay, rank++, sink, false});
    } else if (host_at(reply.dst) != nullptr) {
      // A spoofed source colliding with a registered host: hand off to the
      // event path at the send time so delivery-time host resolution (the
      // churn rule) stays exact.
      sim_.at(t, [this, reply = std::move(reply)]() mutable {
        deliver_packet(std::move(reply), 0);
      });
    } else if (lazy_source_->classify(reply) !=
               LazyHostSource::Verdict::kNotOwned) {
      // Owned but unmaterialized: a real stack ignores a SYN|ACK or RST
      // with no matching connection — delivered, consumed, no reaction.
      replies.push_back(
          {std::move(reply), reply_when, reply_delay, rank++, nullptr, false});
    } else {
      replies.push_back(
          {std::move(reply), reply_when, reply_delay, rank++, nullptr, true});
    }
  }

  std::stable_sort(replies.begin(), replies.end(),
                   [](const ReplyDelivery& lhs, const ReplyDelivery& rhs) {
                     return lhs.when != rhs.when ? lhs.when < rhs.when
                                                 : lhs.rank < rhs.rank;
                   });
  for (const ReplyDelivery& entry : replies) {
    if (entry.dropped) {
      note_dropped(entry.packet, entry.when);
    } else {
      note_delivered(entry.packet, entry.delay, entry.when);
      if (entry.sink != nullptr) entry.sink->observe(entry.packet, entry.when);
    }
  }
}

void Fabric::deliver_packet(Packet packet, sim::Duration extra_delay) {
  const sim::Duration delay = sample_latency(packet) + extra_delay;
  // Darknet ranges swallow traffic into their sink: no host ever answers.
  // The sink is looked up again at delivery rather than captured, which
  // keeps the closure inline; darknets_ only grows and the first match
  // wins, so it is the sink that owned the address at send time.
  if (sink_for(packet.dst) != nullptr) {
    auto deliver = [this, delay, packet = std::move(packet)] {
      note_delivered(packet, delay, sim_.now());
      sink_for(packet.dst)->observe(packet, sim_.now());
    };
    static_assert(sim::SmallCallable::stores_inline<decltype(deliver)>,
                  "a darknet delivery must not allocate per packet");
    sim_.after(delay, std::move(deliver));
    return;
  }

  auto deliver = [this, delay, packet = std::move(packet)]() mutable {
    // Resolve at delivery time: hosts may churn while the packet is in
    // flight, in which case the packet is silently lost (as on the real
    // Internet when a route disappears).
    Host* host = host_at(packet.dst);
    if (host == nullptr && lazy_source_ != nullptr) {
      // The address may be owned by the lazy source: an unmaterialized
      // population device. classify() answers what the real stacks would
      // do so most packets never force a Host into existence.
      switch (lazy_source_->classify(packet)) {
        case LazyHostSource::Verdict::kNotOwned:
          break;  // genuinely unrouted: fall through to the drop path
        case LazyHostSource::Verdict::kConsume:
          // Delivered into a real stack that would not react (stray ACK,
          // unbound UDP port): accounting only.
          note_delivered(packet, delay, sim_.now());
          return;
        case LazyHostSource::Verdict::kReset: {
          note_delivered(packet, delay, sim_.now());
          // Mirror TcpStack::handle's closed-port reply: a manual RST
          // through the normal send path, inheriting the SYN's causal id
          // (the real path adopts it from the delivery's ambient context).
          // Like that inline path, this does not count tcp.resets_sent.
          Packet rst;
          rst.src = packet.dst;
          rst.dst = packet.src;
          rst.src_port = packet.dst_port;
          rst.dst_port = packet.src_port;
          rst.transport = Transport::kTcp;
          rst.tcp_flags = TcpFlags::kRst;
          rst.trace_id = packet.trace_id;
          send(std::move(rst));
          return;
        }
        case LazyHostSource::Verdict::kMaterialize:
          host = lazy_source_->materialize(packet.dst);
          break;
      }
    }
    if (host == nullptr) {
      note_dropped(packet, sim_.now());
      return;
    }
    note_delivered(packet, delay, sim_.now());
    host->deliver(packet);
  };
  static_assert(sim::SmallCallable::stores_inline<decltype(deliver)>,
                "a packet delivery must not allocate per packet");
  sim_.after(delay, std::move(deliver));
}

}  // namespace ofh::net
