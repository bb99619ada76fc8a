#include "net/tcp.h"

#include <cassert>

#include "net/fabric.h"
#include "net/host.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace ofh::net {

namespace {

// Connection-level telemetry across every TcpStack (one per host). All
// Domain::kSim: handshake outcomes are deterministic per shard.
struct TcpMetrics {
  obs::Counter connects = obs::counter("tcp.connects");
  obs::Counter established = obs::counter("tcp.connects_established");
  obs::Counter timeouts = obs::counter("tcp.connect_timeouts");
  obs::Counter refused = obs::counter("tcp.connects_refused");
  obs::Counter accepts = obs::counter("tcp.accepts");
  obs::Counter resets = obs::counter("tcp.resets_sent");
  obs::Counter backlog_drops = obs::counter("tcp.backlog_drops");
};

const TcpMetrics& metrics() {
  static const TcpMetrics m;
  return m;
}

// One kTcpState trace event per transition, seen from this endpoint. The
// port is always the *service* port (the listener side), so a connection's
// client and server transitions group under the same port in reports.
void trace_state(Host& host, const ConnKey& key, std::uint64_t trace_id,
                 obs::TcpTrace state, std::uint16_t service_port) {
  obs::trace_event(obs::TraceEventType::kTcpState, host.sim().now(), trace_id,
                   host.address().value(), key.remote.value(), service_port,
                   static_cast<std::uint8_t>(state));
}

}  // namespace

// ---------------------------------------------------------------- connection

void TcpConnection::send(util::Bytes data) {
  if (state_ != State::kEstablished) return;
  bytes_sent_ += data.size();
  stack_.send_data(key_, std::move(data), trace_id_);
}

void TcpConnection::close() {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  stack_.send_flags(key_, TcpFlags::kFin | TcpFlags::kAck, trace_id_);
  stack_.erase(key_);  // destroys *this; no member access beyond here
}

void TcpConnection::abort() {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  stack_.send_flags(key_, TcpFlags::kRst, trace_id_);
  stack_.erase(key_);
}

util::Ipv4Addr TcpConnection::local_addr() const {
  return stack_.host().address();
}

// ------------------------------------------------------------ SYN_SENT table

std::size_t TcpStack::SynSentTable::home(const ConnKey& key) const {
  const std::uint64_t packed = (std::uint64_t{key.remote.value()} << 32) |
                               (std::uint64_t{key.local_port} << 16) |
                               key.remote_port;
  return static_cast<std::size_t>(util::splitmix64(packed)) &
         (slots_.size() - 1);
}

std::size_t TcpStack::SynSentTable::slot_of(const ConnKey& key) const {
  if (size_ == 0) return slots_.size();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.record == kEmpty) return slots_.size();
    if (slot.key == key) return i;
  }
}

std::size_t TcpStack::SynSentTable::free_slot(const ConnKey& key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(key);
  while (slots_[i].record != kEmpty) i = (i + 1) & mask;
  return i;
}

TcpStack::SynSent* TcpStack::SynSentTable::find(const ConnKey& key) {
  const std::size_t i = slot_of(key);
  return i == slots_.size() ? nullptr : &records_[slots_[i].record];
}

TcpStack::SynSent& TcpStack::SynSentTable::insert(const ConnKey& key) {
  assert(slot_of(key) == slots_.size());
  if (2 * (size_ + 1) > slots_.size()) grow();
  std::uint32_t record = 0;
  if (free_records_.empty()) {
    record = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
  } else {
    record = free_records_.back();
    free_records_.pop_back();
  }
  slots_[free_slot(key)] = Slot{key, record};
  ++size_;
  return records_[record];
}

TcpStack::ConnectOutcomeHandler TcpStack::SynSentTable::take(
    const ConnKey& key) {
  std::size_t hole = slot_of(key);
  assert(hole != slots_.size());
  const std::uint32_t record = slots_[hole].record;
  ConnectOutcomeHandler handler = std::move(records_[record].handler);
  records_[record].handler = nullptr;
  free_records_.push_back(record);
  --size_;
  // Backward-shift deletion: pull later members of the probe run into the
  // hole unless that would move one before its home slot.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t next = (hole + 1) & mask; slots_[next].record != kEmpty;
       next = (next + 1) & mask) {
    const std::size_t displacement = (next - home(slots_[next].key)) & mask;
    if (displacement >= ((next - hole) & mask)) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole].record = kEmpty;
  return handler;
}

void TcpStack::SynSentTable::clear() {
  slots_.clear();
  records_.clear();
  free_records_.clear();
  size_ = 0;
}

void TcpStack::SynSentTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? kInitialSlots : 2 * old.size(), Slot{});
  for (const Slot& slot : old) {
    if (slot.record != kEmpty) slots_[free_slot(slot.key)] = slot;
  }
}

// --------------------------------------------------------------------- stack

void TcpStack::connect(util::Ipv4Addr dst, std::uint16_t dst_port,
                       ConnectHandler handler, sim::Duration timeout) {
  connect_ex(
      dst, dst_port,
      [handler = std::move(handler)](TcpConnection* conn, ConnectOutcome) {
        if (handler) handler(conn);
      },
      timeout);
}

void TcpStack::connect_ex(util::Ipv4Addr dst, std::uint16_t dst_port,
                          ConnectOutcomeHandler handler,
                          sim::Duration timeout) {
  // Allocate an unused ephemeral port for this (remote, remote_port) pair.
  ConnKey key{0, dst, dst_port};
  for (int attempts = 0; attempts < 0x8000; ++attempts) {
    key.local_port = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ == 0xffff
                          ? static_cast<std::uint16_t>(32768)
                          : static_cast<std::uint16_t>(next_ephemeral_ + 1);
    if (syn_sent_.find(key) == nullptr && conns_.find(key) == conns_.end()) {
      break;
    }
  }

  const std::uint64_t trace_id = obs::current_trace_id();
  const std::uint64_t generation = ++next_generation_;
  SynSent& open = syn_sent_.insert(key);
  open.generation = generation;
  open.trace_id = trace_id;
  open.opened_at = host_.sim().now();
  open.handler = std::move(handler);
  metrics().connects.inc();
  trace_state(host_, key, trace_id, obs::TcpTrace::kSynSent, key.remote_port);
  send_flags(key, TcpFlags::kSyn, trace_id);

  // The timeout is keyed by (key, generation): once this open resolves, a
  // later open may reuse the key (the ephemeral allocator wraps at 0xffff),
  // and without the generation check this stale timer would time out the
  // newer, unrelated open.
  host_.sim().after_fixed(timeout, [this, key, generation] {
    const SynSent* pending = syn_sent_.find(key);
    if (pending == nullptr || pending->generation != generation) {
      return;  // already answered, reset, or a newer open
    }
    metrics().timeouts.inc();
    trace_state(host_, key, pending->trace_id, obs::TcpTrace::kTimeout,
                key.remote_port);
    const ConnectOutcomeHandler on_timeout = syn_sent_.take(key);
    if (on_timeout) on_timeout(nullptr, ConnectOutcome::kTimeout);
  });
}

void TcpStack::handle(const Packet& packet) {
  const ConnKey key{packet.dst_port, packet.src, packet.src_port};
  // A key names either an open awaiting its answer or a connection.
  SynSent* pending = syn_sent_.find(key);
  TcpConnection* conn = pending == nullptr ? find(key) : nullptr;
  // Service port for trace events: our local port when we listen on it
  // (server side), the remote port otherwise (client side).
  const auto service_port = [&] {
    return listeners_.count(key.local_port) != 0 ? key.local_port
                                                 : key.remote_port;
  };

  if (packet.has_flag(TcpFlags::kRst)) {
    if (pending != nullptr) {
      trace_state(host_, key, pending->trace_id, obs::TcpTrace::kRefused,
                  service_port());
      const ConnectOutcomeHandler on_refused = syn_sent_.take(key);
      metrics().refused.inc();
      if (on_refused) on_refused(nullptr, ConnectOutcome::kRefused);
      return;
    }
    if (conn == nullptr) return;
    conn->state_ = TcpConnection::State::kClosed;
    trace_state(host_, key, conn->trace_id_, obs::TcpTrace::kReset,
                service_port());
    auto on_close = conn->on_close;
    erase(key);
    if (on_close) {
      // The connection object is gone; closing notifications for RST carry
      // a transient object so services can log the teardown.
      TcpConnection closed(*this, key, TcpConnection::State::kClosed);
      on_close(closed);
    }
    return;
  }

  if (packet.is_syn_only()) {
    // Inbound connection attempt. A key in SYN_SENT (simultaneous open) is
    // taken, like one with a connection, and is answered with RST.
    const bool key_taken = pending != nullptr || conn != nullptr;
    const auto listener = listeners_.find(packet.dst_port);
    if (listener == listeners_.end() || key_taken ||
        half_open_count() >= backlog_limit_) {
      if (listener != listeners_.end() && !key_taken) {
        metrics().backlog_drops.inc();  // refused for capacity, not absence
      }
      Packet rst;
      rst.src = host_.address();
      rst.dst = packet.src;
      rst.src_port = packet.dst_port;
      rst.dst_port = packet.src_port;
      rst.transport = Transport::kTcp;
      rst.tcp_flags = TcpFlags::kRst;
      host_.fabric().send(std::move(rst));
      return;
    }
    auto server_conn = std::unique_ptr<TcpConnection>(
        new TcpConnection(*this, key, TcpConnection::State::kSynReceived));
    server_conn->opened_at_ = host_.sim().now();
    server_conn->trace_id_ = packet.trace_id;
    conns_[key] = std::move(server_conn);
    trace_state(host_, key, packet.trace_id, obs::TcpTrace::kSynReceived,
                key.local_port);
    send_flags(key, TcpFlags::kSyn | TcpFlags::kAck, packet.trace_id);
    // Garbage-collect half-open entries (e.g. spoofed SYNs never ACKed).
    host_.sim().after_fixed(kHalfOpenGcDelay, [this, key] {
      TcpConnection* half = find(key);
      if (half != nullptr &&
          half->state_ == TcpConnection::State::kSynReceived) {
        erase(key);
      }
    });
    return;
  }

  if (packet.has_flag(TcpFlags::kSyn) && packet.has_flag(TcpFlags::kAck)) {
    // SYN|ACK completing our active open: only now does it get a
    // connection object.
    if (pending == nullptr) return;
    auto established = std::unique_ptr<TcpConnection>(
        new TcpConnection(*this, key, TcpConnection::State::kEstablished));
    established->opened_at_ = pending->opened_at;
    established->trace_id_ = pending->trace_id;
    const ConnectOutcomeHandler on_established = syn_sent_.take(key);
    conn = established.get();
    conns_.emplace(key, std::move(established));
    metrics().established.inc();
    trace_state(host_, key, conn->trace_id_, obs::TcpTrace::kEstablished,
                key.remote_port);
    send_flags(key, TcpFlags::kAck, conn->trace_id_);
    if (on_established) on_established(conn, ConnectOutcome::kEstablished);
    return;
  }

  if (packet.has_flag(TcpFlags::kFin)) {
    if (pending != nullptr) {
      // A stray FIN for a key in SYN_SENT ends the open without an
      // outcome: the handler is dropped unrun and the timeout stands down.
      trace_state(host_, key, pending->trace_id, obs::TcpTrace::kClosed,
                  service_port());
      syn_sent_.take(key);
      return;
    }
    if (conn == nullptr) return;
    conn->state_ = TcpConnection::State::kClosed;
    trace_state(host_, key, conn->trace_id_, obs::TcpTrace::kClosed,
                service_port());
    auto on_close = conn->on_close;
    TcpConnection copy(*this, key, TcpConnection::State::kClosed);
    erase(key);
    if (on_close) on_close(copy);
    return;
  }

  if (packet.has_flag(TcpFlags::kAck) && packet.payload.empty()) {
    // Bare ACK: completes the passive open.
    if (conn != nullptr &&
        conn->state_ == TcpConnection::State::kSynReceived) {
      conn->state_ = TcpConnection::State::kEstablished;
      metrics().accepts.inc();
      trace_state(host_, key, conn->trace_id_, obs::TcpTrace::kAccepted,
                  key.local_port);
      const auto listener = listeners_.find(key.local_port);
      if (listener != listeners_.end() && listener->second) {
        listener->second(*conn);
      }
    }
    return;
  }

  if (!packet.payload.empty()) {
    if (conn == nullptr) return;
    if (conn->state_ == TcpConnection::State::kSynReceived) {
      // Data may arrive back-to-back with the ACK; promote implicitly.
      conn->state_ = TcpConnection::State::kEstablished;
      metrics().accepts.inc();
      trace_state(host_, key, conn->trace_id_, obs::TcpTrace::kAccepted,
                  key.local_port);
      const auto listener = listeners_.find(key.local_port);
      if (listener != listeners_.end() && listener->second) {
        listener->second(*conn);
      }
      conn = find(key);  // accept handler may have closed it
      if (conn == nullptr) return;
    }
    if (conn->state_ != TcpConnection::State::kEstablished) return;
    conn->bytes_received_ += packet.payload.size();
    if (conn->on_data) {
      // Invoke through a copy: the handler may close() the connection,
      // which erases it and would otherwise destroy the std::function
      // currently executing (and its captures) mid-call.
      auto on_data = conn->on_data;
      on_data(*conn, std::span<const std::uint8_t>(packet.payload));
    }
  }
}

void TcpStack::send_flags(const ConnKey& key, std::uint8_t flags,
                          std::uint64_t trace_id) {
  if (flags & TcpFlags::kRst) metrics().resets.inc();
  Packet packet;
  packet.src = host_.address();
  packet.dst = key.remote;
  packet.src_port = key.local_port;
  packet.dst_port = key.remote_port;
  packet.transport = Transport::kTcp;
  packet.tcp_flags = flags;
  // Segments carry the connection's causal id even when sent from a
  // deferred callback (banner-window abort) where no context is ambient.
  packet.trace_id = trace_id;
  host_.fabric().send(std::move(packet));
}

void TcpStack::send_data(const ConnKey& key, util::Bytes data,
                         std::uint64_t trace_id) {
  Packet packet;
  packet.src = host_.address();
  packet.dst = key.remote;
  packet.src_port = key.local_port;
  packet.dst_port = key.remote_port;
  packet.transport = Transport::kTcp;
  packet.tcp_flags = TcpFlags::kPsh | TcpFlags::kAck;
  packet.payload = std::move(data);
  packet.trace_id = trace_id;
  host_.fabric().send(std::move(packet));
}

void note_emulated_backlog_drop() { metrics().backlog_drops.inc(); }

std::size_t TcpStack::half_open_count() const {
  std::size_t n = 0;
  // ofh-lint: allow(unordered-iteration) — order-independent fold: counting matching states commutes, so iteration order cannot reach the result
  for (const auto& [key, conn] : conns_) {
    if (conn->state() == TcpConnection::State::kSynReceived) ++n;
  }
  return n;
}

}  // namespace ofh::net
