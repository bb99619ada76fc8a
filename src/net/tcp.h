// TCP-lite endpoint: listeners, three-way handshake, byte-stream exchange,
// FIN/RST teardown and connect timeouts. No sequence numbers or retransmit —
// the event queue already delivers in order; loss is modelled at the fabric
// and surfaces as connect timeouts (see DESIGN.md "TCP-lite").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/packet.h"
#include "sim/time.h"
#include "util/bytes.h"
#include "util/ipv4.h"

namespace ofh::net {

class Host;
class TcpStack;

class TcpConnection {
 public:
  // An active open gets a connection object only once its SYN|ACK
  // arrives; until then TcpStack holds a SynSent record for it.
  enum class State : std::uint8_t {
    kSynReceived,
    kEstablished,
    kClosed,
  };

  // Callbacks installed by the service/client that owns the session.
  std::function<void(TcpConnection&, std::span<const std::uint8_t>)> on_data;
  std::function<void(TcpConnection&)> on_close;

  void send(util::Bytes data);
  void send_text(std::string_view text) { send(util::to_bytes(text)); }
  void close();  // graceful FIN
  void abort();  // RST

  util::Ipv4Addr local_addr() const;
  util::Ipv4Addr remote_addr() const { return key_.remote; }
  std::uint16_t local_port() const { return key_.local_port; }
  std::uint16_t remote_port() const { return key_.remote_port; }
  State state() const { return state_; }
  bool established() const { return state_ == State::kEstablished; }
  sim::Time opened_at() const { return opened_at_; }
  // Causal id of the probe that opened this connection (obs/trace.h);
  // adopted from the ambient context at active open or from the SYN packet
  // at passive open, and stamped onto every segment the connection sends —
  // including deferred sends (banner-window aborts) that run outside the
  // originating context.
  std::uint64_t trace_id() const { return trace_id_; }

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }

 private:
  friend class TcpStack;
  TcpConnection(TcpStack& stack, ConnKey key, State state)
      : key_(key), stack_(stack), state_(state) {}

  ConnKey key_;
  TcpStack& stack_;
  State state_;
  std::uint64_t trace_id_ = 0;
  sim::Time opened_at_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

// How an active open resolved. Delivered alongside the connection pointer
// by connect_ex so callers can tell an answered refusal (RST: the host is
// up, the port is closed or fault-refused) from a silent timeout (SYN or
// SYN|ACK lost) — the distinction retry policies key on: refusals are
// answers and are never retried, timeouts may be.
enum class ConnectOutcome : std::uint8_t {
  kEstablished,
  kRefused,
  kTimeout,
};

class TcpStack {
 public:
  // Shared with the fabric's SYN-flood emulation (net/fabric.cpp), which
  // mirrors this stack's passive-open behaviour for unmaterialized victims:
  // the two must agree on the backlog ceiling and the half-open GC horizon
  // or emulated and real floods would diverge.
  static constexpr std::size_t kDefaultBacklogLimit = 4096;
  static constexpr sim::Duration kHalfOpenGcDelay = sim::seconds(30);

  // Invoked for each accepted inbound connection; install on_data/on_close
  // inside the handler.
  using AcceptHandler = std::function<void(TcpConnection&)>;
  // Invoked with the established connection, or nullptr on timeout/refusal.
  using ConnectHandler = std::function<void(TcpConnection*)>;
  // connect_ex variant carrying the outcome (nullptr iff not kEstablished).
  using ConnectOutcomeHandler =
      std::function<void(TcpConnection*, ConnectOutcome)>;

  explicit TcpStack(Host& host) : host_(host) {}
  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  void listen(std::uint16_t port, AcceptHandler handler) {
    listeners_[port] = std::move(handler);
  }
  void close_listener(std::uint16_t port) { listeners_.erase(port); }
  bool listening(std::uint16_t port) const {
    return listeners_.count(port) != 0;
  }

  void connect(util::Ipv4Addr dst, std::uint16_t dst_port,
               ConnectHandler handler,
               sim::Duration timeout = sim::seconds(5));
  void connect_ex(util::Ipv4Addr dst, std::uint16_t dst_port,
                  ConnectOutcomeHandler handler,
                  sim::Duration timeout = sim::seconds(5));

  // Packet ingress from the owning host.
  void handle(const Packet& packet);

  // Finds a live connection by key; nullptr if torn down. Deferred callbacks
  // must re-resolve connections through this instead of holding references.
  TcpConnection* lookup(const ConnKey& key) { return find(key); }

  // Connections plus active opens still awaiting an answer.
  std::size_t open_connections() const {
    return conns_.size() + syn_sent_.size();
  }

  // Limits half-open (SYN_RCVD) server-side entries, making SYN floods
  // observable as accept-queue exhaustion.
  void set_backlog_limit(std::size_t limit) { backlog_limit_ = limit; }

  // Power-loss semantics for host crash faults (net/faults.h kCrash):
  // every connection and pending active open vanishes without FIN/RST or
  // callbacks — the crashed software's completion handlers are gone with
  // it. Listeners survive: restarted firmware brings its services back up.
  // Deferred timers holding (key, generation) find nothing and stand down.
  void reset_connections() {
    syn_sent_.clear();
    conns_.clear();
  }

  // Test hook: pins the next ephemeral port so port-reuse scenarios (the
  // (key, generation) timeout regression) can be forced deterministically.
  void set_next_ephemeral(std::uint16_t port) { next_ephemeral_ = port; }

  Host& host() { return host_; }

 private:
  friend class TcpConnection;

  // An active open awaiting its answer (SYN_SENT). Like ZMap, the stack
  // keeps only this record per unanswered probe: the TcpConnection is
  // built when the SYN|ACK arrives, and an RST or the timeout resolves the
  // open from the record alone.
  struct SynSent {
    // Distinguishes successive opens reusing one key: the connect timeout
    // captures (key, generation) and stands down when the key now names a
    // newer open, or none.
    std::uint64_t generation = 0;
    std::uint64_t trace_id = 0;
    sim::Time opened_at = 0;
    ConnectOutcomeHandler handler;
  };

  // ConnKey -> SynSent. Open addressing with linear probing and
  // backward-shift deletion over 16-byte slots, kept at most half full;
  // the records sit in a dense vector with a free list, so a slot never
  // carries a record's bytes. Never iterated, so no order can leak.
  class SynSentTable {
   public:
    std::size_t size() const { return size_; }
    SynSent* find(const ConnKey& key);
    // Adds a record for a key that has none; the reference is valid until
    // the next insert.
    SynSent& insert(const ConnKey& key);
    // Removes the key's record and returns its handler.
    ConnectOutcomeHandler take(const ConnKey& key);
    void clear();

   private:
    static constexpr std::uint32_t kEmpty = 0xffffffffU;
    static constexpr std::size_t kInitialSlots = 8;
    struct Slot {
      ConnKey key;
      std::uint32_t record = kEmpty;
    };

    std::size_t home(const ConnKey& key) const;
    std::size_t slot_of(const ConnKey& key) const;  // slots_.size() if absent
    std::size_t free_slot(const ConnKey& key) const;  // first empty probe slot
    void grow();

    std::vector<Slot> slots_;  // power-of-two size, or empty
    std::vector<SynSent> records_;
    std::vector<std::uint32_t> free_records_;
    std::size_t size_ = 0;
  };

  void send_flags(const ConnKey& key, std::uint8_t flags,
                  std::uint64_t trace_id);
  void send_data(const ConnKey& key, util::Bytes data, std::uint64_t trace_id);
  void erase(const ConnKey& key) { conns_.erase(key); }
  TcpConnection* find(const ConnKey& key) {
    const auto it = conns_.find(key);
    return it == conns_.end() ? nullptr : it->second.get();
  }
  std::size_t half_open_count() const;

  Host& host_;
  std::unordered_map<std::uint16_t, AcceptHandler> listeners_;
  // A key is in at most one of conns_ and syn_sent_.
  std::unordered_map<ConnKey, std::unique_ptr<TcpConnection>, ConnKeyHash>
      conns_;
  SynSentTable syn_sent_;
  std::uint64_t next_generation_ = 0;
  std::uint16_t next_ephemeral_ = 32768;
  std::size_t backlog_limit_ = kDefaultBacklogLimit;
};

// Counts a backlog refusal against the same tcp.backlog_drops counter the
// real stack increments, for the fabric's SYN-flood emulation: when the
// flood victim is never materialized there is no TcpStack to do it, but the
// metric must not depend on whether the victim happened to be lazy.
void note_emulated_backlog_drop();

}  // namespace ofh::net
