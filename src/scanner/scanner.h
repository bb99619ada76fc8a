// ZMap/ZGrab-style Internet scanner. Sweeps target ranges in permuted order
// with rate limiting and blocklists; per-protocol application probes follow
// up on responsive hosts to collect banners (ZGrab) or trigger responses
// (custom UDP scripts for CoAP "/.well-known/core" and SSDP "ssdp:discover"),
// mirroring the paper's §3.1.1 methodology.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/host.h"
#include "scanner/permutation.h"
#include "scanner/scan_db.h"
#include "util/ipv4.h"

namespace ofh::scanner {

struct ScanConfig {
  proto::Protocol protocol = proto::Protocol::kTelnet;
  std::vector<util::Cidr> targets;
  std::vector<util::Cidr> blocklist;
  std::uint64_t seed = 1;
  // Rate limiting: probes per batch, one batch per tick.
  std::uint32_t batch_size = 256;
  sim::Duration tick = sim::msec(50);
  // How long to collect application bytes after connecting (TCP), or to
  // await a UDP response.
  sim::Duration banner_wait = sim::seconds(2);
  sim::Duration connect_timeout = sim::seconds(3);
  // Per-port probe retries (ZMap retries lost probes; so do we). A connect
  // timeout (TCP) or a silent response window (UDP) is retried until the
  // port has been tried max_attempts times, waiting
  //   retry_backoff * 2^(attempt-1) + jitter
  // between attempts, where jitter is a deterministic hash of
  // (seed, target, port, attempt) in [0, retry_jitter). Refusals are
  // answers, not losses, and are never retried. The default of 1 (no
  // retries) keeps fault-free runs byte-identical to the pre-retry
  // goldens.
  std::uint32_t max_attempts = 1;
  sim::Duration retry_backoff = sim::msec(500);
  sim::Duration retry_jitter = sim::msec(100);
};

// ZMap's default blocklist equivalent: reserved/special-purpose ranges.
std::vector<util::Cidr> default_blocklist();

class Scanner : public net::Host {
 public:
  using DoneCallback = std::function<void()>;

  Scanner(util::Ipv4Addr addr, ScanDb& db) : net::Host(addr), db_(&db) {}

  // Starts one protocol sweep; done fires when all probes have resolved.
  // Multiple scans may be issued on the same scanner host, sequentially or
  // concurrently: each UDP sweep binds its own ephemeral source port.
  void start(ScanConfig config, DoneCallback done);

  std::uint64_t probes_sent() const { return probes_sent_; }

  // Occupancy of the TCP probe state tables: slots ever allocated and slots
  // on the free list. Once every sweep has drained, each slot is free.
  struct SlotUsage {
    std::size_t port_probes = 0;
    std::size_t free_port_probes = 0;
    std::size_t outcomes = 0;
    std::size_t free_outcomes = 0;
  };
  SlotUsage slot_usage() const {
    return {port_probes_.size(), port_probes_.free_count(), outcomes_.size(),
            outcomes_.free_count()};
  }

 private:
  struct Sweep;
  // Aggregates one target's per-port fates (multi-port protocols probe two
  // ports per target) into the single outcome the accounting identity
  // probes_sent == responsive + refused + unresolved counts.
  struct TargetOutcome {
    int pending = 0;
    bool responsive = false;
    bool refused = false;
  };
  // One TCP port of one probed target, from its first connect until the
  // port resolves; a timed-out attempt that will be retried keeps its slot.
  struct PortProbe {
    std::shared_ptr<Sweep> sweep;
    std::uint32_t outcome = 0;  // slot in outcomes_
    util::Ipv4Addr target;
    std::uint16_t port = 0;
    std::uint32_t attempt = 1;
    std::uint64_t trace_id = 0;  // the probe's causal id
  };
  // A dense vector with a free list. Callbacks name a slot by index, so a
  // probe in flight costs no allocation once the table has grown to the
  // sweep's peak concurrency. A released slot is reset to T{}.
  template <typename T>
  class SlotTable {
   public:
    std::uint32_t acquire() {
      if (free_.empty()) {
        slots_.emplace_back();
        return static_cast<std::uint32_t>(slots_.size() - 1);
      }
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    void release(std::uint32_t slot) {
      slots_[slot] = T{};
      free_.push_back(slot);
    }
    // Valid until the next acquire().
    T& operator[](std::uint32_t slot) { return slots_[slot]; }
    std::size_t size() const { return slots_.size(); }
    std::size_t free_count() const { return free_.size(); }

   private:
    std::vector<T> slots_;
    std::vector<std::uint32_t> free_;
  };

  std::uint16_t allocate_udp_source_port(std::uint64_t seed);
  void pump(std::shared_ptr<Sweep> sweep);
  void probe(const std::shared_ptr<Sweep>& sweep, util::Ipv4Addr target);
  // Single point every resolved probe result funnels through: updates the
  // obs hit-rate counters and appends to the scan DB.
  void store(Sweep& sweep, ScanRecord record);
  // Opens (or re-opens, on a retry) the connection of port probe `slot`.
  void probe_tcp(std::uint32_t slot);
  void on_connect(std::uint32_t slot, net::TcpConnection* conn,
                  net::ConnectOutcome result);
  void probe_udp(std::shared_ptr<Sweep> sweep, util::Ipv4Addr target,
                 std::uint16_t port, std::uint32_t attempt);
  void send_udp_stimulus(Sweep& sweep, util::Ipv4Addr target,
                         std::uint16_t port);
  // Counts a retry of `attempt` and returns its deterministic backoff.
  sim::Duration note_retry(const Sweep& sweep, util::Ipv4Addr target,
                           std::uint16_t port, std::uint32_t attempt);
  // Port-level completion: frees the port probe, folds its fate into the
  // target outcome and resolves the target when its last port reports.
  void port_resolved(std::uint32_t slot);
  // Target-level completion: books exactly one outcome per probed target.
  void resolve_target(Sweep& sweep, bool responsive, bool refused);
  void finish_probe(Sweep& sweep);

  ScanDb* db_;
  std::uint64_t probes_sent_ = 0;
  SlotTable<PortProbe> port_probes_;
  SlotTable<TargetOutcome> outcomes_;
};

}  // namespace ofh::scanner
