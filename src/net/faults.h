// Deterministic fault injection for the Fabric: seeded, schedulable chaos
// in the FoundationDB tradition. A FaultSchedule describes loss bursts
// (Gilbert-Elliott two-state model alongside the Fabric's uniform rate),
// latency spikes, link flaps, bidirectional CIDR partitions, packet
// duplication/reordering and host-level faults (crash/restart windows with
// connection state loss, ICMP-unreachable-style refusal windows).
//
// Determinism contract: every fault decision is a pure function of
// (seed, sim-time, per-fabric decision ordinal). Per-packet draws use a
// stateless splitmix64 hash keyed on the decision ordinal and a purpose
// tag, so one draw never perturbs another; the Gilbert-Elliott chain is
// driven by fixed sim-time slots whose transitions hash (seed, slot index).
// A replayed run — and every scan_threads value, since each scan shard owns
// a private Fabric with its own injector — sees the identical fault
// sequence. Every injected fault increments a fabric.faults_injected{kind=}
// counter and emits a kPacketFault / kHostFault trace event, so the
// attack-chain report can show *why* a probe died.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "net/packet.h"
#include "sim/time.h"
#include "util/ipv4.h"

namespace ofh::net {

// Carried in TraceEvent::a for kPacketFault events and used as the {kind=}
// label of fabric.faults_injected.
enum class FaultKind : std::uint8_t {
  kLossBurst,     // Gilbert-Elliott bad-state drop
  kLinkFlap,      // total loss window on a scope's links
  kPartition,     // bidirectional drop between two CIDR scopes
  kLatencySpike,  // extra delay window on a scope's links
  kDuplicate,     // packet delivered twice
  kReorder,       // packet delayed past its flow's stable latency
  kRefusal,       // ICMP-unreachable analogue: SYNs answered with RST
  kCrash,         // host power-loss window: connection state wiped
};
inline constexpr std::size_t kFaultKindCount = 8;
std::string_view fault_kind_name(FaultKind kind);

// Two-state Markov loss model (Gilbert-Elliott): the chain sits in a good
// or a bad (burst) state and flips per fixed sim-time slot, giving the
// bursty correlated loss real access links exhibit — which uniform loss
// cannot, and which retry/backoff policies must survive.
struct GilbertElliott {
  bool enabled = false;
  double p_enter = 0.002;  // per-slot good -> bad
  double p_exit = 0.05;    // per-slot bad -> good
  double loss_good = 0.0;  // drop probability while good
  double loss_bad = 0.6;   // drop probability while bursting
  sim::Duration slot = sim::msec(100);
};

// One scheduled fault window. `scope` selects the affected hosts (src or
// dst for flaps/spikes, dst for refusals, resident hosts for crashes);
// `peer` is the second side of a partition and unused otherwise.
struct FaultWindow {
  FaultKind kind = FaultKind::kLinkFlap;
  sim::Time start = 0;
  sim::Time end = 0;
  util::Cidr scope;
  util::Cidr peer;
  sim::Duration magnitude = 0;  // extra delay for kLatencySpike

  bool active_at(sim::Time now) const { return now >= start && now < end; }
};

// Knobs for FaultSchedule::chaos(): how many windows of each kind to strew
// across [start, end) inside the given host ranges.
struct ChaosOptions {
  sim::Time start = 0;
  sim::Time end = sim::days(7);
  std::vector<util::Cidr> ranges;  // host ranges faults pick victims from
  std::uint32_t link_flaps = 4;
  std::uint32_t latency_spikes = 4;
  std::uint32_t partitions = 2;
  std::uint32_t refusals = 3;
  std::uint32_t crashes = 2;
  sim::Duration mean_window = sim::minutes(30);
  sim::Duration spike_magnitude = sim::msec(250);
  double duplicate_rate = 0.002;
  double reorder_rate = 0.002;
  bool burst = true;  // enable the default Gilbert-Elliott chain
};

// A complete fault plan for one Fabric. Default-constructed = no faults;
// Fabric::set_fault_schedule treats empty() as "uninstall".
struct FaultSchedule {
  // Memoryless per-packet loss, decided by the injector so every drop is
  // counted and traced as a fault (kind kLossBurst, the uniform special
  // case of the burst model). Distinct from Fabric::set_loss_rate, which
  // models ambient weather outside any schedule.
  double uniform_loss = 0.0;
  double duplicate_rate = 0.0;
  double reorder_rate = 0.0;
  sim::Duration reorder_delay = sim::msec(150);
  GilbertElliott burst;
  std::vector<FaultWindow> windows;

  bool empty() const {
    return uniform_loss == 0.0 && duplicate_rate == 0.0 &&
           reorder_rate == 0.0 && !burst.enabled && windows.empty();
  }

  // Canned chaos: a seed-derived schedule with every fault kind
  // represented, used by the `fault chaos` scenario directive (e.g.
  // tests/scenarios/chaos_degraded.ofh) and faults_test.
  static FaultSchedule chaos(std::uint64_t seed, const ChaosOptions& options);
};

// What the injector tells Fabric::send to do with one packet. At most one
// terminal fate (drop or refuse); duplication and delays compose.
struct FaultDecision {
  bool drop = false;
  FaultKind drop_kind = FaultKind::kLossBurst;
  bool refuse = false;           // synthesize RST from dst (TCP SYN only)
  bool duplicate = false;
  sim::Duration spike_delay = 0;
  sim::Duration reorder_delay = 0;

  bool perturbed() const {
    return drop || refuse || duplicate || spike_delay > 0 || reorder_delay > 0;
  }
};

// Per-Fabric fault engine. Single-threaded like its fabric; the decision
// ordinal and the Gilbert-Elliott slot cursor are the only mutable state,
// both advanced deterministically by the packet stream.
class FaultInjector {
 public:
  FaultInjector(FaultSchedule schedule, std::uint64_t seed);

  // Decides the fate of one packet about to enter the latency model.
  FaultDecision decide(const Packet& packet, sim::Time now);

  // True while a kCrash window covering addr is active.
  bool host_down(util::Ipv4Addr addr, sim::Time now) const;

  const FaultSchedule& schedule() const { return schedule_; }

  // Per-kind injected-fault counts for this fabric instance (the fleet-wide
  // totals live in the obs registry).
  std::uint64_t injected(FaultKind kind) const {
    return injected_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t injected_total() const;
  void count(FaultKind kind) {
    ++injected_[static_cast<std::size_t>(kind)];
  }

 private:
  // Stateless unit draw in [0, 1): hash of (seed, ordinal, purpose).
  double draw(std::uint64_t ordinal, std::uint64_t purpose) const;
  // Advances the Gilbert-Elliott chain to now's slot and returns the
  // current drop probability.
  double burst_loss_probability(sim::Time now);

  FaultSchedule schedule_;
  std::uint64_t seed_;
  std::uint64_t ordinal_ = 0;
  std::uint64_t ge_slot_cursor_ = 0;
  bool ge_bad_ = false;
  std::array<std::uint64_t, kFaultKindCount> injected_{};
};

}  // namespace ofh::net
