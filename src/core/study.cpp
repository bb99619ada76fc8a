#include "core/study.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <functional>

#include "core/scan_shard.h"
#include "core/trace_report.h"
#include "devices/paper_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scanner/scanner.h"
#include "sim/parallel.h"

namespace ofh::core {
namespace {

// Current value of one Domain::kSim counter/gauge by name (0 if the metric
// was never defined). Snapshots the registry: call only at phase
// boundaries / report time, never on a hot path.
std::int64_t metric_value(std::string_view name) {
  for (const auto& row : obs::Registry::global().snapshot()) {
    if (row.name == name) return row.value;
  }
  return 0;
}

// (fabric.packets_sent, fabric.packets_faulted) in one snapshot pass.
std::pair<std::uint64_t, std::uint64_t> fabric_traffic() {
  std::uint64_t sent = 0;
  std::uint64_t faulted = 0;
  for (const auto& row : obs::Registry::global().snapshot()) {
    if (row.name == "fabric.packets_sent") {
      sent = static_cast<std::uint64_t>(row.value);
    } else if (row.name == "fabric.packets_faulted") {
      faulted = static_cast<std::uint64_t>(row.value);
    }
  }
  return {sent, faulted};
}

// Stable phase ids for the introspection board and progress events. 0 is
// "idle" (between phases); the names match the PhaseScope span names.
std::uint8_t phase_id(std::string_view name) {
  if (name == "setup") return 1;
  if (name == "scan") return 2;
  if (name == "filter") return 3;
  if (name == "datasets") return 4;
  if (name == "attack_month") return 5;
  if (name == "correlate") return 6;
  return 0;
}

std::uint64_t sim_day_of(sim::Time now) { return now / sim::days(1); }

// Wraps one Study phase in a trace span: sim timestamps are deterministic,
// the wall-clock duration feeds only the profile channel. When the scope
// closes it optionally appends a Prometheus snapshot to the Study's
// phase_metrics_ sequence and the phase's fabric sent/faulted deltas to
// its fault-stats sequence (sub-spans like scan/filter pass nullptr).
// The scope also drives the live introspection hub: phase enter/exit
// events, the seqlock board, and — for top-level phases — the boundary
// text blobs (phase metrics, degradation report) the status service hands
// to remote readers.
class PhaseScope {
 public:
  PhaseScope(std::string name, sim::Simulation& sim, Study* study,
             std::vector<std::pair<std::string, std::string>>* phase_metrics,
             std::vector<PhaseFaultStats>* fault_stats = nullptr)
      : name_(std::move(name)),
        sim_(sim),
        study_(study),
        phase_metrics_(phase_metrics),
        fault_stats_(fault_stats),
        sim_start_(sim.now()),
        // ofh-lint: allow(wall-clock) — phase wall profile: feeds only the obs Domain::kWall channel, quarantined out of every deterministic export
        wall_start_(std::chrono::steady_clock::now()) {
    if (fault_stats_ != nullptr) traffic_start_ = fabric_traffic();
    if (study_ != nullptr) {
      auto& hub = study_->introspection();
      const std::uint8_t id = phase_id(name_);
      previous_phase_ = hub.current_phase();
      hub.set_phase_name(id, name_);
      hub.set_board(id, sim_start_, sim_day_of(sim_start_));
      hub.publish(obs::ProgressKind::kPhaseEnter, id, 0, sim_start_);
    }
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  ~PhaseScope() {
    const auto wall_usec =
        std::chrono::duration_cast<std::chrono::microseconds>(
            // ofh-lint: allow(wall-clock) — phase wall profile: the span's wall_usec lands in Domain::kWall only, never in a deterministic export
            std::chrono::steady_clock::now() - wall_start_)
            .count();
    obs::record_span(name_, sim_start_, sim_.now(),
                     static_cast<std::uint64_t>(wall_usec));
    if (phase_metrics_ != nullptr) {
      phase_metrics_->emplace_back(
          name_, obs::Registry::global().export_prometheus());
    }
    if (fault_stats_ != nullptr) {
      const auto [sent, faulted] = fabric_traffic();
      fault_stats_->push_back({name_, sent - traffic_start_.first,
                               faulted - traffic_start_.second});
    }
    if (study_ != nullptr) {
      auto& hub = study_->introspection();
      const std::uint8_t id = phase_id(name_);
      hub.publish(obs::ProgressKind::kPhaseExit, id, 0, sim_.now(),
                  sim_.now() - sim_start_);
      hub.set_board(previous_phase_, sim_.now(), sim_day_of(sim_.now()));
      if (phase_metrics_ != nullptr) {
        // Boundary blobs for the status endpoint. Cheap relative to a
        // phase, and only ever written here (main thread, phase exit).
        std::string all;
        for (const auto& [phase_name, text] : *phase_metrics_) {
          all += "## phase " + phase_name + "\n" + text;
        }
        hub.set_text(obs::IntrospectionHub::TextSlot::kPhaseMetrics,
                     std::move(all));
        hub.set_text(obs::IntrospectionHub::TextSlot::kDegradation,
                     study_->degradation_report());
      }
    }
  }

 private:
  std::string name_;
  sim::Simulation& sim_;
  Study* study_;
  std::vector<std::pair<std::string, std::string>>* phase_metrics_;
  std::vector<PhaseFaultStats>* fault_stats_;
  std::pair<std::uint64_t, std::uint64_t> traffic_start_{0, 0};
  std::uint64_t sim_start_;
  std::uint8_t previous_phase_ = 0;
  // ofh-lint: allow(wall-clock) — storage for the wall-profile anchor above; same Domain::kWall quarantine
  std::chrono::steady_clock::time_point wall_start_;
};

}  // namespace

// ------------------------------------------------------- config validation
//
// Bounds are deliberately generous — they exist to stop the values a hostile
// scenario file can feed in (zero/negative scales, 2^64 thread counts,
// telescope ranges inside populated space), not to police reasonable
// experiments. Every check is written NaN-safe: !(x > 0) catches NaN where
// (x <= 0) would not.

namespace {

// population_scale 16 = 16x the paper's 14.4M hosts (~230M devices), well
// past the roadmap's 10x goal; anything above that is a typo or an attack.
constexpr double kMaxPopulationScale = 16.0;
constexpr double kMaxAttackScale = 1e6;
constexpr std::uint32_t kMaxScanBatch = 1'000'000;
constexpr unsigned kMaxScanThreads = 1'024;
constexpr unsigned kMaxScanWorkers = 256;
// sockaddr_un's sun_path is 108 bytes on Linux; leave headroom for
// suffixes a coordinator may append.
constexpr std::size_t kMaxWorkerEndpoint = 96;
constexpr std::uint32_t kMaxScanAttempts = 16;
constexpr int kMaxSessionAttempts = 16;
constexpr double kMaxListingBoost = 100.0;
constexpr sim::Duration kMaxAttackDuration = sim::days(366);

bool rate_ok(double rate) { return rate >= 0.0 && rate <= 1.0; }

// True when the range shares at least one /8 with the population's address
// pool. allocate_extra() hands honeypots/attackers addresses from the same
// pool, so an overlapping telescope would capture (and double-count)
// legitimate unicast traffic.
bool overlaps_population(const util::Cidr& range) {
  const int lo = range.first().octet(0);
  const int hi = range.last().octet(0);
  for (const auto base : devices::usable_slash8()) {
    if (base >= lo && base <= hi) return true;
  }
  return false;
}

}  // namespace

std::optional<std::string> StudyConfig::validate() const {
  if (!(population_scale > 0.0) || population_scale > kMaxPopulationScale) {
    return "population_scale must be in (0, 16]";
  }
  if (!(attack_scale > 0.0) || attack_scale > kMaxAttackScale) {
    return "attack_scale must be in (0, 1e6]";
  }
  if (attack_duration < sim::hours(1) || attack_duration > kMaxAttackDuration) {
    return "attack_duration must be between 1 hour and 366 days";
  }
  if (scan_batch == 0 || scan_batch > kMaxScanBatch) {
    return "scan_batch must be in [1, 1000000]";
  }
  if (scan_threads > kMaxScanThreads) {
    return "scan_threads must be at most 1024 (0 = hardware)";
  }
  if (scan_workers > kMaxScanWorkers) {
    return "scan_workers must be at most 256 (0 = in-process)";
  }
  if (worker_endpoint.size() > kMaxWorkerEndpoint) {
    return "worker_endpoint must be at most 96 bytes";
  }
  if (scan_attempts == 0 || scan_attempts > kMaxScanAttempts) {
    return "scan_attempts must be in [1, 16]";
  }
  if (session_connect_attempts < 1 ||
      session_connect_attempts > kMaxSessionAttempts) {
    return "session_connect_attempts must be in [1, 16]";
  }
  if (!(listing_boost > 0.0) || listing_boost > kMaxListingBoost) {
    return "listing_boost must be in (0, 100]";
  }
  if (telescope_range.prefix_len() > 24) {
    return "telescope_range must be /24 or wider";
  }
  if (overlaps_population(telescope_range)) {
    return "telescope_range overlaps the population address pool";
  }
  if (!(telescope_rate_scale > 0.0) || telescope_rate_scale > 1.0) {
    return "telescope_rate_scale must be in (0, 1]";
  }
  if (!(telescope_source_scale > 0.0) || telescope_source_scale > 1.0) {
    return "telescope_source_scale must be in (0, 1]";
  }
  if (!rate_ok(fault_budget)) {
    return "fault_budget must be in [0, 1]";
  }
  if (!rate_ok(fault_schedule.uniform_loss) ||
      !rate_ok(fault_schedule.duplicate_rate) ||
      !rate_ok(fault_schedule.reorder_rate)) {
    return "fault rates must be in [0, 1]";
  }
  const auto& burst = fault_schedule.burst;
  if (burst.enabled &&
      (!rate_ok(burst.p_enter) || !rate_ok(burst.p_exit) ||
       !rate_ok(burst.loss_good) || !rate_ok(burst.loss_bad))) {
    return "burst probabilities must be in [0, 1]";
  }
  for (const auto& window : fault_schedule.windows) {
    if (window.end < window.start) {
      return "fault window must not end before it starts";
    }
  }
  return std::nullopt;
}

StudyConfig StudyConfig::clamped() const {
  StudyConfig safe = *this;
  const StudyConfig defaults;
  const auto clamp_rate = [](double& rate) {
    if (!(rate >= 0.0)) rate = 0.0;  // negative or NaN
    if (rate > 1.0) rate = 1.0;
  };
  const auto clamp_pos = [](double& v, double fallback, double max) {
    if (!(v > 0.0)) v = fallback;  // non-positive or NaN
    if (v > max) v = max;
  };
  clamp_pos(safe.population_scale, defaults.population_scale,
            kMaxPopulationScale);
  clamp_pos(safe.attack_scale, defaults.attack_scale, kMaxAttackScale);
  safe.attack_duration = std::clamp<sim::Duration>(
      safe.attack_duration, sim::hours(1), kMaxAttackDuration);
  safe.scan_batch = std::clamp<std::uint32_t>(safe.scan_batch, 1,
                                              kMaxScanBatch);
  safe.scan_threads = std::min(safe.scan_threads, kMaxScanThreads);
  safe.scan_workers = std::min(safe.scan_workers, kMaxScanWorkers);
  if (safe.worker_endpoint.size() > kMaxWorkerEndpoint) {
    safe.worker_endpoint.clear();
  }
  safe.scan_attempts = std::clamp<std::uint32_t>(safe.scan_attempts, 1,
                                                 kMaxScanAttempts);
  safe.session_connect_attempts =
      std::clamp(safe.session_connect_attempts, 1, kMaxSessionAttempts);
  clamp_pos(safe.listing_boost, defaults.listing_boost, kMaxListingBoost);
  if (safe.telescope_range.prefix_len() > 24 ||
      overlaps_population(safe.telescope_range)) {
    safe.telescope_range = defaults.telescope_range;
  }
  clamp_pos(safe.telescope_rate_scale, defaults.telescope_rate_scale, 1.0);
  clamp_pos(safe.telescope_source_scale, defaults.telescope_source_scale,
            1.0);
  clamp_rate(safe.fault_budget);
  clamp_rate(safe.fault_schedule.uniform_loss);
  clamp_rate(safe.fault_schedule.duplicate_rate);
  clamp_rate(safe.fault_schedule.reorder_rate);
  clamp_rate(safe.fault_schedule.burst.p_enter);
  clamp_rate(safe.fault_schedule.burst.p_exit);
  clamp_rate(safe.fault_schedule.burst.loss_good);
  clamp_rate(safe.fault_schedule.burst.loss_bad);
  for (auto& window : safe.fault_schedule.windows) {
    if (window.end < window.start) window.end = window.start;
  }
  return safe;
}

Study::Study(StudyConfig config) : config_(config) {
  assert(!config_.validate().has_value() &&
         "StudyConfig failed validation; see StudyConfig::validate()");
  if (config_.validate().has_value()) config_ = config_.clamped();
  // One Study at a time: the obs registry is process-wide and cumulative,
  // so each study starts from zero. Callers comparing metrics across runs
  // must snapshot (metrics_prometheus / trace_json) before constructing the
  // next Study.
  obs::Registry::global().reset();
  obs::TraceRegistry::global().reset();
  fabric_ = std::make_unique<net::Fabric>(sim_, config_.seed);
  fabric_->set_latency(sim::msec(15), sim::msec(25));
  if (!config_.fault_schedule.empty()) {
    fabric_->set_fault_schedule(config_.fault_schedule);
  }
}

Study::~Study() = default;

std::uint64_t Study::scaled_population(std::uint64_t paper) const {
  return scale_paper_count(paper, config_.population_scale);
}

std::uint64_t Study::scaled_attack(std::uint64_t paper) const {
  return scale_paper_count(paper, config_.attack_scale);
}

void Study::setup_internet() {
  PhaseScope span("setup", sim_, this, &phase_metrics_, &phase_fault_stats_);
  devices::PopulationSpec spec;
  spec.seed = config_.seed;
  spec.scale = config_.population_scale;
  population_ = std::make_unique<devices::Population>(spec);
  population_->build();
  population_->attach_all(*fabric_);

  // Plant third-party honeypots (Table 6 ground truth) among the devices.
  for (const auto& signature : honeynet::honeypot_signatures()) {
    const auto count = scaled_population(signature.paper_count);
    for (std::uint64_t i = 0; i < count; ++i) {
      auto honeypot = std::make_unique<honeynet::WildHoneypot>(
          signature, population_->allocate_extra());
      honeypot->attach(*fabric_);
      wild_honeypots_.push_back(std::move(honeypot));
    }
  }

  telescope_ = std::make_unique<telescope::Telescope>(config_.telescope_range);
  telescope_->attach(*fabric_);
  rsdos_ = std::make_unique<telescope::RsdosDetector>(config_.telescope_range);
  rsdos_->attach(*fabric_);

  geo_ = std::make_unique<intel::GeoDb>(*population_);
}

void Study::run_scan() {
  PhaseScope span("scan", sim_, this, &phase_metrics_, &phase_fault_stats_);
  // Six sweeps spread across one week at the paper's day offsets
  // (Appendix Table 9: CoAP Mar 1; UPnP+Telnet Mar 2; MQTT+AMQP Mar 4;
  // XMPP Mar 5). Each sweep is an independent shard with a splitmix64-
  // derived seed; shards execute on config_.scan_threads workers and their
  // records merge by (time, shard, seq), so scan_db_ is byte-identical no
  // matter how many threads ran (DESIGN.md "Threading model").
  static constexpr std::uint64_t kDayOffsets[] = {0, 1, 1, 3, 3, 4};
  const sim::Time scan_epoch = sim_.now();
  const auto& protocols = proto::scanned_protocols();

  // Every sweep targets the full populated prefix set; its slot total is
  // the address count so remote readers can render done/total bars. The
  // totals (and the folded finals) are deterministic; only the in-flight
  // `done` samples concurrent readers observe are racy-by-design.
  std::uint64_t sweep_targets = 0;
  for (const auto& prefix : population_->prefixes()) {
    sweep_targets += prefix.size();
  }

  std::vector<ScanShardJob> shard_jobs;
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    const proto::Protocol protocol = protocols[i];
    const sim::Time start = scan_epoch + sim::days(kDayOffsets[i]);
    scan_dates_[protocol] = start;
    ScanShardJob job;
    job.index = static_cast<std::uint32_t>(i);
    job.protocol = protocol;
    job.sweep_seed = sim::shard_seed(config_.seed, i);
    job.start = start;
    job.sweep_total = sweep_targets;
    shard_jobs.push_back(job);
    // Sweep slots are allocated in job order, so slot == job.index.
    introspect_.add_sweep(std::string(proto::protocol_name(protocol)),
                          sweep_targets);
  }

  // Shard progress feeds the introspection hub exactly as it always has:
  // live sweep counters from every sample, a kSweepProgress event per
  // stride crossing, one kSweepDone per sweep. The sink is shared by both
  // execution backends, and a distributed dispatcher is contractually
  // required to deliver the same deterministic per-job sequence
  // (core/scan_shard.h), so the event-kind totals are byte-identical at
  // every scan_threads and scan_workers value.
  const std::uint8_t phase = phase_id("scan");
  const ScanShardProgressSink sink = [this, phase, sweep_targets](
                                         std::uint32_t index,
                                         const ScanShardProgress& progress) {
    const auto slot = static_cast<std::size_t>(index);
    const auto event_shard = static_cast<std::uint16_t>(index + 1);
    introspect_.update_sweep(slot, progress.resolved);
    if (progress.kind == ScanShardProgressKind::kStride) {
      introspect_.publish(obs::ProgressKind::kSweepProgress, phase,
                          event_shard, progress.sim_time, progress.resolved,
                          sweep_targets);
    } else if (progress.kind == ScanShardProgressKind::kDone) {
      introspect_.publish(obs::ProgressKind::kSweepDone, phase, event_shard,
                          progress.sim_time, progress.resolved,
                          sweep_targets);
    }
  };

  // Backend selection: an installed dispatcher (worker processes) gets the
  // batch when scan_workers asks for it; everything else — scan_workers of
  // zero, no dispatcher installed, or the dispatcher declining — runs the
  // jobs in-process on the ParallelRunner. Same jobs, same sink, same bytes.
  std::vector<ScanShardResult> shards;
  bool dispatched = false;
  if (config_.scan_workers > 0) {
    if (const ScanShardDispatcher& dispatcher = scan_shard_dispatcher()) {
      if (auto remote = dispatcher(config_, shard_jobs, sink)) {
        shards = std::move(*remote);
        dispatched = true;
      }
    }
  }
  if (!dispatched) {
    // A sweep's cost is its ports per target: the two-port Telnet and XMPP
    // shards are the longest, so they go to the pool first and the scan
    // ends with its longest shard. Results still come back in job-index
    // order, so the bytes do not depend on this.
    std::vector<std::function<ScanShardResult()>> jobs;
    std::vector<std::uint64_t> costs;
    jobs.reserve(shard_jobs.size());
    costs.reserve(shard_jobs.size());
    for (const ScanShardJob& job : shard_jobs) {
      jobs.emplace_back([this, job, sink] {
        return run_scan_shard(config_, job,
                              [&sink, &job](const ScanShardProgress& p) {
                                sink(job.index, p);
                              });
      });
      costs.push_back(proto::protocol_ports(job.protocol).size());
    }
    shards = sim::ParallelRunner(config_.scan_threads)
                 .run(std::move(jobs), costs);
  }

  sim::Time scan_end = scan_epoch;
  std::vector<std::vector<scanner::ScanRecord>> per_shard;
  per_shard.reserve(shards.size());
  std::size_t total_records = 0;
  for (auto& shard : shards) {
    scan_end = std::max(scan_end, shard.finished);
    scan_db_.note_probes(shard.probes);
    scan_db_.note_responsive(shard.responsive);
    scan_db_.note_refused(shard.refused);
    scan_db_.note_unresolved(shard.unresolved);
    scan_db_.note_retries(shard.retries);
    scan_events_ += shard.events;
    total_records += shard.records.size();
    per_shard.push_back(std::move(shard.records));
  }
  // The merged record count is known exactly before the fold: reserve once
  // so the fold never reallocates (at paper scale the six sweeps land
  // millions of records; tests/parallel_test.cpp pins capacity stability).
  scan_db_.reserve(total_records);
  for (auto& record : sim::merge_by_time(
           std::move(per_shard),
           [](const scanner::ScanRecord& record) { return record.when; })) {
    scan_db_.add(std::move(record));
  }

  // The main timeline advances to the end of the scan window, exactly as it
  // did when the sweeps ran inline on the main simulation.
  sim_.run_until(scan_end);

  // Classification + honeypot filtering is its own sub-span: it runs on the
  // merged DB after the sweeps, and the paper treats it as a distinct step.
  PhaseScope filter_span("filter", sim_, this, nullptr);
  unfiltered_findings_ = classify::classify_all(scan_db_);
  fingerprints_ = classify::fingerprint_all(scan_db_);
  findings_ = config_.filter_honeypots
                  ? classify::filter_honeypots(unfiltered_findings_,
                                               fingerprints_)
                  : unfiltered_findings_;
  // One kVerdict trace event per surviving finding, closing the causal
  // chain scan probe -> banner -> classifier verdict. Findings are already
  // in deterministic (merged scan DB) order; all verdicts land in shard 0.
  for (const auto& finding : findings_) {
    obs::trace_event(obs::TraceEventType::kVerdict, sim_.now(), 0,
                     finding.host.value(), 0, 0,
                     static_cast<std::uint8_t>(finding.misconfig),
                     static_cast<std::uint8_t>(finding.protocol));
  }
}

void Study::run_datasets() {
  PhaseScope span("datasets", sim_, this, &phase_metrics_,
                  &phase_fault_stats_);
  sonar_ = datasets::generate_snapshot(datasets::project_sonar_model(),
                                       *population_, config_.seed + 11);
  shodan_ = datasets::generate_snapshot(datasets::shodan_model(),
                                        *population_, config_.seed + 12);
}

void Study::run_attack_month() {
  PhaseScope span("attack_month", sim_, this, &phase_metrics_,
                  &phase_fault_stats_);
  // Six public addresses for the honeypot groups (Figure 1).
  std::vector<util::Ipv4Addr> addresses;
  for (int i = 0; i < 6; ++i) {
    addresses.push_back(population_->allocate_extra());
  }
  // The campaign's event volume is calibrated to Table 7's monthly total at
  // attack_scale, so pre-size the log (with headroom for the DoS spikes and
  // multistage chains layered on top) instead of growing through ~log2(n)
  // reallocations over the month.
  const auto expected_events = scaled_attack(devices::paper::kTable7Total);
  attack_log_.reserve(
      static_cast<std::size_t>(expected_events + expected_events / 2));
  deployment_ = honeynet::make_deployment(addresses, attack_log_);
  for (auto& honeypot : deployment_.honeypots) {
    honeypot->attach(*fabric_);
  }

  attackers::FleetConfig fleet_config;
  fleet_config.seed = config_.seed + 7;
  fleet_config.duration = config_.attack_duration;
  fleet_config.event_scale = config_.attack_scale;
  fleet_config.listing_boost = config_.listing_boost;
  fleet_config.session_connect_attempts = config_.session_connect_attempts;
  fleet_config.telescope_rate_scale = config_.telescope_rate_scale;
  fleet_config.telescope_source_scale = config_.telescope_source_scale;
  fleet_config.roster = config_.roster;
  fleet_ = std::make_unique<attackers::Fleet>(fleet_config, *population_,
                                              deployment_, *telescope_);
  fleet_->deploy(*fabric_, rdns_, virustotal_, greynoise_, censys_);

  // Run the month one sim-day at a time. run_until() lands the clock on
  // each deadline whether or not events remain, so chunking is behavior-
  // identical to a single run_until(end) call — it only adds deterministic
  // day-boundary stops where the board and a kSimDayAdvance event (attack
  // log size, telescope flowtuples) are published for live readers.
  const sim::Time start = sim_.now();
  const sim::Time end = start + config_.attack_duration + sim::hours(1);
  const std::uint8_t phase = phase_id("attack_month");
  for (sim::Time next = start + sim::days(1); next < end;
       next += sim::days(1)) {
    sim_.run_until(next);
    introspect_.set_board(phase, sim_.now(), sim_day_of(sim_.now()));
    introspect_.publish(obs::ProgressKind::kSimDayAdvance, phase, 0,
                        sim_.now(), attack_log_.size(),
                        telescope_->total_packets());
  }
  sim_.run_until(end);
}

void Study::correlate() {
  PhaseScope span("correlate", sim_, this, &phase_metrics_,
                  &phase_fault_stats_);
  infected_ = correlate_infected(findings_, attack_log_, *telescope_);
  std::set<std::uint32_t> correlated;
  correlated.insert(infected_.both.begin(), infected_.both.end());
  correlated.insert(infected_.honeypot_only.begin(),
                    infected_.honeypot_only.end());
  correlated.insert(infected_.telescope_only.begin(),
                    infected_.telescope_only.end());
  censys_extra_ =
      censys_extra_iot(attack_log_, *telescope_, correlated, censys_);
}

void Study::run_all() {
  setup_internet();
  run_scan();
  run_datasets();
  run_attack_month();
  correlate();
}

std::string Study::metrics_prometheus() const {
  return obs::Registry::global().export_prometheus();
}

std::string Study::metrics_csv() const {
  return obs::Registry::global().export_csv();
}

std::string Study::metrics_profile() const {
  return obs::Registry::global().export_profile();
}

std::string Study::trace_json() const { return trace_chrome_json(); }

std::string Study::attack_chains() const { return attack_chain_report(); }

DegradationBaseline Study::baseline() const {
  DegradationBaseline b;
  b.responsive_hosts = scan_db_.unique_hosts_total();
  b.findings = findings_.size();
  b.attack_events = attack_log_.size();
  b.flowtuples = telescope_ == nullptr ? 0 : telescope_->total_packets();
  return b;
}

std::string Study::degradation_report(
    const DegradationBaseline* fault_free) const {
  const auto value = [](std::string_view name) {
    return static_cast<std::uint64_t>(std::max<std::int64_t>(
        0, metric_value(name)));
  };
  const auto fixed = [](double v, int digits) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", digits, v);
    return std::string(buf);
  };
  const auto pct = [&fixed](std::uint64_t part, std::uint64_t whole) {
    return fixed(whole == 0 ? 0.0
                            : 100.0 * static_cast<double>(part) /
                                  static_cast<double>(whole),
                 1) +
           "%";
  };
  const auto num = [](std::uint64_t v) { return std::to_string(v); };

  std::string out;
  out += "degradation report\n";

  const auto& schedule = config_.fault_schedule;
  if (schedule.empty()) {
    out += "schedule: none (fault-free run)\n";
  } else {
    out += "schedule: active windows=" + num(schedule.windows.size()) +
           " uniform_loss=" + fixed(schedule.uniform_loss, 4) +
           " duplicate_rate=" + fixed(schedule.duplicate_rate, 4) +
           " reorder_rate=" + fixed(schedule.reorder_rate, 4) + " burst=";
    out += schedule.burst.enabled ? "on" : "off";
    out += "\n";
  }

  // Fabric conservation: after a full drain inflight is zero and every
  // sent packet is accounted for as delivered, dropped or faulted.
  const std::uint64_t sent = value("fabric.packets_sent");
  const std::uint64_t delivered = value("fabric.packets_delivered");
  const std::uint64_t dropped = value("fabric.packets_dropped");
  const std::uint64_t faulted = value("fabric.packets_faulted");
  const std::uint64_t inflight = value("fabric.packets_inflight");
  const bool conserved = sent == delivered + dropped + faulted + inflight;
  out += "fabric: sent=" + num(sent) + " delivered=" + num(delivered) +
         " dropped=" + num(dropped) + " faulted=" + num(faulted) +
         " inflight=" + num(inflight) + " conservation=";
  out += conserved ? "OK" : "VIOLATED";
  out += "\n";

  out += "faults:";
  for (std::size_t i = 0; i < net::kFaultKindCount; ++i) {
    const auto name = net::fault_kind_name(static_cast<net::FaultKind>(i));
    out += " ";
    out += name;
    out += "=" + num(value(obs::labeled("fabric.faults_injected", "kind",
                                        name)));
  }
  out += " host_crashes=" + num(value("fabric.host_crashes")) + "\n";

  // Scanner outcome accounting (scanner/scan_db.h identity).
  const std::uint64_t probes = scan_db_.probes_sent();
  const std::uint64_t responsive = scan_db_.responsive();
  const std::uint64_t refused = scan_db_.refused();
  const std::uint64_t unresolved = scan_db_.unresolved();
  const bool identity = probes == responsive + refused + unresolved;
  out += "scan: probes=" + num(probes) + " responsive=" + num(responsive) +
         " refused=" + num(refused) + " unresolved=" + num(unresolved) +
         " retries=" + num(scan_db_.retries()) + " accounting=";
  out += identity ? "OK" : "VIOLATED";
  out += "\n";

  out += "phase budgets (max " + fixed(100.0 * config_.fault_budget, 1) +
         "% of sent packets faulted):\n";
  for (const auto& stats : phase_fault_stats_) {
    const bool over =
        stats.sent > 0 &&
        static_cast<double>(stats.faulted) >
            config_.fault_budget * static_cast<double>(stats.sent);
    out += "  " + stats.phase + ": sent=" + num(stats.sent) +
           " faulted=" + num(stats.faulted) + " (" +
           pct(stats.faulted, stats.sent) + ") ";
    out += over ? "OVER" : "OK";
    out += "\n";
  }

  const DegradationBaseline now = baseline();
  out += "results: responsive_hosts=" + num(now.responsive_hosts) +
         " findings=" + num(now.findings) +
         " attack_events=" + num(now.attack_events) +
         " flowtuples=" + num(now.flowtuples) + "\n";
  if (fault_free != nullptr) {
    out += "vs fault-free baseline:\n";
    out += "  responsive_hosts: " + num(now.responsive_hosts) + "/" +
           num(fault_free->responsive_hosts) + " retained (" +
           pct(now.responsive_hosts, fault_free->responsive_hosts) + ")\n";
    out += "  findings: " + num(now.findings) + "/" +
           num(fault_free->findings) + " retained (" +
           pct(now.findings, fault_free->findings) + ")\n";
    out += "  attack_events: " + num(now.attack_events) + "/" +
           num(fault_free->attack_events) + " retained (" +
           pct(now.attack_events, fault_free->attack_events) + ")\n";
    out += "  flowtuples: " + num(now.flowtuples) + "/" +
           num(fault_free->flowtuples) + " retained (" +
           pct(now.flowtuples, fault_free->flowtuples) + ")\n";
  }
  return out;
}

std::vector<std::string> Study::scan_service_domains() const {
  std::vector<std::string> domains;
  for (const auto& spec : attackers::scan_service_specs()) {
    domains.push_back(spec.domain);
  }
  return domains;
}

}  // namespace ofh::core
