// The deterministic observability layer: registry mechanics, exporter
// formats, thread-shard merging, and the reconciliation invariants the
// instrumentation promises — fabric packet conservation under loss, scanner
// probe counts matching the scan DB, and study-wide totals matching the
// domain objects they mirror.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/study.h"
#include "devices/device.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scanner/scanner.h"
#include "test_helpers.h"
#include "util/thread_pool.h"

namespace ofh {
namespace {

using util::Ipv4Addr;

obs::Registry& reg() { return obs::Registry::global(); }

std::optional<obs::MetricRow> find_row(const std::string& name) {
  for (const auto& row : reg().snapshot()) {
    if (row.name == name) return row;
  }
  return std::nullopt;
}

std::int64_t value_of(const std::string& name) {
  const auto row = find_row(name);
  return row ? row->value : 0;
}

// ------------------------------------------------------------- registry

TEST(ObsRegistry, CounterGaugeHistogramRoundTrip) {
  reg().reset();
  const auto counter = reg().define("t.counter", obs::Kind::kCounter,
                                    obs::Domain::kSim);
  const auto gauge = reg().define("t.gauge", obs::Kind::kGauge,
                                  obs::Domain::kSim);
  const auto histogram = reg().define("t.histogram", obs::Kind::kHistogram,
                                      obs::Domain::kSim);
  ASSERT_NE(counter, 0u);
  ASSERT_NE(gauge, 0u);
  ASSERT_NE(histogram, 0u);

  reg().add(counter, 3);
  reg().add(counter, 2);
  reg().add(gauge, 10);
  reg().add(gauge, -4);
  reg().observe(histogram, 0);
  reg().observe(histogram, 7);
  reg().observe(histogram, 1'000);

  const auto counter_row = find_row("t.counter");
  ASSERT_TRUE(counter_row.has_value());
  EXPECT_EQ(counter_row->value, 5);
  EXPECT_EQ(value_of("t.gauge"), 6);

  const auto histogram_row = find_row("t.histogram");
  ASSERT_TRUE(histogram_row.has_value());
  EXPECT_EQ(histogram_row->count, 3u);
  EXPECT_EQ(histogram_row->sum, 1'007u);
  EXPECT_EQ(histogram_row->buckets[obs::Registry::bucket_of(0)], 1u);
  EXPECT_EQ(histogram_row->buckets[obs::Registry::bucket_of(7)], 1u);
  EXPECT_EQ(histogram_row->buckets[obs::Registry::bucket_of(1'000)], 1u);
}

TEST(ObsRegistry, DefineIsIdempotentAndConflictsGoToScrap) {
  reg().reset();
  const auto first = reg().define("t.same", obs::Kind::kCounter,
                                  obs::Domain::kSim);
  const auto second = reg().define("t.same", obs::Kind::kCounter,
                                   obs::Domain::kSim);
  EXPECT_EQ(first, second);  // interned, not duplicated
  // Redefining with a different shape is a bug; writes land in the scrap
  // cell instead of corrupting the existing metric.
  const auto conflict = reg().define("t.same", obs::Kind::kHistogram,
                                     obs::Domain::kSim);
  EXPECT_EQ(conflict, 0u);
}

TEST(ObsRegistry, BucketOfIsLogTwoBitWidth) {
  EXPECT_EQ(obs::Registry::bucket_of(0), 0u);
  EXPECT_EQ(obs::Registry::bucket_of(1), 1u);
  EXPECT_EQ(obs::Registry::bucket_of(2), 2u);
  EXPECT_EQ(obs::Registry::bucket_of(3), 2u);
  EXPECT_EQ(obs::Registry::bucket_of(4), 3u);
  EXPECT_EQ(obs::Registry::bucket_of(1'023), 10u);
  EXPECT_EQ(obs::Registry::bucket_of(1'024), 11u);
  EXPECT_EQ(obs::Registry::bucket_of(~std::uint64_t{0}), 64u);
}

TEST(ObsRegistry, ResetZeroesValuesButKeepsDefinitions) {
  reg().reset();
  const auto cell = reg().define("t.reset", obs::Kind::kCounter,
                                 obs::Domain::kSim);
  reg().add(cell, 41);
  reg().record_span("t.span", 1, 2, 3);
  EXPECT_EQ(value_of("t.reset"), 41);
  EXPECT_EQ(reg().spans().size(), 1u);

  reg().reset();
  EXPECT_EQ(value_of("t.reset"), 0);  // still defined, back to zero
  EXPECT_TRUE(find_row("t.reset").has_value());
  EXPECT_TRUE(reg().spans().empty());
  reg().add(cell, 1);  // old handles stay valid
  EXPECT_EQ(value_of("t.reset"), 1);
}

TEST(ObsRegistry, LabeledComposesPrometheusStyleNames) {
  EXPECT_EQ(obs::labeled("scanner.probes", "protocol", "Telnet"),
            "scanner.probes{protocol=\"Telnet\"}");
}

TEST(ObsRegistry, LabeledEscapesHostileValues) {
  // Prometheus exposition rules: backslash, quote and newline are escaped
  // inside label values; anything else (commas included) passes through.
  EXPECT_EQ(obs::labeled("m", "k", "a\\b"), "m{k=\"a\\\\b\"}");
  EXPECT_EQ(obs::labeled("m", "k", "say \"hi\""),
            "m{k=\"say \\\"hi\\\"\"}");
  EXPECT_EQ(obs::labeled("m", "k", "line1\nline2"),
            "m{k=\"line1\\nline2\"}");
  EXPECT_EQ(obs::labeled("m", "k", "a,b"), "m{k=\"a,b\"}");
}

TEST(ObsRegistry, CsvQuotesHostileMetricNames) {
  reg().reset();
  // A banner-derived label value with a comma and a quote: the metric name
  // holds them verbatim (after Prometheus escaping of the quote), so the
  // CSV exporter must emit an RFC-4180 quoted field with doubled quotes —
  // otherwise the row grows extra columns.
  const std::string name = obs::labeled("t.hostile", "banner", "Ac,me \"v2\"");
  const auto cell = reg().define(name, obs::Kind::kCounter, obs::Domain::kSim);
  reg().add(cell, 7);

  const std::string csv = reg().export_csv();
  EXPECT_NE(
      csv.find(
          "\"t.hostile{banner=\"\"Ac,me \\\"\"v2\\\"\"\"\"}\",counter,value,7"),
      std::string::npos)
      << csv;
  // The raw (unquoted) name must not appear as a bare field.
  EXPECT_EQ(csv.find("t.hostile{banner=\"Ac,me"), std::string::npos) << csv;
}

TEST(ObsRegistry, HistogramQuantilesAreExactFromBuckets) {
  // 100 samples: 50 land in bucket_of(3)=2 (upper bound 3), 45 in
  // bucket_of(100)=7 (upper 127), 5 in bucket_of(5000)=13 (upper 8191).
  obs::MetricRow row;
  row.kind = obs::Kind::kHistogram;
  row.count = 100;
  row.buckets[obs::Registry::bucket_of(3)] = 50;
  row.buckets[obs::Registry::bucket_of(100)] = 45;
  row.buckets[obs::Registry::bucket_of(5'000)] = 5;

  EXPECT_EQ(obs::histogram_quantile(row, 0.50), 3u);    // rank 50: 1st bucket
  EXPECT_EQ(obs::histogram_quantile(row, 0.95), 127u);  // rank 95: 2nd bucket
  EXPECT_EQ(obs::histogram_quantile(row, 0.99), 8'191u);
  EXPECT_EQ(obs::histogram_quantile(row, 0.0), 3u);  // clamped to rank 1
  EXPECT_EQ(obs::histogram_quantile(row, 1.0), 8'191u);

  const obs::MetricRow empty;
  EXPECT_EQ(obs::histogram_quantile(empty, 0.5), 0u);
}

TEST(ObsRegistry, ProfileCarriesHistogramPercentiles) {
  reg().reset();
  const auto cell = reg().define("t.profile_hist", obs::Kind::kHistogram,
                                 obs::Domain::kWall);
  for (std::uint64_t v = 1; v <= 100; ++v) reg().observe(cell, v);
  const std::string profile = reg().export_profile();
  // Values 1..100: rank 50 lands in bucket_of(50)=6 (upper 63), ranks 95
  // and 99 in bucket_of(95)=7 (upper 127).
  EXPECT_NE(profile.find("t.profile_hist count=100 sum=5050 "
                         "p50=63 p95=127 p99=127"),
            std::string::npos)
      << profile;
}

TEST(ObsRegistry, WallDomainStaysOutOfDeterministicExports) {
  reg().reset();
  const auto sim_cell = reg().define("t.sim_only", obs::Kind::kCounter,
                                     obs::Domain::kSim);
  const auto wall_cell = reg().define("t.wall_only", obs::Kind::kCounter,
                                      obs::Domain::kWall);
  reg().add(sim_cell, 1);
  reg().add(wall_cell, 1);

  const std::string prom = reg().export_prometheus();
  const std::string csv = reg().export_csv();
  EXPECT_NE(prom.find("t_sim_only"), std::string::npos);
  EXPECT_EQ(prom.find("t_wall_only"), std::string::npos);
  EXPECT_NE(csv.find("t.sim_only"), std::string::npos);
  EXPECT_EQ(csv.find("t.wall_only"), std::string::npos);
  // The profile channel is where wall metrics surface (raw names there).
  EXPECT_NE(reg().export_profile().find("t.wall_only"), std::string::npos);
}

TEST(ObsRegistry, PrometheusExportShapes) {
  reg().reset();
  const auto counter = reg().define("t.export_counter", obs::Kind::kCounter,
                                    obs::Domain::kSim);
  const auto histogram = reg().define("t.export_hist", obs::Kind::kHistogram,
                                      obs::Domain::kSim);
  reg().add(counter, 12);
  reg().observe(histogram, 5);

  const std::string prom = reg().export_prometheus();
  EXPECT_NE(prom.find("# TYPE ofh_t_export_counter counter"),
            std::string::npos);
  EXPECT_NE(prom.find("ofh_t_export_counter 12"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE ofh_t_export_hist histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("ofh_t_export_hist_count 1"), std::string::npos);
  EXPECT_NE(prom.find("ofh_t_export_hist_sum 5"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);

  const std::string csv = reg().export_csv();
  EXPECT_NE(csv.find("metric,kind,field,value"), std::string::npos);
  EXPECT_NE(csv.find("t.export_counter,counter,value,12"), std::string::npos);
}

// ----------------------------------------------------------- thread merge

TEST(ObsThreading, ShardsMergeExactlyAcrossWorkerThreads) {
#ifdef OFH_NO_METRICS
  GTEST_SKIP() << "instrumentation compiled out";
#else
  reg().reset();
  const obs::Counter hits = obs::counter("t.hammer");
  constexpr int kTasks = 64;
  constexpr int kIncrementsPerTask = 1'000;
  {
    util::ThreadPool pool(8);
    for (int task = 0; task < kTasks; ++task) {
      pool.submit([hits] {
        for (int i = 0; i < kIncrementsPerTask; ++i) hits.inc();
      });
    }
    pool.wait_idle();
    // Live shards are summed while worker threads still exist...
    EXPECT_EQ(value_of("t.hammer"), kTasks * kIncrementsPerTask);
  }
  // ...and retired shards keep their totals after the pool is destroyed.
  EXPECT_EQ(value_of("t.hammer"), kTasks * kIncrementsPerTask);
#endif
}

// ------------------------------------------------------- flight recorder

obs::TraceEvent packet_event(std::uint64_t when) {
  obs::TraceEvent event;
  event.type = obs::TraceEventType::kPacketSend;
  event.time = when;
  event.src = 1;
  event.dst = 2;
  event.port = 23;
  return event;
}

TEST(ObsTrace, RingWraparoundEvictsOldestAndCountsDrops) {
  auto& traces = obs::TraceRegistry::global();
  traces.reset();
  traces.set_capacity(/*packet_events=*/32, /*session_events=*/32);
  obs::TraceRecorder& recorder = traces.recorder(/*shard=*/7);

  for (std::uint64_t i = 0; i < 100; ++i) recorder.record(packet_event(i));

  EXPECT_EQ(recorder.recorded(), 100u);
  EXPECT_GT(recorder.dropped(), 0u);
  const auto events = traces.merged();
  // The ring holds at most its capacity; eviction pops whole oldest chunks,
  // so what remains is exactly the newest suffix of the stream.
  ASSERT_LE(events.size(), 32u);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.size() + recorder.dropped(), 100u);
  EXPECT_EQ(events.back().time, 99u);
  EXPECT_EQ(events.front().time, 100 - events.size());  // oldest are gone
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time, events[i - 1].time + 1);  // contiguous suffix
  }

  // Restore defaults so later study tests run with real capacities.
  traces.set_capacity(obs::kDefaultPacketRingEvents,
                      obs::kDefaultSessionRingEvents);
  traces.reset();
}

TEST(ObsTrace, SessionRingSurvivesPacketFlood) {
  auto& traces = obs::TraceRegistry::global();
  traces.reset();
  traces.set_capacity(/*packet_events=*/32, /*session_events=*/32);
  obs::TraceRecorder& recorder = traces.recorder(/*shard=*/7);

  // Interleave: a packet flood must not evict the session narrative,
  // because the two classes ring independently.
  for (std::uint64_t i = 0; i < 10; ++i) {
    obs::TraceEvent session;
    session.type = obs::TraceEventType::kSessionCommand;
    session.time = i;
    session.src = 3;
    recorder.record(session);
    for (std::uint64_t j = 0; j < 50; ++j) {
      recorder.record(packet_event(i * 100 + j));
    }
  }

  std::size_t sessions = 0;
  for (const auto& event : traces.merged()) {
    if (event.type == obs::TraceEventType::kSessionCommand) ++sessions;
  }
  EXPECT_EQ(sessions, 10u);  // every session event retained

  traces.set_capacity(obs::kDefaultPacketRingEvents,
                      obs::kDefaultSessionRingEvents);
  traces.reset();
}

// ------------------------------------------------------ fabric conservation

class ObsLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(ObsLossSweep, PacketConservationIsExact) {
#ifdef OFH_NO_METRICS
  GTEST_SKIP() << "instrumentation compiled out";
#else
  reg().reset();
  const double loss = GetParam();
  sim::Simulation sim;
  net::Fabric fabric(sim, 3);
  fabric.set_loss_rate(loss);

  std::vector<std::unique_ptr<devices::Device>> hosts;
  for (int i = 1; i <= 60; ++i) {
    devices::DeviceSpec spec;
    spec.address = Ipv4Addr(10, 3, 0, static_cast<std::uint8_t>(i));
    spec.primary = proto::Protocol::kMqtt;
    spec.misconfig = devices::Misconfig::kMqttNoAuth;
    hosts.push_back(std::make_unique<devices::Device>(std::move(spec)));
    hosts.back()->attach(fabric);
  }

  scanner::ScanDb db;
  scanner::Scanner scanner(Ipv4Addr(9, 9, 9, 9), db);
  scanner.attach(fabric);
  scanner::ScanConfig config;
  config.protocol = proto::Protocol::kMqtt;
  config.targets = {*util::Cidr::parse("10.3.0.0/24")};
  bool done = false;
  scanner.start(config, [&done] { done = true; });
  sim.run();  // full drain: no packet may remain in flight
  ASSERT_TRUE(done);

  const std::int64_t sent = value_of("fabric.packets_sent");
  const std::int64_t delivered = value_of("fabric.packets_delivered");
  const std::int64_t dropped = value_of("fabric.packets_dropped");
  EXPECT_GT(sent, 0);
  EXPECT_EQ(sent, delivered + dropped) << "loss=" << loss;
  EXPECT_EQ(value_of("fabric.packets_inflight"), 0) << "loss=" << loss;

  // The obs totals mirror the fabric's own accounting exactly.
  EXPECT_EQ(sent, static_cast<std::int64_t>(fabric.packets_sent()));
  EXPECT_EQ(delivered,
            static_cast<std::int64_t>(fabric.packets_delivered()));
  EXPECT_EQ(dropped, static_cast<std::int64_t>(fabric.packets_dropped()));

  // Scanner probes reconcile with the scan DB's probe ledger, and every
  // probe maps to at least one fabric send.
  const std::int64_t probes = value_of("scanner.probes_sent");
  EXPECT_EQ(probes, static_cast<std::int64_t>(db.probes_sent()));
  EXPECT_EQ(probes,
            value_of(obs::labeled("scanner.probes", "protocol", "MQTT")));
  EXPECT_LE(probes, sent);
#endif
}

INSTANTIATE_TEST_SUITE_P(Rates, ObsLossSweep,
                         ::testing::Values(0.0, 0.05, 0.3, 1.0));

// ------------------------------------------------- study-wide reconciliation

core::StudyConfig scan_only_config(unsigned threads) {
  core::StudyConfig config;
  config.seed = 2021;
  config.population_scale = 1.0 / 16'384;
  config.scan_threads = threads;
  return config;
}

TEST(ObsStudy, ScanMetricsReconcileAtEveryThreadCount) {
#ifdef OFH_NO_METRICS
  GTEST_SKIP() << "instrumentation compiled out";
#else
  for (const unsigned threads : {1u, 2u, 8u}) {
    core::Study study(scan_only_config(threads));
    study.setup_internet();
    study.run_scan();

    // Probes: the obs ledger, the merged scan DB and the per-protocol
    // labeled counters must all tell the same story.
    const std::int64_t probes = value_of("scanner.probes_sent");
    EXPECT_EQ(probes,
              static_cast<std::int64_t>(study.scan_db().probes_sent()))
        << "scan_threads=" << threads;
    std::int64_t by_protocol = 0;
    for (const auto protocol : proto::scanned_protocols()) {
      by_protocol += value_of(obs::labeled(
          "scanner.probes", "protocol", proto::protocol_name(protocol)));
    }
    EXPECT_EQ(by_protocol, probes) << "scan_threads=" << threads;

    // Records: one obs increment per stored record.
    EXPECT_EQ(value_of("scanner.records"),
              static_cast<std::int64_t>(study.scan_db().size()))
        << "scan_threads=" << threads;

    // Fabric conservation across every shard replica. Shards stop stepping
    // the moment their sweep resolves, so scheduled-but-unresolved
    // deliveries remain: the inflight gauge accounts for them exactly.
    EXPECT_EQ(value_of("fabric.packets_sent"),
              value_of("fabric.packets_delivered") +
                  value_of("fabric.packets_dropped") +
                  value_of("fabric.packets_inflight"))
        << "scan_threads=" << threads;
  }
#endif
}

TEST(ObsStudy, FullRunReconcilesEventAndTelescopeTotals) {
#ifdef OFH_NO_METRICS
  GTEST_SKIP() << "instrumentation compiled out";
#else
  core::StudyConfig config;
  config.population_scale = 1.0 / 8'192;
  config.attack_scale = 1.0 / 128;
  config.attack_duration = sim::days(6);
  core::Study study(config);
  study.run_all();

  EXPECT_EQ(value_of("honeynet.events"),
            static_cast<std::int64_t>(study.attack_log().size()));
  EXPECT_EQ(value_of("telescope.packets"),
            static_cast<std::int64_t>(study.scope().total_packets()));
  EXPECT_EQ(value_of("telescope.spoofed_packets"),
            static_cast<std::int64_t>(study.scope().spoofed_packets()));
  EXPECT_EQ(value_of("telescope.flowtuples"),
            static_cast<std::int64_t>(study.scope().tuple_count()));
  EXPECT_EQ(value_of("telescope.rsdos_backscatter"),
            static_cast<std::int64_t>(study.rsdos().backscatter_packets()));

  // Every phase recorded a span and captured a metrics snapshot.
  ASSERT_EQ(study.phase_metrics().size(), 5u);
  EXPECT_EQ(study.phase_metrics().front().first, "setup");
  EXPECT_EQ(study.phase_metrics().back().first, "correlate");
  const auto spans = obs::Registry::global().spans();
  ASSERT_EQ(spans.size(), 6u);  // 5 phases + the scan/filter sub-span
  for (const auto& span : spans) {
    EXPECT_LE(span.sim_start, span.sim_end) << span.name;
  }
  // The deterministic export carries the spans with sim timestamps.
  EXPECT_NE(study.metrics_prometheus().find("# span correlate"),
            std::string::npos);
  // The profile channel is non-empty (wall times, thread-pool metrics).
  EXPECT_FALSE(study.metrics_profile().empty());
#endif
}

}  // namespace
}  // namespace ofh
