// Simulation-kernel microbenchmarks and the multi-sweep parallel wall-clock
// comparison.
//
// The kernel benches measure schedule+dispatch throughput of the pooled
// event arena (sim/event_queue.h) for the three closure shapes that matter:
// inline-sized captures (the common case — no allocation per event),
// oversized captures (heap fallback), and the chained ping-pong that
// dominates steady-state protocol timers. BM_KernelFixedDelayTimers shows
// what heap depth costs: the scan's 3 s timeouts in the heap against the
// same timeouts in a fixed-delay lane. BM_TelescopeObserve is the attack
// month's per-packet telescope cost: a pass of new flowtuples, then a pass
// that only finds and updates them.
//
// BM_ParallelSweeps is the speedup experiment: six independent Telnet
// sweeps, each on a private fabric replica, executed by ParallelRunner with
// 1/2/4 worker threads. Output is identical for every thread count (the
// determinism contract); wall-clock time is what changes. On a machine with
// >= 4 hardware threads the 4-thread run completes >= 2x faster than the
// 1-thread run; on fewer cores the ratio degrades toward 1x (use
// --benchmark_filter=BM_Parallel to run just this comparison).
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "devices/device.h"
#include "net/fabric.h"
#include "net/faults.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scanner/scanner.h"
#include "sim/parallel.h"
#include "sim/simulation.h"
#include "telescope/telescope.h"
#include "util/rng.h"

namespace {

// The obs hot path in isolation: one relaxed fetch_add on a thread-local
// shard per counter increment, three per histogram observation. These put a
// number on the "cheap" claim — compare a kernel bench with and without
// -DOFH_NO_METRICS for the end-to-end cost (< 5% on the event kernel).
void BM_MetricsCounterInc(benchmark::State& state) {
  const ofh::obs::Counter counter = ofh::obs::counter("bench.counter");
  for (auto _ : state) {
    counter.inc();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterInc);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  const ofh::obs::Histogram histogram =
      ofh::obs::histogram("bench.histogram");
  std::uint64_t value = 0;
  for (auto _ : state) {
    histogram.observe(value++ & 0xffff);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramObserve);

// The trace hot path: stamp shard/seq, append into the current chunk, and
// (once the ring is full) evict an oldest chunk every chunk_events records.
// The budget is ~2x the metrics histogram path above — a trace event writes
// 40 bytes plus bookkeeping where the histogram does three atomic adds.
void BM_TraceRecordPacketEvent(benchmark::State& state) {
  auto& traces = ofh::obs::TraceRegistry::global();
  traces.reset();
  std::uint64_t now = 0;
  for (auto _ : state) {
    ofh::obs::trace_event(ofh::obs::TraceEventType::kPacketSend, now++,
                          /*trace_id=*/42, /*src=*/1, /*dst=*/2, /*port=*/23);
  }
  state.SetItemsProcessed(state.iterations());
  traces.reset();
}
BENCHMARK(BM_TraceRecordPacketEvent);

// Minting is the other per-probe cost: one shifted-or on the shard counter.
void BM_TraceMintId(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(ofh::obs::mint_trace_id());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceMintId);

// 48-byte capture: fits SmallCallable's inline buffer, like the scanner's
// banner-window callback.
void BM_KernelInlineClosure(benchmark::State& state) {
  const std::int64_t events = state.range(0);
  std::array<std::uint64_t, 5> payload{1, 2, 3, 4, 5};
  for (auto _ : state) {
    ofh::sim::Simulation sim;
    std::uint64_t sum = 0;
    for (std::int64_t i = 0; i < events; ++i) {
      sim.at(static_cast<ofh::sim::Time>(i % 97),
             [&sum, payload] { sum += payload[0]; });
    }
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_KernelInlineClosure)->Arg(1 << 16);

// 128-byte capture: exceeds the inline buffer, takes the heap path.
void BM_KernelHeapClosure(benchmark::State& state) {
  const std::int64_t events = state.range(0);
  std::array<std::uint64_t, 16> payload{};
  payload[0] = 1;
  for (auto _ : state) {
    ofh::sim::Simulation sim;
    std::uint64_t sum = 0;
    for (std::int64_t i = 0; i < events; ++i) {
      sim.at(static_cast<ofh::sim::Time>(i % 97),
             [&sum, payload] { sum += payload[0]; });
    }
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_KernelHeapClosure)->Arg(1 << 16);

// One live event rescheduling itself: the steady-state timer loop. The
// arena recycles a single node the whole run.
void BM_KernelPingPong(benchmark::State& state) {
  const int limit = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ofh::sim::Simulation sim;
    int count = 0;
    std::function<void()> chain = [&] {
      if (++count < limit) sim.after(1, chain);
    };
    sim.after(1, chain);
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * limit);
}
BENCHMARK(BM_KernelPingPong)->Arg(1 << 16);

// The scan's timer shape: batches of probes, each arming a 3 s connect
// timeout and sending a packet whose delivery latency is jittered per
// target. Batches are paced so about range(0) timeouts are pending when the
// first ones fire, as during a sweep. The `after` arm puts every timeout in
// the heap, under the deliveries; the `after_fixed` arm keeps them in a
// FIFO lane (sim/event_queue.h), so the heap holds only the deliveries.
// Both arms fire the same events in the same order.
void BM_KernelFixedDelayTimers(benchmark::State& state, bool lanes) {
  using ofh::sim::Duration;
  const std::uint64_t probes = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint64_t kBatch = 4096;
  constexpr Duration kTimeout = ofh::sim::seconds(3);
  const Duration tick = kTimeout * kBatch / probes;
  for (auto _ : state) {
    ofh::sim::Simulation sim;
    std::uint64_t fired = 0;
    std::uint64_t sent = 0;
    std::function<void()> pump = [&] {
      for (std::uint64_t i = 0; i < kBatch && sent < probes; ++i, ++sent) {
        const Duration latency =
            ofh::sim::msec(5) + ofh::util::splitmix64(sent) % ofh::sim::msec(4);
        sim.after(latency, [&fired] { ++fired; });
        if (lanes) {
          sim.after_fixed(kTimeout, [&fired] { ++fired; });
        } else {
          sim.after(kTimeout, [&fired] { ++fired; });
        }
      }
      if (sent < probes) sim.after(tick, pump);
    };
    pump();
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * probes));
}
BENCHMARK_CAPTURE(BM_KernelFixedDelayTimers, after, false)->Arg(1 << 18);
BENCHMARK_CAPTURE(BM_KernelFixedDelayTimers, after_fixed, true)->Arg(1 << 18);

// The telescope's tuple store (telescope/telescope.h) at attack-month
// shape: range(0) distinct SYNs, each its own flowtuple, then the same
// packets again, which find their tuples and update them. Items are
// packets over both passes, so items/s is the per-packet cost.
void BM_TelescopeObserve(benchmark::State& state) {
  const auto packets = static_cast<std::uint32_t>(state.range(0));
  const auto range = *ofh::util::Cidr::parse("44.0.0.0/8");
  ofh::net::Packet packet;
  packet.transport = ofh::net::Transport::kTcp;
  packet.tcp_flags = ofh::net::TcpFlags::kSyn;
  packet.dst_port = 23;
  for (auto _ : state) {
    ofh::telescope::Telescope telescope(range);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::uint32_t i = 0; i < packets; ++i) {
        const std::uint64_t h = ofh::util::splitmix64(i);
        packet.src = ofh::util::Ipv4Addr(i * 2'654'435'761u);  // distinct
        packet.dst = ofh::util::Ipv4Addr(44u << 24 | (h & 0xffffff));
        packet.src_port = static_cast<std::uint16_t>(h >> 32);
        telescope.observe(packet, ofh::sim::seconds(i % 3600));
      }
    }
    benchmark::DoNotOptimize(telescope.tuple_count());
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(packets));
}
BENCHMARK(BM_TelescopeObserve)->Arg(1 << 21)->Unit(benchmark::kMillisecond);

// One Telnet sweep over a /24 with 200 devices on a private replica.
std::size_t run_sweep_shard(int shard) {
  ofh::sim::Simulation sim;
  ofh::net::Fabric fabric(sim, 7);
  fabric.set_latency(ofh::sim::msec(15), ofh::sim::msec(25));

  std::vector<std::unique_ptr<ofh::devices::Device>> devices;
  for (int i = 1; i <= 200; ++i) {
    ofh::devices::DeviceSpec spec;
    spec.address = ofh::util::Ipv4Addr(10, static_cast<std::uint8_t>(shard),
                                       0, static_cast<std::uint8_t>(i));
    spec.primary = ofh::proto::Protocol::kTelnet;
    spec.misconfig = ofh::devices::Misconfig::kTelnetNoAuth;
    devices.push_back(std::make_unique<ofh::devices::Device>(std::move(spec)));
    devices.back()->attach(fabric);
  }

  ofh::scanner::ScanDb db;
  ofh::scanner::Scanner scanner(ofh::util::Ipv4Addr(9, 9, 9, 9), db);
  scanner.attach(fabric);

  ofh::scanner::ScanConfig config;
  config.protocol = ofh::proto::Protocol::kTelnet;
  config.targets = {
      ofh::util::Cidr(ofh::util::Ipv4Addr(10, static_cast<std::uint8_t>(shard),
                                          0, 0),
                      24)};
  config.seed = ofh::sim::shard_seed(42, static_cast<std::uint64_t>(shard));
  config.batch_size = 64;
  bool done = false;
  scanner.start(config, [&done] { done = true; });
  while (!done && sim.step()) {
  }
  return db.size();
}

void BM_ParallelSweeps(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  std::size_t records = 0;
  for (auto _ : state) {
    std::vector<std::function<std::size_t()>> jobs;
    for (int shard = 0; shard < 6; ++shard) {
      jobs.emplace_back([shard] { return run_sweep_shard(shard); });
    }
    const auto counts = ofh::sim::ParallelRunner(threads).run(std::move(jobs));
    records = 0;
    for (const auto count : counts) records += count;
    benchmark::DoNotOptimize(records);
  }
  state.counters["records"] =
      benchmark::Counter(static_cast<double>(records));
  state.SetItemsProcessed(state.iterations() * 6);
}
BENCHMARK(BM_ParallelSweeps)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The fault-check cost on the Fabric::send hot path (net/faults.h). With no
// schedule the injector pointer is null and the check is a single branch —
// compare NoSchedule against the kernel benches above to verify it stays
// under 5%. QuietSchedule measures the realistic chaos case: an injector
// installed with window faults that are not active now, so every send walks
// the window list and the burst/rate draws. ActiveUniformLoss adds the 5%
// drop path itself.
void fabric_send_bench(benchmark::State& state,
                       const ofh::net::FaultSchedule* schedule) {
  ofh::sim::Simulation sim;
  ofh::net::Fabric fabric(sim, 7);
  fabric.set_latency(0, 0);
  if (schedule != nullptr) fabric.set_fault_schedule(*schedule);

  ofh::net::Packet packet;
  packet.src = ofh::util::Ipv4Addr(10, 0, 0, 1);
  packet.dst = ofh::util::Ipv4Addr(10, 0, 0, 2);  // unattached: drops cheap
  packet.transport = ofh::net::Transport::kUdp;

  std::uint64_t pending = 0;
  for (auto _ : state) {
    fabric.send(packet);
    if (++pending == 1024) {  // drain queued deliveries, amortised
      sim.run_until(sim.now() + 1);
      pending = 0;
    }
  }
  sim.run_until(sim.now() + 1);
  state.SetItemsProcessed(state.iterations());
}

void BM_FabricSendNoSchedule(benchmark::State& state) {
  fabric_send_bench(state, nullptr);
}
BENCHMARK(BM_FabricSendNoSchedule);

void BM_FabricSendQuietSchedule(benchmark::State& state) {
  ofh::net::ChaosOptions options;
  options.ranges = {*ofh::util::Cidr::parse("172.16.0.0/16")};
  options.start = ofh::sim::days(100);  // windows exist but never activate
  options.end = ofh::sim::days(101);
  ofh::net::FaultSchedule schedule = ofh::net::FaultSchedule::chaos(7, options);
  fabric_send_bench(state, &schedule);
}
BENCHMARK(BM_FabricSendQuietSchedule);

void BM_FabricSendActiveUniformLoss(benchmark::State& state) {
  ofh::net::FaultSchedule schedule;
  schedule.uniform_loss = 0.05;
  fabric_send_bench(state, &schedule);
}
BENCHMARK(BM_FabricSendActiveUniformLoss);

}  // namespace

BENCHMARK_MAIN();
