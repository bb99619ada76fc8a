// The network telescope: a routed darknet range (the paper's is a /8 with
// 16M addresses) attached to the fabric as a packet sink. Observed packets
// are aggregated into per-minute FlowTuples; query helpers reproduce the
// Table 8 analysis (daily averages per protocol, unique sources,
// scanning-service vs suspicious classification).
#pragma once

#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "net/fabric.h"
#include "telescope/flowtuple.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ofh::telescope {

class Telescope : public net::PacketSink {
 public:
  explicit Telescope(util::Cidr range) : range_(range) {}

  util::Cidr range() const { return range_; }
  void attach(net::Fabric& fabric) { fabric.add_darknet(range_, *this); }

  // PacketSink: aggregate into the current minute's tuple.
  void observe(const net::Packet& packet, sim::Time when) override;

  // Flow-level entry point: aggregates `count` copies of an identical
  // packet in one call. Equivalent to calling observe() `count` times —
  // the 64-bit counters absorb paper-scale volumes (2.7B packets/day)
  // without 4B virtual calls; tests/telescope_test.cpp plants counts
  // past 2^32 through this to pin the overflow fix.
  void observe_aggregate(const net::Packet& packet, sim::Time when,
                         std::uint64_t count);

  // All tuples, sorted by (minute, src, dst, ports, transport). The store
  // is an unordered_map for the per-packet hot path; this export is the
  // only place its contents leave the class wholesale, and the sort is
  // what keeps every downstream table byte-identical (tests/telescope_test
  // proves insertion-order independence, tests/parallel_test proves
  // byte-identical reports at any scan_threads).
  std::vector<FlowTuple> tuples() const;
  std::size_t tuple_count() const { return tuples_.size(); }

  std::uint64_t total_packets() const { return total_packets_; }

  // Packets towards a tracked IoT protocol, total over the capture.
  std::uint64_t packets_for(proto::Protocol protocol) const;
  // Unique source addresses seen probing a protocol.
  std::uint64_t unique_sources_for(proto::Protocol protocol) const;
  std::vector<util::Ipv4Addr> sources_for(proto::Protocol protocol) const;
  std::vector<util::Ipv4Addr> all_sources() const;

  // Daily average over the observed capture span.
  double daily_average_for(proto::Protocol protocol,
                           std::uint64_t capture_days) const;

  std::uint64_t spoofed_packets() const { return spoofed_packets_; }
  std::uint64_t masscan_packets() const { return masscan_packets_; }

 private:
  struct TupleKey {
    std::uint64_t minute;
    std::uint32_t src;
    std::uint32_t dst;
    std::uint32_t ports;  // src<<16|dst
    std::uint8_t transport;
    auto operator<=>(const TupleKey&) const = default;
    bool operator==(const TupleKey&) const = default;
  };
  // The telescope sees every flood/backscatter packet (Table 8 is 2.7B
  // requests/day at paper scale), so the per-packet lookup must be O(1):
  // an ordered map's log-n pointer chase dominated Telescope::observe.
  // Determinism is preserved at the export boundary — tuples() sorts by
  // key — never by relying on iteration order here.
  struct TupleKeyHash {
    std::size_t operator()(const TupleKey& key) const {
      std::uint64_t h = util::splitmix64(
          key.minute ^ (std::uint64_t{key.src} << 32 | key.dst));
      return util::splitmix64(
          h ^ (std::uint64_t{key.ports} << 8 | key.transport));
    }
  };

  util::Cidr range_;
  std::unordered_map<TupleKey, FlowTuple, TupleKeyHash> tuples_;
  std::map<proto::Protocol, std::uint64_t> packets_by_protocol_;
  std::map<proto::Protocol, std::set<std::uint32_t>> sources_by_protocol_;
  std::uint64_t total_packets_ = 0;
  std::uint64_t spoofed_packets_ = 0;
  std::uint64_t masscan_packets_ = 0;
};

}  // namespace ofh::telescope
