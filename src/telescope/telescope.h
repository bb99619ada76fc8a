// The network telescope: a routed darknet range (the paper's is a /8 with
// 16M addresses) attached to the fabric as a packet sink. Observed packets
// are aggregated into per-minute FlowTuples; query helpers reproduce the
// Table 8 analysis (daily averages per protocol, unique sources,
// scanning-service vs suspicious classification).
#pragma once

#include <array>
#include <cstdint>
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

  // All tuples, sorted by (minute, src, dst, ports, transport): a copy of
  // the first-seen-order store, so the sequence never depends on arrival
  // order (tests/telescope_test proves insertion-order independence). No
  // study phase reads it — Table 8 comes from the per-protocol aggregates
  // below; it feeds the tests and flowtuples_to_csv (telescope/rsdos.h).
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
    bool operator==(const TupleKey&) const = default;
  };
  static TupleKey key_of(const FlowTuple& tuple);
  struct TupleKeyHash {
    std::size_t operator()(const TupleKey& key) const {
      std::uint64_t h = util::splitmix64(
          key.minute ^ (std::uint64_t{key.src} << 32 | key.dst));
      return util::splitmix64(
          h ^ (std::uint64_t{key.ports} << 8 | key.transport));
    }
  };

  // The index slot holding `key`'s tuple, or the empty slot it belongs in.
  std::size_t find_slot(const TupleKey& key) const;
  // Doubles the index and re-inserts every tuple from the dense store.
  void grow_index();

  // protocol_for_port only ever yields the first six protocols.
  static constexpr std::size_t kTrackedProtocols =
      static_cast<std::size_t>(proto::Protocol::kUpnp) + 1;
  // Sorts and deduplicates a protocol's source run if anything was
  // appended since its last compaction, then returns it.
  const std::vector<std::uint32_t>& compacted_sources(std::size_t index) const;

  util::Cidr range_;
  // The telescope sees every flood/backscatter packet (Table 8 is 2.7B
  // requests/day at paper scale), so the per-packet lookup is one probe
  // sequence in a flat open-addressing index: `index_` (power-of-two size,
  // at most half full, linear probing, never deletes) holds a tuple's
  // position in `tuples_` plus one, 0 for an empty slot. `tuples_` keeps
  // first-seen order; tuples() sorts a copy, so determinism never rests on
  // the store's layout.
  std::vector<FlowTuple> tuples_;
  std::vector<std::uint32_t> index_;
  std::array<std::uint64_t, kTrackedProtocols> packets_by_protocol_{};
  // One source run per tracked protocol: addresses are appended, and the
  // run is compacted (sorted, deduplicated) once it doubles past its last
  // compacted size, and before every read. `compacted_` is that size.
  mutable std::array<std::vector<std::uint32_t>, kTrackedProtocols>
      sources_by_protocol_;
  mutable std::array<std::size_t, kTrackedProtocols> compacted_{};
  std::uint64_t total_packets_ = 0;
  std::uint64_t spoofed_packets_ = 0;
  std::uint64_t masscan_packets_ = 0;
};

}  // namespace ofh::telescope
