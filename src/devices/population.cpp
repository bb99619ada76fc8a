#include "devices/population.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "devices/paper_stats.h"
#include "devices/ports.h"

namespace ofh::devices {

// Base /8s used for allocation; skips reserved/special-use ranges and 44/8,
// which the study reserves as the network-telescope darknet. Public so
// StudyConfig::validate can reject a telescope range that would collide
// with populated space (core/study.cpp).
const std::vector<std::uint8_t>& usable_slash8() {
  static const std::vector<std::uint8_t> kBases = [] {
    std::vector<std::uint8_t> bases;
    for (int base = 11; base < 224; ++base) {
      if (base == 44 || base == 127 || base == 169 || base == 172 ||
          base == 192 || base == 198 || base == 203) {
        continue;
      }
      bases.push_back(static_cast<std::uint8_t>(base));
    }
    return bases;
  }();
  return kBases;
}

namespace {

// Largest-remainder apportionment of total across weights; guarantees that
// every strictly-positive weight receives at least one unit when total
// allows, keeping rare categories (e.g. Kako honeypots) represented at
// small scales.
std::vector<std::uint64_t> apportion(std::uint64_t total,
                                     const std::vector<double>& weights) {
  const double weight_sum =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<std::uint64_t> counts(weights.size(), 0);
  if (weight_sum <= 0 || total == 0) return counts;

  std::vector<std::pair<double, std::size_t>> remainders;
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double exact = total * weights[i] / weight_sum;
    counts[i] = static_cast<std::uint64_t>(exact);
    assigned += counts[i];
    remainders.push_back({exact - static_cast<double>(counts[i]), i});
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; assigned < total && i < remainders.size(); ++i) {
    ++counts[remainders[i].second];
    ++assigned;
  }
  return counts;
}

}  // namespace

Population::Population(PopulationSpec spec) : spec_(spec) {}
Population::~Population() { detach_all(); }

std::uint64_t Population::scaled(std::uint64_t paper_count) const {
  if (paper_count == 0) return 0;
  const auto scaled_count = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(paper_count) * spec_.scale));
  return std::max<std::uint64_t>(scaled_count, 1);
}

void Population::allocate_prefixes(std::uint64_t device_total) {
  // Enough /20s (4,096 addresses each) to hold device_total at the
  // configured density, distributed over countries by the Table 10 shares.
  // /20 granularity keeps the scan's sweep space proportional to the
  // population instead of paying 64k addresses per prefix at small scales.
  constexpr std::uint64_t kPrefixSize = 4'096;
  const auto needed_prefixes = static_cast<std::size_t>(
      device_total / (static_cast<double>(kPrefixSize) * spec_.density) + 1.5);

  std::vector<double> country_weights;
  for (const auto& row : paper::table10()) {
    country_weights.push_back(static_cast<double>(row.devices));
  }
  const auto per_country = apportion(
      std::max<std::uint64_t>(needed_prefixes, country_weights.size()),
      country_weights);

  const auto& bases = usable_slash8();
  std::size_t base_index = 0;
  std::uint32_t slot = 0;  // /20 slot within the /8: 4096 slots
  for (std::size_t c = 0; c < per_country.size(); ++c) {
    for (std::uint64_t i = 0; i < per_country[c]; ++i) {
      const std::uint32_t base_value =
          (std::uint32_t{bases[base_index]} << 24) | (slot << 12);
      prefixes_.push_back(util::Cidr(util::Ipv4Addr(base_value), 20));
      prefix_country_.emplace_back(paper::table10()[c].country);
      slot += 293;  // prime stride decorrelates prefixes from countries
      if (slot >= 4'096) {
        slot %= 4'096;
        base_index = (base_index + 1) % bases.size();
      }
    }
  }
}

util::Ipv4Addr Population::next_address(util::Rng& rng) {
  // Geometric gaps give the prefix the configured host density.
  const double density = std::clamp(spec_.density, 0.01, 1.0);
  std::uint64_t gap = 1;
  while (rng.uniform() > density && gap < 32) ++gap;
  cursor_offset_ += gap;
  if (cursor_offset_ >= prefixes_[cursor_prefix_].size() - 1) {
    cursor_offset_ = 1;
    cursor_prefix_ = (cursor_prefix_ + 1) % prefixes_.size();
  }
  return util::Ipv4Addr(prefixes_[cursor_prefix_].base().value() +
                        static_cast<std::uint32_t>(cursor_offset_));
}

void Population::build() {
  util::Rng rng = util::Rng(spec_.seed).fork("population");

  // Scaled per-protocol totals (Table 4, ZMap column).
  struct ProtocolPlan {
    proto::Protocol protocol;
    std::uint64_t exposed;
    std::vector<std::pair<Misconfig, std::uint64_t>> misconfigs;
  };
  std::vector<ProtocolPlan> plans;
  std::uint64_t device_total = 0;
  for (const auto& row : paper::table4()) {
    ProtocolPlan plan;
    plan.protocol = row.protocol;
    plan.exposed = scaled(row.zmap);
    device_total += plan.exposed;
    plans.push_back(plan);
  }

  // Fold Table 5 misconfiguration counts into the plans.
  const auto misconfig_of = [](const paper::MisconfigRow& row) {
    using P = proto::Protocol;
    if (row.protocol == P::kTelnet) {
      return row.vulnerability == "No auth, root access"
                 ? Misconfig::kTelnetNoAuthRoot
                 : Misconfig::kTelnetNoAuth;
    }
    if (row.protocol == P::kMqtt) return Misconfig::kMqttNoAuth;
    if (row.protocol == P::kAmqp) return Misconfig::kAmqpNoAuth;
    if (row.protocol == P::kXmpp) {
      return row.vulnerability == "Anonymous login" ? Misconfig::kXmppAnonymous
                                                    : Misconfig::kXmppPlaintext;
    }
    if (row.protocol == P::kCoap) {
      if (row.vulnerability == "No auth, admin access") {
        return Misconfig::kCoapAdminAccess;
      }
      if (row.vulnerability == "No auth") return Misconfig::kCoapNoAuth;
      return Misconfig::kCoapReflector;
    }
    return Misconfig::kUpnpReflector;
  };
  for (const auto& row : paper::table5()) {
    for (auto& plan : plans) {
      if (plan.protocol == row.protocol) {
        plan.misconfigs.push_back({misconfig_of(row), scaled(row.devices)});
      }
    }
  }

  allocate_prefixes(device_total);

  // First covering prefix per /20 base — the same prefix the old
  // first-match linear walk found (the prefix pool can repeat a base once
  // the slot stride wraps, so "first" matters for country/ASN assignment).
  std::unordered_map<std::uint32_t, std::uint32_t> first_prefix;
  first_prefix.reserve(prefixes_.size() * 2);
  for (std::size_t p = 0; p < prefixes_.size(); ++p) {
    first_prefix.emplace(prefixes_[p].base().value(),
                         static_cast<std::uint32_t>(p));
  }

  addresses_.reserve(device_total);
  prefix_index_.reserve(device_total);
  models_.reserve(device_total);
  type_index_.reserve(device_total);
  primary_.reserve(device_total);
  misconfig_.reserve(device_total);
  flags_.reserve(device_total);

  // Country assignment follows the prefix the address lands in, so the
  // country distribution is inherited from the prefix allocation.
  for (const auto& plan : plans) {
    // Per-device-type model pools for this protocol, hoisted out of the
    // per-device loop (they depend only on the plan). A pool stays empty
    // for "Unidentified" shares: no model draw happens for those, exactly
    // as the per-device string comparison used to decide.
    const auto& shares = type_shares(plan.protocol);
    std::vector<double> weights;
    for (const auto& share : shares) weights.push_back(share.share);
    const auto models = models_for(plan.protocol);
    std::vector<std::vector<const DeviceModel*>> pools(shares.size());
    for (std::size_t t = 0; t < shares.size(); ++t) {
      if (shares[t].device_type == "Unidentified") continue;
      for (const auto* model : models) {
        if (model->device_type == shares[t].device_type) {
          pools[t].push_back(model);
        }
      }
    }

    std::uint64_t misconfig_budget = 0;
    for (const auto& [kind, count] : plan.misconfigs) misconfig_budget += count;

    std::uint64_t misconfig_index = 0;    // which misconfig bucket
    std::uint64_t misconfig_emitted = 0;  // within the bucket

    for (std::uint64_t i = 0; i < plan.exposed; ++i) {
      const util::Ipv4Addr address = next_address(rng);

      // The first `misconfig_budget` devices of each protocol receive the
      // misconfigurations; addresses are already decorrelated from order.
      Misconfig misconfig = Misconfig::kNone;
      std::uint8_t flags = 0;
      if (i < misconfig_budget) {
        while (misconfig_index < plan.misconfigs.size() &&
               misconfig_emitted >= plan.misconfigs[misconfig_index].second) {
          misconfig_emitted = 0;
          ++misconfig_index;
        }
        if (misconfig_index < plan.misconfigs.size()) {
          misconfig = plan.misconfigs[misconfig_index].first;
          ++misconfig_emitted;
        }
      } else if (rng.chance(spec_.weak_credential_share)) {
        flags |= kWeakCredentialsBit;
      }

      // Device type / model.
      const std::size_t type_index = rng.weighted(weights);
      const DeviceModel* model = nullptr;
      if (type_index < pools.size() && !pools[type_index].empty()) {
        model = pools[type_index][rng.below(pools[type_index].size())];
      }

      if (misconfig != Misconfig::kNone && rng.chance(spec_.infected_share)) {
        flags |= kInfectedBit;
      }

      addresses_.push_back(address.value());
      prefix_index_.push_back(first_prefix.at(address.value() & 0xFFFFF000u));
      models_.push_back(model);
      type_index_.push_back(type_index < shares.size()
                                ? static_cast<std::uint8_t>(type_index)
                                : kUntypedIndex);
      primary_.push_back(static_cast<std::uint8_t>(plan.protocol));
      misconfig_.push_back(static_cast<std::uint8_t>(misconfig));
      flags_.push_back(flags);
    }
  }

  materialized_.resize(addresses_.size());

  by_address_.reserve(addresses_.size());
  for (std::size_t i = 0; i < addresses_.size(); ++i) {
    by_address_.push_back({addresses_[i], static_cast<std::uint32_t>(i)});
  }
  std::sort(by_address_.begin(), by_address_.end());
  for (std::size_t i = 0; i < by_address_.size();) {
    std::size_t j = i + 1;
    while (j < by_address_.size() &&
           by_address_[j].first == by_address_[i].first) {
      ++j;
    }
    if (j - i > 1) {
      for (std::size_t k = i; k < j; ++k) {
        duplicate_rows_.push_back(by_address_[k].second);
      }
    }
    i = j;
  }
  std::sort(duplicate_rows_.begin(), duplicate_rows_.end());
}

DeviceSpec Population::spec_at(std::uint64_t i) const {
  DeviceSpec spec;
  spec.address = util::Ipv4Addr(addresses_[i]);
  spec.model = models_[i];
  spec.primary = static_cast<proto::Protocol>(primary_[i]);
  if (type_index_[i] != kUntypedIndex) {
    const auto& shares = type_shares(spec.primary);
    spec.device_type = std::string(shares[type_index_[i]].device_type);
  }
  spec.country = prefix_country_[prefix_index_[i]];
  spec.asn = static_cast<std::uint32_t>(64'000 + prefix_index_[i]);
  spec.misconfig = static_cast<Misconfig>(misconfig_[i]);
  spec.weak_credentials = (flags_[i] & kWeakCredentialsBit) != 0;
  spec.infected = (flags_[i] & kInfectedBit) != 0;
  return spec;
}

std::optional<std::uint64_t> Population::index_of(util::Ipv4Addr addr) const {
  auto it = std::upper_bound(
      by_address_.begin(), by_address_.end(),
      std::make_pair(addr.value(), std::numeric_limits<std::uint32_t>::max()));
  if (it == by_address_.begin()) return std::nullopt;
  --it;
  if (it->first != addr.value()) return std::nullopt;
  return it->second;
}

Device* Population::device_at(std::uint64_t i) {
  auto& slot = materialized_[i];
  if (slot == nullptr) slot = std::make_unique<Device>(spec_at(i));
  if (fabric_ != nullptr && !slot->attached()) slot->attach(*fabric_);
  return slot.get();
}

std::uint64_t Population::materialized_count() const {
  std::uint64_t count = 0;
  for (const auto& device : materialized_) {
    if (device != nullptr) ++count;
  }
  return count;
}

Population::Verdict Population::classify(const net::Packet& packet) const {
  const auto row = index_of(packet.dst);
  if (!row) return Verdict::kNotOwned;
  if (materialized_[*row] != nullptr) {
    // Materialized but not registered: the device was detached (teardown or
    // churn), so the address no longer answers — same as a vanished host.
    return Verdict::kNotOwned;
  }
  const auto protocol = static_cast<proto::Protocol>(primary_[*row]);
  if (packet.transport == net::Transport::kUdp) {
    // Unbound UDP ports are silent (no ICMP in the model): consumed without
    // reaction, so no materialization needed.
    return device_ports(protocol, addresses_[*row]).binds_udp(packet.dst_port)
               ? Verdict::kMaterialize
               : Verdict::kConsume;
  }
  // TCP: a fresh stack silently ignores anything without a matching
  // connection except a SYN, which either reaches a listener (materialize:
  // the handshake builds state) or draws a closed-port RST.
  if (!packet.is_syn_only()) return Verdict::kConsume;
  return device_ports(protocol, addresses_[*row]).listens_tcp(packet.dst_port)
             ? Verdict::kMaterialize
             : Verdict::kReset;
}

net::Host* Population::materialize(util::Ipv4Addr addr) {
  const auto row = index_of(addr);
  if (!row) return nullptr;
  return device_at(*row);
}

void Population::attach_all(net::Fabric& fabric) {
  fabric_ = &fabric;
  fabric.set_lazy_source(this);
  // Devices sharing an address must exist eagerly: with both attached (in
  // build order), the fabric's host map holds the later one — identical to
  // the eager world's last-registration-wins. Lazy classification would
  // otherwise answer for the canonical row only.
  for (const std::uint32_t row : duplicate_rows_) device_at(row);
}

void Population::detach_all() {
  if (fabric_ == nullptr) return;
  for (auto& device : materialized_) {
    if (device != nullptr && device->attached()) device->detach();
  }
  fabric_->clear_lazy_source(this);
  fabric_ = nullptr;
}

util::Ipv4Addr Population::allocate_extra() {
  util::Rng rng = util::Rng(spec_.seed).fork("extras");
  // Walk forward from the cursor; skip occupied addresses.
  for (;;) {
    const util::Ipv4Addr addr = next_address(rng);
    bool taken = false;
    if (fabric_ != nullptr && fabric_->host_at(addr) != nullptr) taken = true;
    if (!taken && index_of(addr).has_value()) taken = true;
    if (!taken) return addr;
  }
}

std::uint64_t Population::misconfigured_count() const {
  std::uint64_t count = 0;
  for (const auto value : misconfig_) {
    if (value != static_cast<std::uint8_t>(Misconfig::kNone)) ++count;
  }
  return count;
}

std::uint64_t Population::infected_count() const {
  std::uint64_t count = 0;
  for (const auto flags : flags_) {
    if ((flags & kInfectedBit) != 0) ++count;
  }
  return count;
}

std::uint64_t Population::count_for(proto::Protocol protocol) const {
  std::uint64_t count = 0;
  const auto wanted = static_cast<std::uint8_t>(protocol);
  for (const auto value : primary_) {
    if (value == wanted) ++count;
  }
  return count;
}

}  // namespace ofh::devices
