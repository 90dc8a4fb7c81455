#include "core/catalog_builder.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "stats/rng.hpp"

namespace wtr::core {

namespace {

template <typename T>
void insert_unique(std::vector<T>& list, const T& value) {
  if (std::find(list.begin(), list.end(), value) == list.end()) list.push_back(value);
}

constexpr std::size_t kMinSlots = 64;

/// Fibonacci hashing: the top log2(slots) bits of the product.
std::size_t slot_of(signaling::DeviceHash device, std::size_t slots) noexcept {
  return static_cast<std::size_t>((device * 0x9E3779B97F4A7C15ull) >>
                                  (64 - std::countr_zero(slots)));
}

/// Prefetches every cache line of `*object`.
template <typename T>
void prefetch_lines(const T* object) {
  const auto* bytes = reinterpret_cast<const char*>(object);
  for (std::size_t offset = 0; offset < sizeof(T); offset += 64) {
    __builtin_prefetch(bytes + offset);
  }
  __builtin_prefetch(bytes + sizeof(T) - 1);
}

}  // namespace

std::size_t CatalogAccumulator::DayKeyHash::operator()(const DayKey& key) const noexcept {
  return stats::mix64(key.first,
                      static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.second)));
}

CatalogAccumulator::CatalogAccumulator(Config config) : config_(std::move(config)) {
  if (config_.family_plmns.empty()) config_.family_plmns.push_back(config_.observer_plmn);
}

bool CatalogAccumulator::in_family(cellnet::Plmn plmn) const noexcept {
  return std::find(config_.family_plmns.begin(), config_.family_plmns.end(), plmn) !=
         config_.family_plmns.end();
}

CatalogAccumulator::Partial& CatalogAccumulator::partial_for(
    signaling::DeviceHash device, std::int32_t day, cellnet::Plmn sim_plmn) {
  auto& partial = partial_at(device, day);
  // A dwell record may have opened this partial before any SIM-bearing
  // record arrived; fill the identity from the first record that knows it.
  if (!partial.sim_plmn.valid()) partial.sim_plmn = sim_plmn;
  return partial;
}

CatalogAccumulator::Partial& CatalogAccumulator::partial_at(signaling::DeviceHash device,
                                                            std::int32_t day) {
  if (2 * (open_used_ + 1) > open_.size()) grow();
  const std::size_t mask = open_.size() - 1;
  for (std::size_t i = slot_of(device, open_.size());; i = (i + 1) & mask) {
    Slot& slot = open_[i];
    if (!slot.used) {
      slot.used = true;
      ++open_used_;
      slot.partial = Partial{.device = device, .day = day};
      return slot.partial;
    }
    Partial& open = slot.partial;
    if (open.device != device) continue;
    if (day == open.day) return open;
    if (day < open.day) return late_partial(device, day);
    close(open);
    open = Partial{.device = device, .day = day};
    return open;
  }
}

CatalogAccumulator::Partial& CatalogAccumulator::late_partial(signaling::DeviceHash device,
                                                              std::int32_t day) {
  if (!late_index_built_) {
    late_index_.reserve(closed_.size());
    for (std::size_t i = 0; i < closed_.size(); ++i) {
      late_index_.emplace(std::pair{closed_[i].device, closed_[i].day}, i);
    }
    late_index_built_ = true;
  }
  const auto [it, inserted] = late_index_.try_emplace({device, day}, closed_.size());
  if (inserted) closed_.push_back(Partial{.device = device, .day = day});
  return closed_[it->second];
}

void CatalogAccumulator::close(Partial& partial) {
  if (late_index_built_) {
    late_index_.emplace(std::pair{partial.device, partial.day}, closed_.size());
  }
  closed_.push_back(std::move(partial));
}

void CatalogAccumulator::add_visited(Partial& partial, cellnet::Plmn plmn) {
  if (!partial.visited_plmns.empty() && plmn == partial.last_visited) return;
  insert_unique(partial.visited_plmns, plmn);
  partial.last_visited = plmn;
}

void CatalogAccumulator::add_apn(Partial& partial, const std::string& apn) {
  if (apn.empty()) return;
  const auto id =
      apn_ids_.try_emplace(apn, static_cast<std::uint32_t>(apn_ids_.size())).first->second;
  if (!partial.apns.empty() && id == partial.last_apn) return;
  insert_unique(partial.apns, apn);
  partial.last_apn = id;
}

void CatalogAccumulator::grow() {
  std::vector<Slot> old =
      std::exchange(open_, std::vector<Slot>(std::max(kMinSlots, 2 * open_.size())));
  const std::size_t mask = open_.size() - 1;
  for (Slot& from : old) {
    if (!from.used) continue;
    std::size_t i = slot_of(from.partial.device, open_.size());
    while (open_[i].used) i = (i + 1) & mask;
    open_[i] = std::move(from);
  }
}

void CatalogAccumulator::on_signaling(const signaling::SignalingTransaction& txn,
                                      bool data_context) {
  (void)data_context;
  // Radio-log visibility: the observer's probes sit on its own RAN.
  if (txn.visited_plmn != config_.observer_plmn) return;
  ++accepted_;
  auto& partial = partial_for(txn.device, stats::day_of(txn.time), txn.sim_plmn);
  ++partial.signaling_events;
  if (signaling::is_failure(txn.result)) {
    ++partial.failed_events;
  } else {
    partial.radio_flags.set(txn.rat);
  }
  add_visited(partial, txn.visited_plmn);
  if (txn.tac != 0) partial.tac = txn.tac;
}

void CatalogAccumulator::on_cdr(const records::Cdr& cdr) {
  const bool on_observer_network = cdr.visited_plmn == config_.observer_plmn;
  if (!on_observer_network && !in_family(cdr.sim_plmn)) return;
  ++accepted_;
  auto& partial = partial_for(cdr.device, stats::day_of(cdr.time), cdr.sim_plmn);
  ++partial.calls;
  partial.call_seconds += cdr.duration_s;
  partial.voice_rats.set(cdr.rat);
  add_visited(partial, cdr.visited_plmn);
}

void CatalogAccumulator::on_xdr(const records::Xdr& xdr) {
  const bool on_observer_network = xdr.visited_plmn == config_.observer_plmn;
  if (!on_observer_network && !in_family(xdr.sim_plmn)) return;
  ++accepted_;
  auto& partial = partial_for(xdr.device, stats::day_of(xdr.time), xdr.sim_plmn);
  partial.bytes += xdr.bytes_total();
  partial.data_rats.set(xdr.rat);
  add_visited(partial, xdr.visited_plmn);
  add_apn(partial, xdr.apn);
}

void CatalogAccumulator::on_dwell(signaling::DeviceHash device, std::int32_t day,
                                  cellnet::Plmn visited_plmn,
                                  const cellnet::GeoPoint& location, double seconds) {
  // Sector coordinates exist only for the observer's own sectors.
  if (visited_plmn != config_.observer_plmn) return;
  // Dwell alone does not create a record: only devices with some observed
  // activity that day get mobility metrics. To keep it simple (and to match
  // "time spent on each individual sector", which accrues continuously) we
  // accept dwell into the partial regardless; finalize() drops positionless
  // pure-dwell records.
  partial_at(device, day).gyration.add(location, seconds);
}

records::DevicesCatalog CatalogAccumulator::finalize() {
  // Deterministic output order: sort by (device, day). Sorting compact keys
  // and then visiting each partial once keeps the sort in cache.
  struct Key {
    signaling::DeviceHash device;
    std::int32_t day;
    Partial* partial;
  };
  std::vector<Key> order;
  order.reserve(closed_.size() + open_used_);
  for (Partial& partial : closed_) order.push_back({partial.device, partial.day, &partial});
  for (Slot& slot : open_) {
    if (slot.used) order.push_back({slot.partial.device, slot.partial.day, &slot.partial});
  }
  std::sort(order.begin(), order.end(), [](const Key& a, const Key& b) {
    if (a.device != b.device) return a.device < b.device;
    return a.day < b.day;
  });

  // The partials are visited in scattered order: prefetch a few keys ahead.
  constexpr std::size_t kPrefetch = 16;
  records::DevicesCatalog catalog;
  catalog.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i + kPrefetch < order.size()) prefetch_lines(order[i + kPrefetch].partial);
    Partial& partial = *order[i].partial;
    const bool has_activity =
        partial.signaling_events > 0 || partial.calls > 0 || partial.bytes > 0;
    if (!has_activity) continue;  // dwell-only artifacts
    records::DailyDeviceRecord record;
    record.device = partial.device;
    record.day = partial.day;
    record.sim_plmn = partial.sim_plmn;
    record.visited_plmns = std::move(partial.visited_plmns);
    std::sort(record.visited_plmns.begin(), record.visited_plmns.end());
    record.signaling_events = partial.signaling_events;
    record.failed_events = partial.failed_events;
    record.calls = partial.calls;
    record.call_seconds = partial.call_seconds;
    record.bytes = partial.bytes;
    record.apns = std::move(partial.apns);
    std::sort(record.apns.begin(), record.apns.end());
    record.tac = partial.tac;
    record.radio_flags = partial.radio_flags;
    record.data_rats = partial.data_rats;
    record.voice_rats = partial.voice_rats;
    if (!partial.gyration.empty()) {
      record.centroid = partial.gyration.centroid();
      record.gyration_m = partial.gyration.gyration_m();
      record.has_position = true;
    }
    catalog.add(std::move(record));
  }
  open_ = {};
  open_used_ = 0;
  closed_ = {};
  late_index_ = {};
  late_index_built_ = false;
  apn_ids_ = {};
  return catalog;
}

bool DeviceSummary::attached_to(cellnet::Plmn plmn) const noexcept {
  return std::find(visited_plmns.begin(), visited_plmns.end(), plmn) !=
         visited_plmns.end();
}

std::vector<DeviceSummary> summarize(const records::DevicesCatalog& catalog) {
  std::unordered_map<signaling::DeviceHash, DeviceSummary> by_device;
  std::unordered_map<signaling::DeviceHash, std::pair<double, std::uint32_t>> gyration_sums;
  by_device.reserve(catalog.size());

  for (const auto& record : catalog.records()) {
    auto [it, inserted] = by_device.try_emplace(record.device);
    DeviceSummary& summary = it->second;
    if (inserted) {
      summary.device = record.device;
      summary.sim_plmn = record.sim_plmn;
      summary.first_day = record.day;
      summary.last_day = record.day;
    }
    summary.first_day = std::min(summary.first_day, record.day);
    summary.last_day = std::max(summary.last_day, record.day);
    ++summary.active_days;
    summary.signaling_events += record.signaling_events;
    summary.failed_events += record.failed_events;
    summary.calls += record.calls;
    summary.call_seconds += record.call_seconds;
    summary.bytes += record.bytes;
    for (const auto& plmn : record.visited_plmns) {
      if (std::find(summary.visited_plmns.begin(), summary.visited_plmns.end(), plmn) ==
          summary.visited_plmns.end()) {
        summary.visited_plmns.push_back(plmn);
      }
    }
    for (const auto& apn : record.apns) {
      if (std::find(summary.apns.begin(), summary.apns.end(), apn) ==
          summary.apns.end()) {
        summary.apns.push_back(apn);
      }
    }
    if (record.tac != 0) summary.tac = record.tac;
    summary.radio_flags = cellnet::RatMask{
        static_cast<std::uint8_t>(summary.radio_flags.bits() | record.radio_flags.bits())};
    summary.data_rats = cellnet::RatMask{
        static_cast<std::uint8_t>(summary.data_rats.bits() | record.data_rats.bits())};
    summary.voice_rats = cellnet::RatMask{
        static_cast<std::uint8_t>(summary.voice_rats.bits() | record.voice_rats.bits())};
    if (record.has_position) {
      auto& [sum, days] = gyration_sums[record.device];
      sum += record.gyration_m;
      ++days;
      summary.has_position = true;
    }
  }

  std::vector<DeviceSummary> out;
  out.reserve(by_device.size());
  for (auto& [device, summary] : by_device) {
    const auto it = gyration_sums.find(device);
    if (it != gyration_sums.end() && it->second.second > 0) {
      summary.mean_daily_gyration_m = it->second.first / it->second.second;
    }
    std::sort(summary.visited_plmns.begin(), summary.visited_plmns.end());
    std::sort(summary.apns.begin(), summary.apns.end());
    out.push_back(std::move(summary));
  }
  std::sort(out.begin(), out.end(), [](const DeviceSummary& a, const DeviceSummary& b) {
    return a.device < b.device;
  });
  return out;
}

}  // namespace wtr::core
