#pragma once

// Devices-catalog construction (§4.1): a streaming RecordSink that joins
// the three raw sources — radio events, CDRs/xDRs and the TAC identity —
// into one DailyDeviceRecord per (device, day), applying the observing
// MNO's visibility rules:
//   * radio events are seen only when the device used the observer's radio
//     network (outbound roamers' radio signaling stays abroad);
//   * CDRs/xDRs are seen for the observer's radio network AND for the
//     observer's own/MVNO SIMs abroad (roaming reconciliation records);
//   * sector dwell (mobility) exists only on the observer's own sectors.
//
// Also defines DeviceSummary, the per-device rollup every §5–7 analysis
// consumes.

#include <unordered_map>
#include <utility>
#include <vector>

#include "core/mobility_metrics.hpp"
#include "records/devices_catalog.hpp"
#include "sim/device_agent.hpp"

namespace wtr::core {

class CatalogAccumulator final : public sim::RecordSink {
 public:
  struct Config {
    cellnet::Plmn observer_plmn{};               // the MNO under study
    std::vector<cellnet::Plmn> family_plmns;     // observer + its MVNOs
  };

  explicit CatalogAccumulator(Config config);

  void on_signaling(const signaling::SignalingTransaction& txn,
                    bool data_context) override;
  void on_cdr(const records::Cdr& cdr) override;
  void on_xdr(const records::Xdr& xdr) override;
  void on_dwell(signaling::DeviceHash device, std::int32_t day,
                cellnet::Plmn visited_plmn, const cellnet::GeoPoint& location,
                double seconds) override;

  /// Number of raw records accepted (after visibility filtering).
  [[nodiscard]] std::uint64_t accepted_records() const noexcept { return accepted_; }

  /// Drain into a catalog. The accumulator is empty afterwards.
  [[nodiscard]] records::DevicesCatalog finalize();

 private:
  // The last visited PLMN and APN (as an apn_ids_ id) sit inline, so that a
  // repeat, the common case, needs no visit to the heap-allocated lists.
  struct Partial {
    signaling::DeviceHash device = 0;
    std::int32_t day = 0;
    cellnet::Plmn sim_plmn{};
    cellnet::Plmn last_visited{};
    std::vector<cellnet::Plmn> visited_plmns{};
    std::uint64_t signaling_events = 0;
    std::uint64_t failed_events = 0;
    std::uint32_t calls = 0;
    std::uint32_t last_apn = 0;
    double call_seconds = 0.0;
    std::uint64_t bytes = 0;
    std::vector<std::string> apns{};
    cellnet::Tac tac = 0;
    cellnet::RatMask radio_flags{};
    cellnet::RatMask data_rats{};
    cellnet::RatMask voice_rats{};
    GyrationAccumulator gyration{};
  };

  /// One open-addressing slot: the partial of its device's latest day.
  struct Slot {
    bool used = false;
    Partial partial;
  };

  using DayKey = std::pair<signaling::DeviceHash, std::int32_t>;
  struct DayKeyHash {
    std::size_t operator()(const DayKey& key) const noexcept;
  };

  [[nodiscard]] bool in_family(cellnet::Plmn plmn) const noexcept;
  Partial& partial_for(signaling::DeviceHash device, std::int32_t day,
                       cellnet::Plmn sim_plmn);
  /// The one partial of (device, day).
  Partial& partial_at(signaling::DeviceHash device, std::int32_t day);
  /// Slow path for a day earlier than the device's open one.
  Partial& late_partial(signaling::DeviceHash device, std::int32_t day);
  static void add_visited(Partial& partial, cellnet::Plmn plmn);
  void add_apn(Partial& partial, const std::string& apn);
  void close(Partial& partial);
  void grow();

  Config config_;
  // The engine delivers each device's records in non-decreasing day order,
  // so almost every record lands in its device's open slot; a later day
  // moves the slot's partial to closed_. Records for an earlier day (trace
  // replay feeds whole streams one after another) find their partial in
  // closed_ through late_index_, which is built on the first such record.
  std::vector<Slot> open_;  // power-of-two size, linear probing
  std::size_t open_used_ = 0;
  std::vector<Partial> closed_;
  bool late_index_built_ = false;
  std::unordered_map<DayKey, std::size_t, DayKeyHash> late_index_;
  std::unordered_map<std::string, std::uint32_t> apn_ids_;
  std::uint64_t accepted_ = 0;
};

/// Per-device rollup across the whole observation window.
struct DeviceSummary {
  signaling::DeviceHash device = 0;
  cellnet::Plmn sim_plmn{};
  std::vector<cellnet::Plmn> visited_plmns;  // unique
  std::vector<std::string> apns;             // unique full APN strings
  cellnet::Tac tac = 0;

  std::uint32_t active_days = 0;
  std::int32_t first_day = 0;
  std::int32_t last_day = 0;

  std::uint64_t signaling_events = 0;
  std::uint64_t failed_events = 0;
  std::uint32_t calls = 0;
  double call_seconds = 0.0;
  std::uint64_t bytes = 0;

  cellnet::RatMask radio_flags{};
  cellnet::RatMask data_rats{};
  cellnet::RatMask voice_rats{};

  double mean_daily_gyration_m = 0.0;
  bool has_position = false;

  [[nodiscard]] double signaling_per_day() const noexcept {
    return active_days == 0 ? 0.0
                            : static_cast<double>(signaling_events) / active_days;
  }
  [[nodiscard]] double calls_per_day() const noexcept {
    return active_days == 0 ? 0.0 : static_cast<double>(calls) / active_days;
  }
  [[nodiscard]] double bytes_per_day() const noexcept {
    return active_days == 0 ? 0.0 : static_cast<double>(bytes) / active_days;
  }
  [[nodiscard]] bool attached_to(cellnet::Plmn plmn) const noexcept;
};

/// Roll the catalog up to one summary per device, ordered by device hash
/// (deterministic).
[[nodiscard]] std::vector<DeviceSummary> summarize(const records::DevicesCatalog& catalog);

}  // namespace wtr::core
