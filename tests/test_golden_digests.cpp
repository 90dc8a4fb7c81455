// Golden digests: an absolute determinism anchor. The other determinism
// suites compare two arms of the same build (threads=1 vs N, resumed vs
// uninterrupted, traced vs untraced), so a refactor that moves the output
// the same way in both arms still passes them. This suite hashes the full
// record stream, the metrics dump and the probe trajectory of five small
// scenarios with FNV-1a and compares each against a checked-in digest, at
// threads=1 and threads=4. For the three scenarios an MNO observes it also
// hashes every row of the §4.1 devices-catalog the run builds.
//
// Floating point differs across compilers and flags, so digests are keyed
// by toolchain (compiler id, version, target CPU, build type — the same key
// perfbench/golden.json uses). On a toolchain with no entry the tests skip
// and print the digests they computed, ready to be added to kGolden. A
// mismatch names the scenario and prints the new digest; changing a digest
// here must be explained in CHANGES.md.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/catalog_builder.hpp"
#include "faults/congestion.hpp"
#include "faults/fault_schedule.hpp"
#include "obs/observability.hpp"
#include "stats/sim_time.hpp"
#include "tracegen/m2m_platform_scenario.hpp"
#include "tracegen/mno_scenario.hpp"
#include "tracegen/smip_scenario.hpp"
#include "tracegen/storm_scenario.hpp"

#ifndef WTR_TOOLCHAIN
#define WTR_TOOLCHAIN "unknown"
#endif

namespace wtr {
namespace {

/// Checked-in digests per scenario. GCC 12.2 on x86-64 gives the same
/// digests at -O2 and -O3.
const std::map<std::string, std::string> kGcc12X86 = {
    {"mno", "f455a7ccefb11bd2"},
    {"platform", "c4d63e9be38a9b1f"},
    {"smip", "c805006d9c5a4d8a"},
    {"storm", "6322183605ae514c"},
    {"mno_faults", "a9d0270f32cddd3a"},
    {"catalog/mno", "1a30e3b97a7cc0a8"},
    {"catalog/smip", "87993af56d4613d0"},
    {"catalog/mno_faults", "f4c8e71719ac0949"},
};

const std::map<std::string, std::map<std::string, std::string>> kGolden = {
    {"GNU-12.2.0-x86_64-Release", kGcc12X86},
    {"GNU-12.2.0-x86_64-RelWithDebInfo", kGcc12X86},
};

/// Order-sensitive 64-bit FNV-1a.
class Fnv1a {
 public:
  void add(std::string_view bytes) noexcept {
    for (const char c : bytes) {
      hash_ ^= static_cast<std::uint8_t>(c);
      hash_ *= 1099511628211ull;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
    return buf;
  }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);  // bit-exact
  return buf;
}

/// Hashes every record, field by field, with doubles rendered bit-exactly.
class DigestSink final : public sim::RecordSink {
 public:
  Fnv1a fnv;

  void on_signaling(const signaling::SignalingTransaction& txn,
                    bool data_context) override {
    add_fields('S', signaling::to_csv_fields(txn));
    fnv.add(data_context ? "dc\n" : "-\n");
  }
  void on_cdr(const records::Cdr& cdr) override {
    add_fields('C', records::to_csv_fields(cdr));
  }
  void on_xdr(const records::Xdr& xdr) override {
    add_fields('X', records::to_csv_fields(xdr));
  }
  void on_dwell(signaling::DeviceHash device, std::int32_t day,
                cellnet::Plmn visited_plmn, const cellnet::GeoPoint& location,
                double seconds) override {
    fnv.add("D:" + std::to_string(device) + "," + std::to_string(day) + "," +
            std::to_string(visited_plmn.key()) + "," + hex_double(location.lat) +
            "," + hex_double(location.lon) + "," + hex_double(seconds) + "\n");
  }

 private:
  template <typename Fields>
  void add_fields(char tag, const Fields& fields) {
    const char prefix[] = {tag, ':'};
    fnv.add(std::string_view(prefix, 2));
    for (const auto& field : fields) {
      fnv.add(field);
      fnv.add(",");
    }
    fnv.add("\n");
  }
};

void add_metrics(Fnv1a& fnv, const obs::MetricsRegistry& metrics) {
  for (const auto& [name, counter] : metrics.counters()) {
    fnv.add(name + "=" + std::to_string(counter.value()) + "\n");
  }
  for (const auto& [name, gauge] : metrics.gauges()) {
    fnv.add(name + "=" + hex_double(gauge.value()) + "\n");
  }
  for (const auto& [name, hist] : metrics.histograms()) {
    fnv.add(name + ": n=" + std::to_string(hist.count()) +
            " sum=" + hex_double(hist.sum()) + " buckets=");
    for (const auto b : hist.bucket_counts()) fnv.add(std::to_string(b) + ",");
    fnv.add("\n");
  }
}

void add_probe(Fnv1a& fnv, const obs::EngineProbe& probe) {
  for (const auto& s : probe.samples()) {
    fnv.add(std::to_string(s.sim_time) + "|" + std::to_string(s.wakes) + "|" +
            std::to_string(s.queue_depth) + "|" + std::to_string(s.records) + "|" +
            std::to_string(s.attach_attempts) + "|" +
            std::to_string(s.attach_failures) + "|" +
            std::to_string(s.active_fault_episodes) + "\n");
  }
  fnv.add("max=" + std::to_string(probe.queue_depth_max()) +
          " records=" + std::to_string(probe.records_total()) +
          " failures=" + std::to_string(probe.attach_failures()));
}

/// Runs `scenario` into a digest sink, then folds in the metrics dump and
/// the probe trajectory: one digest for everything the run produced.
std::string digest_run(tracegen::ScenarioBase& scenario,
                       const obs::RunObservation& observation) {
  DigestSink sink;
  scenario.run({&sink});
  sink.fnv.add("\nmetrics\n");
  add_metrics(sink.fnv, observation.metrics());
  sink.fnv.add("\nprobe\n");
  add_probe(sink.fnv, observation.probe());
  return sink.fnv.hex();
}

/// Hashes every field of every devices-catalog row, doubles bit-exactly.
std::string digest_catalog(tracegen::ScenarioBase& scenario,
                           core::CatalogAccumulator::Config config) {
  core::CatalogAccumulator accumulator{std::move(config)};
  scenario.run({&accumulator});
  Fnv1a fnv;
  fnv.add("accepted=" + std::to_string(accumulator.accepted_records()) + "\n");
  const auto catalog = accumulator.finalize();
  const auto add = [&fnv](const std::string& field) {
    fnv.add(field);
    fnv.add(",");
  };
  for (const auto& row : catalog.records()) {
    add(std::to_string(row.device));
    add(std::to_string(row.day));
    add(std::to_string(row.sim_plmn.key()));
    for (const auto plmn : row.visited_plmns) add(std::to_string(plmn.key()));
    fnv.add("|");
    add(std::to_string(row.signaling_events));
    add(std::to_string(row.failed_events));
    add(std::to_string(row.calls));
    add(hex_double(row.call_seconds));
    add(std::to_string(row.bytes));
    for (const auto& apn : row.apns) add(apn);
    fnv.add("|");
    add(std::to_string(row.tac));
    add(std::to_string(row.radio_flags.bits()));
    add(std::to_string(row.data_rats.bits()));
    add(std::to_string(row.voice_rats.bits()));
    add(hex_double(row.centroid.lat));
    add(hex_double(row.centroid.lon));
    add(hex_double(row.gyration_m));
    fnv.add(row.has_position ? "p\n" : "-\n");
  }
  return fnv.hex();
}

/// Counts records whose day is earlier than a day already delivered for the
/// same device. CatalogAccumulator's fast path expects none: it keeps only
/// each device's latest day open.
class LateRecordSink final : public sim::RecordSink {
 public:
  std::uint64_t records = 0;
  std::uint64_t late = 0;

  void on_signaling(const signaling::SignalingTransaction& txn, bool) override {
    see(txn.device, stats::day_of(txn.time));
  }
  void on_cdr(const records::Cdr& cdr) override { see(cdr.device, stats::day_of(cdr.time)); }
  void on_xdr(const records::Xdr& xdr) override { see(xdr.device, stats::day_of(xdr.time)); }
  void on_dwell(signaling::DeviceHash device, std::int32_t day, cellnet::Plmn,
                const cellnet::GeoPoint&, double) override {
    see(device, day);
  }

 private:
  std::unordered_map<signaling::DeviceHash, std::int32_t> last_day_;

  void see(signaling::DeviceHash device, std::int32_t day) {
    ++records;
    const auto [it, inserted] = last_day_.try_emplace(device, day);
    if (inserted) return;
    if (day < it->second) {
      ++late;
    } else {
      it->second = day;
    }
  }
};

/// What a golden run reports: the digest of its record stream (plus metrics
/// and probe), the digest of the devices-catalog an MNO builds from it, or
/// the number of records that arrive after a later day of their device.
enum class Output { kStream, kCatalog, kLateRecords };

std::string report(tracegen::ScenarioBase& scenario, const obs::RunObservation& observation,
                   Output output, core::CatalogAccumulator::Config catalog = {}) {
  switch (output) {
    case Output::kStream:
      return digest_run(scenario, observation);
    case Output::kCatalog:
      return digest_catalog(scenario, std::move(catalog));
    case Output::kLateRecords: {
      LateRecordSink sink;
      scenario.run({&sink});
      return sink.records == 0 ? "no records" : std::to_string(sink.late);
    }
  }
  return {};
}

std::string run_mno(unsigned threads, const faults::FaultSchedule* faults = nullptr,
                    Output output = Output::kStream) {
  obs::RunObservation observation;
  tracegen::MnoScenarioConfig config;
  config.seed = 42;
  config.total_devices = 400;
  config.threads = threads;
  config.build_coverage = false;
  config.faults = faults;
  config.backoff.enabled = faults != nullptr;
  config.obs = observation.view();
  tracegen::MnoScenario scenario{config};
  return report(scenario, observation, output,
                {scenario.observer_plmn(), scenario.family_plmns()});
}

std::string run_platform(unsigned threads, Output output = Output::kStream) {
  obs::RunObservation observation;
  tracegen::M2MPlatformConfig config;
  config.seed = 7;
  config.total_devices = 400;
  config.threads = threads;
  config.obs = observation.view();
  tracegen::M2MPlatformScenario scenario{config};
  return report(scenario, observation, output);
}

std::string run_smip(unsigned threads, Output output = Output::kStream) {
  obs::RunObservation observation;
  tracegen::SmipScenarioConfig config;
  config.seed = 9;
  config.total_devices = 300;
  config.threads = threads;
  // Coverage on: SMIP is the scenario that emits dwell records.
  config.obs = observation.view();
  tracegen::SmipScenario scenario{config};
  return report(scenario, observation, output,
                {scenario.observer_plmn(), {scenario.observer_plmn()}});
}

std::string run_storm(unsigned threads, Output output = Output::kStream) {
  // The congestion model is borrowed by the engine and rolled during the
  // run, so every run gets a fresh one. Operator ids come from a throwaway
  // scenario with the same world seed (identical worlds build identically).
  constexpr std::uint64_t kSeed = 7331;
  tracegen::StormScenarioConfig probe_config;
  probe_config.seed = kSeed;
  probe_config.meters = 8;
  probe_config.trackers = 2;
  probe_config.days = 1;
  const tracegen::StormScenario probe{probe_config};

  obs::RunObservation observation;
  faults::CongestionConfig congestion_config;
  congestion_config.bucket_s = 60;
  congestion_config.capacities = {{probe.observer_radio(), 80.0}};
  faults::CongestionModel congestion{congestion_config, probe.operator_count(), nullptr,
                                     &observation.metrics()};
  tracegen::StormScenarioConfig config;
  config.seed = kSeed;
  config.meters = 400;
  config.trackers = 100;
  config.threads = threads;
  config.checkin_jitter_s = 150.0;
  config.backoff.enabled = true;
  config.congestion = &congestion;
  config.obs = observation.view();
  tracegen::StormScenario scenario{config};
  return report(scenario, observation, output);
}

std::string run_mno_faults(unsigned threads, Output output = Output::kStream) {
  // A total UK outage on day 3 and a registration storm on day 5, with
  // mechanistic backoff so rejected attaches reschedule irregularly.
  constexpr stats::SimTime kHour = 3600;
  faults::FaultSchedule schedule;
  {
    tracegen::MnoScenarioConfig probe_config;
    probe_config.seed = 42;
    probe_config.total_devices = 10;
    probe_config.build_coverage = false;
    const tracegen::MnoScenario probe{probe_config};
    const auto uk_mno = probe.world().well_known().uk_mno;
    schedule.add_outage(uk_mno, stats::day_start(3) + 8 * kHour,
                        stats::day_start(3) + 14 * kHour, 1.0);
    schedule.add_storm(uk_mno, stats::day_start(5) + 10 * kHour,
                       stats::day_start(5) + 16 * kHour, 0.35);
  }
  return run_mno(threads, &schedule, output);
}

void check_golden(const std::string& scenario,
                  const std::function<std::string(unsigned)>& run) {
  const std::string t1 = run(1);
  const std::string t4 = run(4);
  const auto toolchain = kGolden.find(WTR_TOOLCHAIN);
  if (toolchain == kGolden.end()) {
    GTEST_SKIP() << "no golden digests for toolchain " << WTR_TOOLCHAIN
                 << "; computed {\"" << scenario << "\", \"" << t1
                 << "\"} (threads=4: " << t4 << ")";
  }
  const std::string& expected = toolchain->second.at(scenario);
  EXPECT_EQ(t1, expected) << "golden digest mismatch for scenario '" << scenario
                          << "' at threads=1: new digest " << t1;
  EXPECT_EQ(t4, expected) << "golden digest mismatch for scenario '" << scenario
                          << "' at threads=4: new digest " << t4;
}

TEST(GoldenDigests, Mno) { check_golden("mno", [](unsigned t) { return run_mno(t); }); }

TEST(GoldenDigests, Platform) {
  check_golden("platform", [](unsigned t) { return run_platform(t); });
}

TEST(GoldenDigests, Smip) { check_golden("smip", [](unsigned t) { return run_smip(t); }); }

TEST(GoldenDigests, Storm) { check_golden("storm", [](unsigned t) { return run_storm(t); }); }

TEST(GoldenDigests, MnoFaultSchedule) {
  check_golden("mno_faults", [](unsigned t) { return run_mno_faults(t); });
}

TEST(GoldenDigests, MnoCatalog) {
  check_golden("catalog/mno",
               [](unsigned t) { return run_mno(t, nullptr, Output::kCatalog); });
}

TEST(GoldenDigests, SmipCatalog) {
  check_golden("catalog/smip", [](unsigned t) { return run_smip(t, Output::kCatalog); });
}

TEST(GoldenDigests, MnoFaultScheduleCatalog) {
  check_golden("catalog/mno_faults",
               [](unsigned t) { return run_mno_faults(t, Output::kCatalog); });
}

TEST(EngineOrder, DeviceDaysNeverGoBackwards) {
  const std::map<std::string, std::function<std::string(unsigned)>> scenarios = {
      {"mno", [](unsigned t) { return run_mno(t, nullptr, Output::kLateRecords); }},
      {"platform", [](unsigned t) { return run_platform(t, Output::kLateRecords); }},
      {"smip", [](unsigned t) { return run_smip(t, Output::kLateRecords); }},
      {"storm", [](unsigned t) { return run_storm(t, Output::kLateRecords); }},
      {"mno_faults", [](unsigned t) { return run_mno_faults(t, Output::kLateRecords); }},
  };
  for (const auto& [name, run] : scenarios) {
    for (const unsigned threads : {1u, 4u}) {
      EXPECT_EQ(run(threads), "0")
          << "records arrived after a later day of their device in scenario '" << name
          << "' at threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace wtr
