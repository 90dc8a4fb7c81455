// wtr_figures — regenerates the paper's figures and in-text tables (Figs.
// 2–3, 5–12; T1, T3), the classifier validation V1 and the extensions X1–X6,
// and checks each against its ledger.
//
//   wtr_figures [--threads=N] [id ...]      ids: fig02 ... x6; none = all
//
// kFigures holds one entry per id: the run it needs, the function that
// renders it, and its ledger rows. Figures that need a shared run share one
// simulation (MNO: 16k devices, seed 2019; platform: 10k devices, seed
// 2018); every other figure simulates its own config. WTR_BENCH_SCALE
// overrides every population; --threads=N (or WTR_BENCH_THREADS) sets the
// engine threads, which never change the output.
//
// stdout carries only the figures. stderr carries progress, one verdict line
// per figure and the ledger as a markdown table. A figure fails when the
// CRC-32 of its stdout differs from the checked-in digest for this toolchain
// (not checked under WTR_BENCH_SCALE or on a toolchain with no digests), or
// when a ledger row without a deviation id lies outside its band. The exit
// status is 1 if any figure failed, 2 on an unknown id.

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/activity_metrics.hpp"
#include "core/baseline_classifier.hpp"
#include "core/classifier_validation.hpp"
#include "core/clearing.hpp"
#include "core/platform_analysis.hpp"
#include "core/rat_usage.hpp"
#include "core/revenue.hpp"
#include "core/smip_analysis.hpp"
#include "core/traffic_metrics.hpp"
#include "core/vertical_analysis.hpp"
#include "devices/verticals.hpp"
#include "topology/path_model.hpp"
#include "tracegen/m2m_platform_scenario.hpp"
#include "tracegen/smip_scenario.hpp"
#include "util/crc32.hpp"

#ifndef WTR_TOOLCHAIN
#define WTR_TOOLCHAIN "unknown"
#endif

namespace wtr {
namespace {

using namespace tracegen::paper;

// --- the ledger ----------------------------------------------------------------

/// How a row is checked: one rule per kind, fixed before any row was run.
///   kShare  |measured - paper| <= 10 percentage points
///   kCount  |measured - paper| <= 50 % of paper
///   kRatio  paper / 2 <= measured <= 2 * paper
///   kHolds  the claim holds (paper = 1)
enum class Band { kShare, kCount, kRatio, kHolds };

struct Row {
  std::string_view metric;
  double paper;
  std::string_view section;  // of the paper
  Band band;
  /// A deviation documented in EXPERIMENTS.md: the row is printed and pinned
  /// by the figure's digest, but not band-checked.
  std::string_view deviation{};
  std::optional<double> measured{};
};

bool in_band(const Row& row) {
  const double m = *row.measured;
  const double p = row.paper;
  switch (row.band) {
    case Band::kShare: return std::abs(m - p) <= 0.10;
    case Band::kCount: return std::abs(m - p) <= 0.5 * p;
    case Band::kRatio: return m >= p / 2.0 && m <= 2.0 * p;
    case Band::kHolds: return m != 0.0;
  }
  return false;
}

std::string format_value(Band band, double value) {
  if (band == Band::kShare) return io::format_percent(value);
  if (band == Band::kHolds) return value != 0.0 ? "yes" : "NO";
  return io::format_fixed(value);
}

/// Indexed by Band.
constexpr std::array<std::string_view, 4> kBandNames{"±10 pp", "±50 %", "½×–2×", "holds"};

/// One figure's declared rows. Its render function fills in the measured
/// values while printing them the way the figure shows them.
class Ledger {
 public:
  struct Claim {
    std::string_view metric;
    bool holds;
    std::string detail;
  };

  explicit Ledger(std::vector<Row> rows) : rows_{std::move(rows)} {}

  void measure(std::string_view metric, double value) { row(metric).measured = value; }

  /// Measures each row; renders them as a (metric, paper, measured) table.
  std::string checks(std::initializer_list<std::pair<std::string_view, double>> values) {
    io::Table table{{"metric", "paper", "measured"}};
    for (const auto& [metric, value] : values) {
      auto& r = row(metric);
      r.measured = value;
      table.add_row({std::string(metric), format_value(r.band, r.paper),
                     format_value(r.band, value)});
    }
    return table.render();
  }

  /// Measures each claim; renders them as a (header, holds, measured) table.
  std::string claims(std::string header, std::initializer_list<Claim> rows) {
    io::Table table{{std::move(header), "holds", "measured"}};
    for (const auto& claim : rows) {
      table.add_row({std::string(claim.metric), holds(claim.metric, claim.holds), claim.detail});
    }
    return table.render();
  }

  /// Measures one claim; returns its "yes"/"NO" cell.
  std::string holds(std::string_view metric, bool value) {
    measure(metric, value ? 1.0 : 0.0);
    return value ? "yes" : "NO";
  }

  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

 private:
  Row& row(std::string_view metric) {
    for (auto& r : rows_) {
      if (r.metric == metric) return r;
    }
    throw std::logic_error("ledger row not declared: " + std::string(metric));
  }

  std::vector<Row> rows_;
};

// --- scenario runs ----------------------------------------------------------------

/// The run a figure needs: one of the two shared runs, or its own.
enum class Run { kMno, kPlatform, kOwn };

struct PlatformRun {
  std::unique_ptr<tracegen::M2MPlatformScenario> scenario;
  core::PlatformStats stats;
};

struct Runs {
  unsigned threads = 1;
  obs::RunObservation platform_observation;  // T1's manifest
  std::optional<bench::MnoRun> mno;
  std::optional<PlatformRun> platform;
};

PlatformRun run_platform(obs::RunObservation& observation, unsigned threads) {
  tracegen::M2MPlatformConfig config;
  config.seed = 2018;
  config.total_devices = bench::scale_override(10'000);
  config.threads = threads;
  config.obs = observation.view();
  auto scenario = std::make_unique<tracegen::M2MPlatformScenario>(config);
  std::cerr << "[bench] simulating M2M platform scenario: " << scenario->device_count()
            << " devices, " << config.days << " days...\n";
  core::PlatformTraceAccumulator accumulator{{scenario->hmno_plmns()}};
  scenario->run({&accumulator});
  obs::ScopedTimer finalize_timer{&observation.timers(), "analysis/platform"};
  auto stats = accumulator.finalize();
  return PlatformRun{std::move(scenario), std::move(stats)};
}

struct SmipRun {
  std::unique_ptr<tracegen::SmipScenario> scenario;
  std::vector<core::DeviceSummary> summaries;
  core::SmipAnalysis analysis;
};

SmipRun run_smip(std::size_t default_devices, unsigned threads) {
  tracegen::SmipScenarioConfig config;
  config.total_devices = bench::scale_override(default_devices);
  config.threads = threads;
  auto scenario = std::make_unique<tracegen::SmipScenario>(config);
  std::cerr << "[bench] simulating SMIP scenario: " << scenario->device_count()
            << " meters, " << config.days << " days...\n";
  core::CatalogAccumulator accumulator{{scenario->observer_plmn(), {scenario->observer_plmn()}}};
  scenario->run({&accumulator});
  auto summaries = core::summarize(accumulator.finalize());
  auto analysis = core::analyze_smip(summaries, scenario->native_meters(),
                                     scenario->roaming_meters(), config.days,
                                     scenario->tac_catalog());
  return SmipRun{std::move(scenario), std::move(summaries), std::move(analysis)};
}

// --- shared printing ------------------------------------------------------------

double median_of(const std::map<std::string, stats::Ecdf>& groups, const char* key) {
  const auto it = groups.find(key);
  return it == groups.end() || it->second.empty() ? 0.0 : it->second.median();
}

double ratio(double num, double den) { return den <= 0 ? 0.0 : num / den; }

void print_ecdf_series(std::ostream& out, const stats::Ecdf& ecdf, const std::string& title,
                       std::span<const double> points) {
  io::Table table{{"x", "F(x)"}};
  for (double p : points) {
    table.add_row({io::format_fixed(p, 0), io::format_percent(ecdf.fraction_at_most(p))});
  }
  out << '\n' << title << " (" << ecdf.describe() << ")\n" << table.render();
}

/// One ECDF summary row per group: n, the quantiles, then the mean.
void print_quantile_panel(std::ostream& out, const char* title, io::Table table,
                          const std::vector<std::pair<std::string, const stats::Ecdf*>>& groups,
                          std::initializer_list<double> quantiles, int decimals) {
  out << '\n' << title << '\n';
  for (const auto& [key, ecdf] : groups) {
    std::vector<std::string> cells{key, io::format_count(ecdf->size())};
    for (const double q : quantiles) {
      cells.push_back(io::format_fixed(ecdf->quantile(q), decimals));
    }
    cells.push_back(io::format_fixed(ecdf->mean(), decimals));
    table.add_row(std::move(cells));
  }
  out << table.render();
}

// --- §3: the M2M platform ---------------------------------------------------------

// Fig. 2 — devices per HMNO x visited country (minor countries grouped into
// "Other"), plus the per-HMNO headline shares and footprints of §3.2.
void render_fig02(Runs& runs, Ledger& ledger, std::ostream& out) {
  const auto& stats = runs.platform->stats;
  out << io::figure_banner("Fig. 2",
                           "M2M platform footprint: devices per HMNO x visited country");
  const auto share = [&](std::string_view iso) {
    for (const auto& hmno : stats.per_hmno) {
      if (hmno.home_iso == iso) return hmno.device_share(stats.total_devices);
    }
    return 0.0;
  };
  out << ledger.checks({{"ES device share", share("ES")},
                        {"MX device share", share("MX")},
                        {"AR device share", share("AR")},
                        {"DE device share", share("DE")}});

  io::Table breadth{{"HMNO", "devices", "visited countries (paper)", "visited VMNOs (paper)",
                     "home-only devices"}};
  for (const auto& hmno : stats.per_hmno) {
    std::string countries = std::to_string(hmno.visited_countries);
    std::string networks = std::to_string(hmno.visited_networks);
    const double home_only =
        hmno.devices == 0 ? 0.0 : 1.0 - ratio(hmno.roaming_devices, hmno.devices);
    if (hmno.home_iso == "ES") {
      countries += " (77)";
      networks += " (127)";
      ledger.measure("ES visited countries", hmno.visited_countries);
    } else if (hmno.home_iso == "MX") {
      countries += " (7)";
      networks += " (10)";
      ledger.measure("MX visited countries", hmno.visited_countries);
      ledger.measure("MX home-only devices", home_only);
    } else if (hmno.home_iso == "AR") {
      networks += " (6)";
    } else if (hmno.home_iso == "DE") {
      networks += " (18)";
    }
    ledger.measure(hmno.home_iso + " visited VMNOs", hmno.visited_networks);
    breadth.add_row({hmno.home_iso, io::format_count(hmno.devices), countries, networks,
                     io::format_percent(home_only)});
  }
  out << '\n' << breadth.render();

  const auto grouped = stats.footprint.with_minor_cols_grouped(0.001, "Other");
  const auto cols = grouped.cols_by_total();
  io::Table heatmap{{"visited \\ HMNO", "ES", "MX", "AR", "DE"}};
  for (std::size_t i = 0; i < cols.size() && i < 20; ++i) {  // the figure's top rows
    std::vector<std::string> cells{cols[i]};
    for (const auto* hmno : {"ES", "MX", "AR", "DE"}) {
      cells.push_back(io::format_percent(grouped.col_share(hmno, cols[i])));
    }
    heatmap.add_row(std::move(cells));
  }
  out << "\nDevice share of each visited country within an HMNO's fleet"
         " (top rows):\n"
      << heatmap.render();
}

// Fig. 3 — device-level dynamics: signaling records per device (left), VMNOs
// per roaming device (center), inter-VMNO switches of multi-VMNO devices
// (right).
void render_fig03(Runs& runs, Ledger& ledger, std::ostream& out) {
  const auto& stats = runs.platform->stats;
  out << io::figure_banner("Fig. 3", "Platform device-level dynamics");
  const std::array<double, 8> record_points{1, 10, 50, 200, 1000, 2000, 10'000, 100'000};
  print_ecdf_series(out, stats.records_all, "Signaling records per device — all devices",
                    record_points);
  print_ecdf_series(out, stats.records_4g_ok, "  devices with >=1 successful 4G procedure",
                    record_points);
  print_ecdf_series(out, stats.records_roaming, "  roaming devices", record_points);
  print_ecdf_series(out, stats.records_native, "  native devices", record_points);
  out << '\n'
      << ledger.checks(
             {{"mean records/device", stats.records_all.mean()},
              {"share of devices < 2000 records", stats.records_all.fraction_at_most(2'000.0)},
              {"max records/device", stats.records_all.max()},
              {"roaming/native median ratio",
               stats.records_native.empty()
                   ? 0.0
                   : ratio(stats.records_roaming.median(), stats.records_native.median())}});

  out << io::figure_banner("Fig. 3-center", "VMNOs used per roaming device");
  const auto& vmnos = stats.vmnos_per_roaming_device;
  out << ledger.checks(
      {{"exactly 1 VMNO", vmnos.fraction_at_most(1.0)},
       {"exactly 2 VMNOs", vmnos.fraction_at_most(2.0) - vmnos.fraction_at_most(1.0)},
       {">= 4 VMNOs", vmnos.fraction_above(3.0)},
       {"max VMNOs tried by failed-only device", stats.max_vmnos_failed_only}});

  out << io::figure_banner("Fig. 3-right", "Inter-VMNO switches (multi-VMNO devices)");
  const auto& switches = stats.switches_multi_vmno;
  out << ledger.checks(
      {{"devices with >= 2 VMNOs", stats.share_multi_vmno_devices},
       {"<= 2 switches over the window", switches.fraction_at_most(2.0)},
       {">= 1 switch/day (11+)", switches.fraction_above(10.9)},
       {"switch storms (100-3000)",
        switches.fraction_at_most(3'000.0) - switches.fraction_at_most(99.9)}});
  const std::array<double, 7> switch_points{0, 1, 2, 5, 11, 100, 1000};
  print_ecdf_series(out, switches, "Switch-count ECDF", switch_points);
}

// T1 (§3.2 in-text table) — platform-wide shares: ES signaling dominance,
// roaming vs native composition, the success/failure split and the ES
// heavy hitters. Also writes BENCH_t1.json.
void render_t1(Runs& runs, Ledger& ledger, std::ostream& out) {
  const auto& run = *runs.platform;
  const auto& stats = run.stats;
  out << io::figure_banner("T1", "M2M platform shares (§3.2–3.3)");
  out << ledger.checks(
      {{"ES share of all signaling", stats.es_signaling_share},
       {"ES signaling emitted while roaming", stats.es_roaming_signaling_share},
       {"ES devices never roaming", stats.es_nonroaming_device_share},
       {"ES devices with only failed 4G procedures", stats.es_fraction_failed_only},
       {"devices with >=1 success (platform-wide)", stats.fraction_any_success},
       {"ES device share emitting 75% of ES signaling",
        stats.es_device_share_for_75pct_signaling},
       {"countries covered by that heavy set", stats.es_heavy_countries},
       {"VMNOs covered by that heavy set", stats.es_heavy_vmnos}});

  io::Table scale{{"dataset property", "paper", "measured"}};
  scale.add_row({"days", std::to_string(kPlatformDays), "11"});
  scale.add_row({"devices", io::format_count(static_cast<std::uint64_t>(kPlatformDevices)),
                 io::format_count(stats.total_devices)});
  scale.add_row({"transactions",
                 io::format_count(static_cast<std::uint64_t>(kPlatformTransactions)),
                 io::format_count(stats.total_records)});
  scale.add_row({"records/device", io::format_fixed(kPlatformTransactions / kPlatformDevices),
                 io::format_fixed(stats.total_devices == 0
                                      ? 0.0
                                      : ratio(stats.total_records, stats.total_devices))});
  out << "\nScale (devices are intentionally scaled down; per-device"
         " intensities are the reproduction target):\n"
      << scale.render();

  auto manifest = bench::make_manifest("t1", run.scenario->config().seed,
                                       run.scenario->device_count(), runs.platform_observation);
  manifest.add_result("es_signaling_share", stats.es_signaling_share);
  manifest.add_result("es_roaming_signaling_share", stats.es_roaming_signaling_share);
  manifest.add_result("es_nonroaming_device_share", stats.es_nonroaming_device_share);
  manifest.add_result("es_fraction_failed_only", stats.es_fraction_failed_only);
  manifest.add_result("fraction_any_success", stats.fraction_any_success);
  manifest.add_result("total_records", stats.total_records);
  manifest.add_result("total_devices", stats.total_devices);
  bench::add_thread_metadata(manifest, run.scenario->engine(), runs.threads);
  bench::write_manifest(manifest);
}

// --- §4–5: the visited MNO population -----------------------------------------------

// Fig. 5 — home countries of inbound roaming devices: overall (top) and per
// device class, normalized per class (bottom).
void render_fig05(Runs& runs, Ledger& ledger, std::ostream& out) {
  const auto& population = runs.mno->population;
  out << io::figure_banner("Fig. 5-top", "Home country of inbound roaming devices");
  const auto overall = core::inbound_home_countries(population);
  io::Table top{{"rank", "home country", "devices", "share"}};
  int rank = 0;
  for (const auto& [iso, count] : overall.sorted()) {
    if (++rank > 20) break;
    top.add_row({std::to_string(rank), iso, io::format_count(count),
                 io::format_percent(overall.share(iso))});
  }
  out << top.render() << '\n'
      << ledger.checks(
             {{"top-20 home countries' share", overall.top_k_share(20)},
              {"NL+SE+ES share", overall.share("NL") + overall.share("SE") + overall.share("ES")}});

  out << io::figure_banner("Fig. 5-bottom", "Home country x device class");
  const auto by_class = core::inbound_home_country_by_class(population);
  io::Table rows{{"class", "NL", "SE", "ES", "DE", "FR", "IE", "US", "Other"}};
  for (const auto* class_name : {"m2m", "smart", "feat"}) {
    double listed = 0.0;
    std::vector<std::string> cells{class_name};
    for (const auto* iso : {"NL", "SE", "ES", "DE", "FR", "IE", "US"}) {
      const double share = by_class.row_share(class_name, iso);
      listed += share;
      cells.push_back(io::format_percent(share));
    }
    cells.push_back(io::format_percent(1.0 - listed));
    rows.add_row(std::move(cells));
  }
  const auto top3 = [&](const char* class_name) {
    return by_class.row_share(class_name, "NL") + by_class.row_share(class_name, "SE") +
           by_class.row_share(class_name, "ES");
  };
  out << rows.render() << '\n'
      << ledger.checks({{"m2m from NL/SE/ES", top3("m2m")},
                        {"smart from NL/SE/ES", top3("smart")},
                        {"feat from NL/SE/ES", top3("feat")}});
}

// Fig. 6 — device class vs roaming label, normalized per class (left) and
// per label (right).
void render_fig06(Runs& runs, Ledger& ledger, std::ostream& out) {
  const auto heatmap = core::class_vs_label(runs.mno->population);
  const std::array<const char*, 4> classes{"smart", "feat", "m2m", "m2m-maybe"};
  const std::array<const char*, 6> labels{"H:H", "V:H", "N:H", "I:H", "H:A", "V:A"};

  out << io::figure_banner("Fig. 6-left", "Device class -vs- roaming label"
                                          " (row-normalized per class)");
  io::Table left{{"class \\ label", "H:H", "V:H", "N:H", "I:H", "H:A", "V:A"}};
  for (const auto* device_class : classes) {
    std::vector<std::string> cells{device_class};
    for (const auto* label : labels) {
      cells.push_back(io::format_percent(heatmap.row_share(device_class, label)));
    }
    left.add_row(std::move(cells));
  }
  out << left.render();

  out << io::figure_banner("Fig. 6-right", "Roaming label -vs- device class"
                                           " (column-normalized per label)");
  io::Table right{{"label \\ class", "smart", "feat", "m2m", "m2m-maybe"}};
  for (const auto* label : labels) {
    std::vector<std::string> cells{label};
    for (const auto* device_class : classes) {
      cells.push_back(io::format_percent(heatmap.col_share(device_class, label)));
    }
    right.add_row(std::move(cells));
  }
  out << right.render() << '\n'
      << ledger.checks({{"I:H devices that are m2m", heatmap.col_share("m2m", "I:H")},
                        {"I:H devices that are smart", heatmap.col_share("smart", "I:H")},
                        {"m2m devices inbound roaming", heatmap.row_share("m2m", "I:H")},
                        {"smart devices inbound roaming", heatmap.row_share("smart", "I:H")},
                        {"feat devices inbound roaming", heatmap.row_share("feat", "I:H")}});
}

// Fig. 7 — ECDF of active days: inbound roamers vs native devices, m2m vs
// smartphones.
void render_fig07(Runs& runs, Ledger& ledger, std::ostream& out) {
  const auto figure = core::active_days_figure(runs.mno->population);
  const auto print_panel = [&](const char* title, const stats::Ecdf& m2m,
                               const stats::Ecdf& smart) {
    io::Table table{{"days <=", "m2m", "smart"}};
    for (double d : {1.0, 2.0, 5.0, 9.0, 14.0, 18.0, 22.0}) {
      table.add_row({io::format_fixed(d, 0), io::format_percent(m2m.fraction_at_most(d)),
                     io::format_percent(smart.fraction_at_most(d))});
    }
    out << '\n' << title << '\n' << table.render();
  };
  out << io::figure_banner("Fig. 7", "Number of days devices are active");
  print_panel("Inbound roaming devices:", figure.inbound_m2m, figure.inbound_smart);
  print_panel("Native devices:", figure.native_m2m, figure.native_smart);
  out << '\n'
      << ledger.checks(
             {{"inbound m2m median active days", figure.inbound_m2m.median()},
              {"inbound smart median active days", figure.inbound_smart.median()},
              {"inbound m2m/smart median ratio",
               ratio(figure.inbound_m2m.median(), figure.inbound_smart.median())},
              {"native m2m/smart median ratio",
               ratio(figure.native_m2m.median(), figure.native_smart.median())}});
}

// Fig. 8 — radius of gyration (time-weighted daily, averaged per device)
// across device classes and roaming status.
void render_fig08(Runs& runs, Ledger& ledger, std::ostream& out) {
  const auto& population = runs.mno->population;
  out << io::figure_banner("Fig. 8", "Radius of gyration comparison");
  io::Table table{{"group", "n", "p50 (m)", "p80 (m)", "p95 (m)", "> 1 km"}};
  for (const auto& [key, ecdf] : core::gyration_figure(population)) {
    if (ecdf.empty()) continue;
    table.add_row({key, io::format_count(ecdf.size()), io::format_fixed(ecdf.quantile(0.5), 0),
                   io::format_fixed(ecdf.quantile(0.8), 0),
                   io::format_fixed(ecdf.quantile(0.95), 0),
                   io::format_percent(ecdf.fraction_above(1'000.0))});
  }
  out << table.render() << '\n'
      << ledger.checks({{"inbound m2m devices with gyration > 1 km",
                         core::gyration_share_above(population, core::ClassLabel::kM2M,
                                                    /*inbound=*/true, 1'000.0)}})
      << "\n(The paper notes part of the sub-kilometer spread is cell"
         " reselection rather than movement; the simulator reproduces"
         " that through serving-sector jitter of fixed devices.)\n";
}

// --- §6: RAT usage and traffic ------------------------------------------------------

// Fig. 9 — device share per RAT combination for connectivity, data and
// voice.
void render_fig09(Runs& runs, Ledger& ledger, std::ostream& out) {
  const auto figure = core::rat_usage_figure(runs.mno->population);
  const auto print_panel = [&](const char* title, const stats::Heatmap& panel) {
    io::Table table{
        {"class", "none", "2G", "3G", "2G+3G", "4G", "2G+4G", "3G+4G", "2G+3G+4G"}};
    for (const auto* device_class : {"m2m", "smart", "feat"}) {
      std::vector<std::string> cells{device_class};
      for (const auto* mask :
           {"none", "2G", "3G", "2G+3G", "4G", "2G+4G", "3G+4G", "2G+3G+4G"}) {
        cells.push_back(io::format_percent(panel.row_share(device_class, mask)));
      }
      table.add_row(std::move(cells));
    }
    out << '\n' << title << '\n' << table.render();
  };
  out << io::figure_banner("Fig. 9", "Device share with respect to services/RAT");
  print_panel("Connectivity (any successful radio use):", figure.connectivity);
  print_panel("Data interfaces:", figure.data);
  print_panel("Voice interfaces:", figure.voice);

  constexpr auto kM2M = core::ClassLabel::kM2M;
  constexpr auto kFeat = core::ClassLabel::kFeat;
  using core::class_mask_share;
  out << '\n'
      << ledger.checks(
             {{"m2m active on 2G only (connectivity)",
               class_mask_share(figure.connectivity, kM2M, "2G")},
              {"feat on 2G only (connectivity)",
               class_mask_share(figure.connectivity, kFeat, "2G")},
              {"m2m with 2G-only data", class_mask_share(figure.data, kM2M, "2G")},
              {"m2m with no data activity", class_mask_share(figure.data, kM2M, "none")},
              {"m2m voice on 2G", class_mask_share(figure.voice, kM2M, "2G")},
              {"m2m with no voice activity", class_mask_share(figure.voice, kM2M, "none")},
              {"feat with no data activity", class_mask_share(figure.data, kFeat, "none")},
              {"feat with no voice activity", class_mask_share(figure.voice, kFeat, "none")}});
}

// Fig. 10 — signaling events, voice calls and data volume per active day,
// per device class and roaming status; the paper's claims as orderings.
void render_fig10(Runs& runs, Ledger& ledger, std::ostream& out) {
  const auto figure = core::traffic_figure(runs.mno->population);
  const auto panel = [&](const char* title, const std::map<std::string, stats::Ecdf>& groups,
                         int decimals) {
    std::vector<std::pair<std::string, const stats::Ecdf*>> rows;
    for (const auto& [key, ecdf] : groups) {
      if (!ecdf.empty()) rows.emplace_back(key, &ecdf);
    }
    print_quantile_panel(out, title, io::Table{{"group", "n", "p25", "p50", "p90", "mean"}},
                         rows, {0.25, 0.5, 0.9}, decimals);
  };
  out << io::figure_banner("Fig. 10", "Traffic for in-roaming and native devices");
  panel("Signaling events per active day:", figure.signaling_per_day, 1);
  panel("Voice calls per active day:", figure.calls_per_day, 2);
  panel("Data bytes per active day:", figure.bytes_per_day, 0);

  const auto sig = [&](const char* key) { return median_of(figure.signaling_per_day, key); };
  const auto calls = [&](const char* key) { return median_of(figure.calls_per_day, key); };
  const auto bytes = [&](const char* key) { return median_of(figure.bytes_per_day, key); };
  const auto fixed = [](double value, int decimals) { return io::format_fixed(value, decimals); };
  const double m2m_sig = sig("m2m/inbound");
  const double smart_calls = calls("smart/native");
  const double native_smart_bytes = bytes("smart/native");
  out << '\n'
      << ledger.claims(
             "claim (paper §6.2)",
             {{"m2m signals less than smartphones", m2m_sig < sig("smart/native"),
               fixed(m2m_sig, 1) + " vs " + fixed(sig("smart/native"), 1)},
              {"feature phones signal less than m2m", sig("feat/native") < m2m_sig + 3.0,
               fixed(sig("feat/native"), 1) + " vs " + fixed(m2m_sig, 1)},
              {"m2m voice is rare vs smartphones", calls("m2m/native") < 0.5 * smart_calls,
               fixed(calls("m2m/native"), 2) + " vs " + fixed(smart_calls, 2) +
                   " median calls/day"},
              {"smartphones do make calls", smart_calls > 1.0,
               fixed(smart_calls, 2) + " median calls/day"},
              {"inbound smartphones move less data (bill shock)",
               bytes("smart/inbound") < native_smart_bytes,
               fixed(bytes("smart/inbound"), 0) + " vs " + fixed(native_smart_bytes, 0)},
              {"inbound m2m data is tiny, like inbound feat",
               bytes("m2m/inbound") < native_smart_bytes / 100.0,
               fixed(bytes("m2m/inbound"), 0) + " vs feat " + fixed(bytes("feat/inbound"), 0)}});
}

// --- §7: smart meters and verticals -----------------------------------------------

// Fig. 11 — SMIP native vs roaming smart meters: active days (a) and
// signaling messages per device-day (b), plus §7.1's failure incidence and
// RAT usage.
void render_fig11(Runs& runs, Ledger& ledger, std::ostream& out) {
  const auto analysis = run_smip(12'000, runs.threads).analysis;
  const auto& native = analysis.native;
  const auto& roaming = analysis.roaming;

  out << io::figure_banner("Fig. 11-a", "SMIP device active days");
  io::Table activity{{"days <=", "native (all)", "native (day-0 cohort)", "roaming"}};
  for (double d : {1.0, 5.0, 10.0, 15.0, 20.0, 25.0, 26.0}) {
    activity.add_row({io::format_fixed(d, 0),
                      io::format_percent(native.active_days.fraction_at_most(d)),
                      io::format_percent(native.active_days_day0.fraction_at_most(d)),
                      io::format_percent(roaming.active_days.fraction_at_most(d))});
  }
  out << activity.render() << '\n'
      << ledger.checks(
             {{"native meters active whole period", native.fraction_full_period},
              {"roaming meters active <= 5 days", roaming.active_days.fraction_at_most(5.0)}});

  out << io::figure_banner("Fig. 11-b", "Signaling messages per SMIP device/day");
  io::Table signaling{{"group", "devices", "mean msgs/day", "p50", "p90"}};
  for (const auto& [name, group] :
       {std::pair{"SMIP native", &native}, std::pair{"SMIP roaming", &roaming}}) {
    signaling.add_row({name, io::format_count(group->devices),
                       io::format_fixed(group->mean_signaling_per_day, 1),
                       io::format_fixed(group->signaling_per_day.quantile(0.5), 1),
                       io::format_fixed(group->signaling_per_day.quantile(0.9), 1)});
  }
  const double all_failed =
      (native.fraction_with_failures * native.devices +
       roaming.fraction_with_failures * roaming.devices) /
      std::max<std::size_t>(1, native.devices + roaming.devices);
  out << signaling.render() << '\n'
      << ledger.checks(
             {{"roaming/native signaling ratio", analysis.signaling_ratio()},
              {"devices with >=1 failed event (all)", all_failed},
              {"devices with >=1 failed event (roaming)", roaming.fraction_with_failures}});

  out << "\nRAT usage (paper: roaming all 2G-only; native 2G+3G with 2/3"
         " only on 3G):\n";
  io::Table rats{{"group", "2G", "3G", "2G+3G", "none"}};
  for (const auto& [name, group] :
       {std::pair{"native", &native}, std::pair{"roaming", &roaming}}) {
    std::vector<std::string> cells{name};
    for (const auto* mask : {"2G", "3G", "2G+3G", "none"}) {
      cells.push_back(io::format_percent(group->rat_usage.share(mask)));
    }
    rats.add_row(std::move(cells));
  }
  ledger.measure("roaming meters on 2G only", roaming.rat_usage.share("2G"));
  ledger.measure("native meters on 3G only", native.rat_usage.share("3G"));
  out << rats.render();
}

// Fig. 12 — connected cars vs smart meters among inbound roamers: mobility,
// signaling and data, with inbound smartphones as the reference.
void render_fig12(Runs& runs, Ledger& ledger, std::ostream& out) {
  const auto figure = core::vertical_figure(runs.mno->population);
  const auto panel = [&](const char* title, const std::map<std::string, stats::Ecdf>& groups,
                         int decimals) {
    std::vector<std::pair<std::string, const stats::Ecdf*>> rows;
    for (const auto* key : {"connected-car", "smart-meter", "smartphone"}) {
      const auto it = groups.find(key);
      if (it != groups.end() && !it->second.empty()) rows.emplace_back(key, &it->second);
    }
    print_quantile_panel(out, title, io::Table{{"group", "n", "p50", "p90", "mean"}}, rows,
                         {0.5, 0.9}, decimals);
  };
  out << io::figure_banner("Fig. 12",
                           "Connected cars and smart meters traffic patterns (inbound)");
  panel("Mobility — radius of gyration (m):", figure.gyration_m, 0);
  panel("Signaling events per active day:", figure.signaling_per_day, 1);
  panel("Data bytes per active day:", figure.bytes_per_day, 0);

  const auto gyr = [&](const char* key) { return median_of(figure.gyration_m, key); };
  const auto sig = [&](const char* key) { return median_of(figure.signaling_per_day, key); };
  const auto bytes = [&](const char* key) { return median_of(figure.bytes_per_day, key); };
  const auto fixed = [](double value, int decimals) { return io::format_fixed(value, decimals); };
  const double car_sig = sig("connected-car");
  const double phone_sig = sig("smartphone");
  out << '\n'
      << ledger.claims(
             "claim (paper §7.2)",
             {{"cars are mobile, meters stationary",
               gyr("connected-car") > 10.0 * std::max(1.0, gyr("smart-meter")),
               fixed(gyr("connected-car"), 0) + "m vs " + fixed(gyr("smart-meter"), 0) +
                   "m median gyration"},
              {"cars generate much more signaling", car_sig > 3.0 * sig("smart-meter"),
               fixed(car_sig, 1) + " vs " + fixed(sig("smart-meter"), 1)},
              {"cars move much more data", bytes("connected-car") > 10.0 * bytes("smart-meter"),
               fixed(bytes("connected-car"), 0) + " vs " + fixed(bytes("smart-meter"), 0)},
              {"cars resemble inbound smartphones", phone_sig > 0 && car_sig > 0.3 * phone_sig,
               fixed(car_sig, 1) + " vs smartphone " + fixed(phone_sig, 1)}});
}

// T3 (§4.4 in-text findings) — provenance of the SMIP-roaming fleet: one
// Dutch home operator, modules from exactly two vendors (Gemalto, Telit),
// energy-company patterns in the APNs.
void render_t3(Runs& runs, Ledger& ledger, std::ostream& out) {
  const auto run = run_smip(8'000, runs.threads);
  const auto& analysis = run.analysis;
  out << io::figure_banner("T3", "SMIP roaming provenance (§4.4)");

  io::Table homes{{"home operator of roaming meter SIMs", "devices"}};
  for (const auto& [plmn, count] : analysis.roaming_home_operators.sorted()) {
    homes.add_row({plmn, io::format_count(count)});
  }
  out << homes.render() << "(paper: a single operator in the Netherlands — mnc004.mcc204)\n";

  io::Table vendors{{"module vendor", "devices", "share"}};
  for (const auto& [vendor, count] : analysis.roaming_vendors.sorted()) {
    vendors.add_row({vendor, io::format_count(count),
                     io::format_percent(analysis.roaming_vendors.share(vendor))});
  }
  out << '\n' << vendors.render() << "(paper: exactly two manufacturers, Gemalto and Telit)\n";

  stats::CategoryCounter companies;
  std::size_t native_seen = 0;
  for (const auto& summary : run.summaries) {
    if (run.scenario->native_meters().contains(summary.device)) ++native_seen;
    if (!run.scenario->roaming_meters().contains(summary.device)) continue;
    for (const auto& apn_string : summary.apns) {
      const auto apn = cellnet::Apn::parse(apn_string);
      for (const auto& company : devices::smip_energy_companies()) {
        if (!company.keyword.empty() && apn.contains_keyword(company.keyword)) {
          companies.add(std::string(company.keyword));
        }
      }
    }
  }
  io::Table apns{{"energy company keyword in APN", "APN sightings"}};
  for (const auto& [keyword, count] : companies.sorted()) {
    apns.add_row({keyword, io::format_count(count)});
  }
  out << '\n' << apns.render() << "(paper: Elster, RWE, Centrica, General Electric, BGLOBAL)\n";
  ledger.measure("home operators of roaming meter SIMs",
                 analysis.roaming_home_operators.distinct());
  ledger.measure("module vendors of roaming meters", analysis.roaming_vendors.distinct());
  ledger.measure("energy-company keywords in roaming APNs", companies.distinct());

  // Every native meter SIM falls in the dedicated (GSMA IR.88-style) range.
  io::Table native{{"native-fleet property", "value"}};
  native.add_row({"meters observed", io::format_count(native_seen)});
  native.add_row({"provisioning", "dedicated IMSI range 500,000,000+ (modeled)"});
  out << '\n' << native.render();
}

// --- reproduction-only experiments and extensions -----------------------------------

// V1 — classifier validation against the simulator's ground truth, with the
// A1 ablation (APN keywords alone, no device-property propagation; §4.3
// argues for propagation because ~21% of devices expose no APN) and §4.3's
// "naive" Shafiq-style vendor-list baseline.
void render_v1(Runs& runs, Ledger&, std::ostream& out) {
  const auto& run = *runs.mno;
  const auto truth = tracegen::class_truth(run.scenario->ground_truth());
  const auto print_report = [&](const char* title, const core::ValidationReport& report) {
    io::Table table{{"metric", "value"}};
    table.add_row({"devices matched", io::format_count(report.matched)});
    for (const auto& [metric, value] :
         {std::pair{"lenient accuracy (maybe==m2m)", report.lenient_accuracy},
          {"strict accuracy", report.strict_accuracy}, {"m2m precision", report.m2m_precision},
          {"m2m recall", report.m2m_recall}, {"smart precision", report.smart_precision},
          {"smart recall", report.smart_recall}, {"feat precision", report.feat_precision},
          {"feat recall", report.feat_recall}}) {
      table.add_row({metric, io::format_percent(value)});
    }
    io::Table confusion{{"true \\ predicted", "smart", "feat", "m2m", "m2m-maybe"}};
    for (std::size_t t = 0; t < 3; ++t) {
      std::vector<std::string> cells{std::array{"smart", "feat", "m2m"}[t]};
      for (std::size_t p = 0; p < 4; ++p) {
        cells.push_back(io::format_count(report.confusion[t][p]));
      }
      confusion.add_row(std::move(cells));
    }
    out << '\n' << title << '\n' << table.render() << confusion.render();
  };
  const auto reclassify = [&](const auto& classifier) {
    auto population = run.population;
    population.classification = classifier.classify(population.summaries);
    population.classes = population.classification.labels;
    return population;
  };

  out << io::figure_banner("V1", "Classifier validation vs simulator ground truth");
  const auto full = core::validate_classification(run.population, truth);
  print_report("Full pipeline (keywords -> APNs -> device-property propagation):", full);

  core::ClassifierConfig ablated_config;
  ablated_config.propagate_device_properties = false;
  const auto ablated =
      reclassify(core::DeviceClassifier{run.scenario->tac_catalog(), ablated_config});
  const auto no_prop = core::validate_classification(ablated, truth);
  print_report("A1 ablation — APN keywords only (no propagation):", no_prop);

  const auto baseline = reclassify(core::BaselineVendorClassifier{run.scenario->tac_catalog()});
  const auto baseline_report = core::validate_classification(baseline, truth);
  print_report("Baseline — device properties only (Shafiq-style, §4.3's naive approach):",
               baseline_report);

  io::Table delta{{"metric", "full pipeline", "keywords only", "vendor baseline"}};
  const auto pct_row = [&](const char* metric, double core::ValidationReport::*field) {
    delta.add_row({metric, io::format_percent(full.*field), io::format_percent(no_prop.*field),
                   io::format_percent(baseline_report.*field)});
  };
  pct_row("m2m recall", &core::ValidationReport::m2m_recall);
  pct_row("m2m precision", &core::ValidationReport::m2m_precision);
  pct_row("strict accuracy", &core::ValidationReport::strict_accuracy);
  const auto m2m_found = [](const core::ClassifiedPopulation& population) {
    return io::format_count(population.classification.count_of(core::ClassLabel::kM2M));
  };
  delta.add_row({"m2m devices found", m2m_found(run.population), m2m_found(ablated),
                 m2m_found(baseline)});
  out << "\nSummary — pipeline vs its ablation vs the baseline:\n" << delta.render();
}

// X1 — §6's economic argument quantified: revenue vs signaling load per
// device class and roaming status.
void render_x1(Runs& runs, Ledger& ledger, std::ostream& out) {
  const auto groups = core::revenue_by_group(runs.mno->population);
  out << io::figure_banner("X1", "Revenue vs signaling load per class x roaming status");
  io::Table table{{"group", "devices", "device-days", "revenue/device-day",
                   "signaling cost/device-day", "revenue / load"}};
  for (const auto& [key, breakdown] : groups) {
    table.add_row({key, io::format_count(breakdown.devices),
                   io::format_count(breakdown.device_days),
                   io::format_fixed(breakdown.revenue_per_device_day(), 3),
                   io::format_fixed(breakdown.cost_per_device_day(), 3),
                   io::format_fixed(breakdown.revenue_to_load(), 2)});
  }
  out << table.render();

  const auto& m2m_in = groups.at("m2m/inbound");
  const auto& smart_in = groups.at("smart/inbound");
  const auto& smart_nat = groups.at("smart/native");
  bool m2m_below_phones = true;
  for (const auto& [key, b] : groups) {
    if (!key.starts_with("m2m") && b.revenue_to_load() < 5.0 * m2m_in.revenue_to_load()) {
      m2m_below_phones = false;
    }
  }
  out << '\n'
      << ledger.claims(
             "claim (paper §6.2 / §9)",
             {{"inbound m2m yields far less revenue/day than inbound smart",
               m2m_in.revenue_per_device_day() < 0.2 * smart_in.revenue_per_device_day(),
               io::format_fixed(m2m_in.revenue_per_device_day(), 3) + " vs " +
                   io::format_fixed(smart_in.revenue_per_device_day(), 3)},
              {"m2m revenue/load is far below every phone group", m2m_below_phones,
               io::format_fixed(m2m_in.revenue_to_load(), 2)},
              {"native smartphones fund the network",
               smart_nat.revenue_to_load() > 10.0 * m2m_in.revenue_to_load(),
               io::format_fixed(smart_nat.revenue_to_load(), 2) + " vs " +
                   io::format_fixed(m2m_in.revenue_to_load(), 2)}})
      << "\n(Tariffs are configurable in core::TariffSchedule; only"
         " ratios between groups are meaningful.)\n";
}

// X2 — the 2G-sunset what-if of §6.1/§8: the same population simulated
// against today's network and against a 3G/4G-only UK; devices stranded per
// ground-truth class.
void render_x2(Runs& runs, Ledger&, std::ostream& out) {
  /// Devices with any catalog record, in all and per ground-truth class.
  const auto observed = [&](bool sunset) {
    auto config = bench::mno_config(10'000, 2030, runs.threads);
    config.sunset_2g_in_uk = sunset;
    const auto run = bench::run_mno_scenario(config);
    std::map<std::string, std::size_t> by_class{{"all", run.population.size()}};
    const auto& truth = run.scenario->ground_truth();
    for (const auto& summary : run.population.summaries) {
      const auto it = truth.find(summary.device);
      if (it != truth.end()) {
        ++by_class[std::string(devices::device_class_name(it->second.device_class))];
      }
    }
    return by_class;
  };
  auto baseline = observed(false);
  auto sunset = observed(true);

  out << io::figure_banner("X2", "What-if: the UK retires 2G");
  io::Table table{{"population", "2G on", "2G off", "stranded"}};
  for (const std::string group : {"all", "smart", "feat", "m2m"}) {
    const auto before = baseline[group];
    const auto after = sunset[group];
    table.add_row({group == "all" ? "all observed devices" : "true-" + group,
                   io::format_count(before), io::format_count(after),
                   io::format_percent(before == 0 ? 0.0 : 1.0 - ratio(after, before))});
  }
  out << table.render()
      << "\nA device is 'stranded' when it no longer produces a single"
         " observable record: 2G-only hardware cannot attach anywhere"
         " in a 3G/4G-only country. The paper (§6.1): \"IoT devices"
         " such as smart meters are currently active mostly in 2G or"
         " 3G networks\" — this is the population a sunset strands.\n";
}

// X3 — the §8 NB-IoT future: today's world (0% NB-IoT) against a trial
// world (60% of roaming meters on NB-IoT); the share of the M2M population
// identifiable by RAT alone.
void render_x3(Runs& runs, Ledger&, std::ostream& out) {
  struct Outcome {
    core::ClassificationResult classification;
    core::ValidationReport report;
    std::size_t population = 0;
  };
  const auto simulate = [&](double nb_share) {
    auto config = bench::mno_config(10'000, 2040, runs.threads);
    config.nbiot_meter_share = nb_share;
    const auto run = bench::run_mno_scenario(config);
    return Outcome{run.population.classification,
                   core::validate_classification(
                       run.population, tracegen::class_truth(run.scenario->ground_truth())),
                   run.population.size()};
  };
  const auto today = simulate(0.0);
  const auto trial = simulate(0.6);

  out << io::figure_banner("X3", "NB-IoT roaming trial: detection by RAT alone");
  io::Table table{{"metric", "today (no NB-IoT)", "trial (60% of NL meters)"}};
  const auto share_row = [&](const char* metric, std::size_t core::ClassificationResult::*field) {
    table.add_row({metric, io::format_percent(ratio(today.classification.*field, today.population)),
                   io::format_percent(ratio(trial.classification.*field, trial.population))});
  };
  share_row("m2m identified by NB-IoT RAT rule (stage 0)",
            &core::ClassificationResult::m2m_by_nbiot_rat);
  share_row("m2m needing APN keyword match (stage 2)", &core::ClassificationResult::m2m_by_apn);
  share_row("m2m needing property propagation (stage 3)",
            &core::ClassificationResult::m2m_by_propagation);
  table.add_row({"classifier lenient accuracy", io::format_percent(today.report.lenient_accuracy),
                 io::format_percent(trial.report.lenient_accuracy)});
  table.add_row({"m2m recall", io::format_percent(today.report.m2m_recall),
                 io::format_percent(trial.report.m2m_recall)});
  out << table.render()
      << "\nStage 0 needs no APN transparency, no IMSI-range disclosure"
         " and no GSMA database — exactly the paper's point about why"
         " operators await NB-IoT (§8).\n";
}

// X4 — "silent roamers" (§8's regulatory footnote): inbound devices that
// signal without ever generating chargeable usage.
void render_x4(Runs& runs, Ledger&, std::ostream& out) {
  const auto stats = core::silent_roamers(runs.mno->population);
  out << io::figure_banner("X4", "Silent roamers among inbound devices");
  io::Table table{{"metric", "value"}};
  table.add_row({"inbound devices", io::format_count(stats.inbound_devices)});
  table.add_row({"silent (signaling, no data, no calls)", io::format_count(stats.silent)});
  table.add_row({"silent share", io::format_percent(stats.share())});
  io::Table by_class{{"class", "silent devices", "share of silent"}};
  for (const auto& [device_class, count] : stats.silent_by_class) {
    by_class.add_row({device_class, io::format_count(count),
                      io::format_percent(ratio(count, stats.silent))});
  }
  out << table.render() << '\n'
      << by_class.render()
      << "\nSilent roamers are dominated by M2M boxes (voice-less"
         " alarms, meters between reporting windows) — the population"
         " the paper says VMNOs cannot even bill for.\n";
}

// X5 — Fig. 1's breakout configurations quantified: user-plane RTT of a
// Spanish global IoT SIM under home-routed, local and IPX-hub breakout.
void render_x5(Runs&, Ledger& ledger, std::ostream& out) {
  topology::WorldConfig config;
  config.build_coverage = false;
  const auto world = topology::World::build(config);
  const topology::PathModel model{world};
  const auto es = world.well_known().es_hmno;
  const auto paths = [&](const char* iso) {  // HR, LBO, IHBO
    const auto visited = world.operators().mnos_in_country(iso).front();
    return std::array{model.data_path(es, visited, topology::BreakoutType::kHomeRouted),
                      model.data_path(es, visited, topology::BreakoutType::kLocalBreakout),
                      model.data_path(es, visited, topology::BreakoutType::kIpxHubBreakout)};
  };

  out << io::figure_banner(
      "X5", "Data-path RTT per roaming breakout configuration (ES global IoT SIM)");
  io::Table table{{"visited", "distance (km)", "HR RTT (ms)", "LBO RTT (ms)", "IHBO RTT (ms)",
                   "IHBO egress"}};
  for (const auto* iso : {"PT", "GB", "DE", "TR", "US", "BR", "IN", "JP", "AU"}) {
    const auto visited = world.operators().mnos_in_country(iso).front();
    const auto [hr, lbo, ihbo] = paths(iso);
    table.add_row({iso, io::format_fixed(model.operator_distance_km(es, visited), 0),
                   io::format_fixed(hr.rtt_ms, 1), io::format_fixed(lbo.rtt_ms, 1),
                   io::format_fixed(ihbo.rtt_ms, 1), ihbo.egress_iso});
  }
  out << table.render();

  bool ordered = true;
  for (const auto* iso : {"GB", "US", "AU", "JP"}) {
    const auto [hr, lbo, ihbo] = paths(iso);
    ordered = ordered && lbo.rtt_ms <= ihbo.rtt_ms + 1e-9 && ihbo.rtt_ms <= hr.rtt_ms + 1e-9;
  }
  const auto [hr_au, lbo_au, ihbo_au] = paths("AU");
  // The effective path of the default (EU) configuration is HR, §2.1.
  const auto effective =
      model.effective_data_path(es, world.operators().mnos_in_country("GB").front());
  out << '\n'
      << ledger.claims(
             "claim",
             {{"HR Spain->Australia pays a heavy penalty vs LBO",
               hr_au.rtt_ms > 5.0 * lbo_au.rtt_ms,
               io::format_fixed(hr_au.rtt_ms, 0) + "ms vs " + io::format_fixed(lbo_au.rtt_ms, 0) +
                   "ms"},
              {"LBO <= IHBO <= HR everywhere sampled", ordered, "-"},
              {"intra-EU default is home-routed",
               effective && effective->breakout == topology::BreakoutType::kHomeRouted,
               effective ? std::string(topology::breakout_name(effective->breakout)) : "none"}});
}

// X6 — wholesale clearing (§2.1/§9): the UK MNO's settlement statements to
// its inbound roamers' home operators, the Dutch IoT provisioner's mirror
// accruals, and the §2.1 reconciliation of the two.
void render_x6(Runs& runs, Ledger& ledger, std::ostream& out) {
  const auto config = bench::mno_config(10'000, 2019, runs.threads);
  tracegen::MnoScenario scenario{config};
  std::cerr << "[bench] simulating " << scenario.device_count() << " devices...\n";
  const auto nl_plmn = cellnet::Plmn{204, 4, 2};
  core::ClearingHouse uk_books{{.self = scenario.observer_plmn(),
                                .family = scenario.family_plmns(),
                                .side = core::ClearingHouse::Side::kVisited}};
  core::ClearingHouse nl_books{
      {.self = nl_plmn, .family = {nl_plmn}, .side = core::ClearingHouse::Side::kHome}};
  scenario.run({&uk_books, &nl_books});

  out << io::figure_banner("X6", "Wholesale clearing: the UK MNO bills its roaming partners");
  io::Table table{{"rank", "partner (home op)", "devices", "data (MB)", "voice (min)", "amount"}};
  const auto statements = uk_books.statements();
  for (std::size_t i = 0; i < statements.size() && i < 12; ++i) {
    const auto& statement = statements[i];
    table.add_row({std::to_string(i + 1), statement.partner.to_string(),
                   io::format_count(statement.devices), io::format_fixed(statement.data_mb, 1),
                   io::format_fixed(statement.voice_minutes, 1),
                   io::format_fixed(statement.amount, 1)});
  }
  out << table.render() << "\nTotal inbound-roaming receivables: "
      << io::format_fixed(uk_books.total_billed(), 1)
      << " (currency units; Dutch IoT SIMs dominate the device count,"
         " smartphones the amount)\n";

  const auto report = core::reconcile_pair(statements, nl_plmn, nl_books.statements(),
                                           scenario.observer_plmn());
  io::Table recon{{"reconciliation (UK claims vs NL accruals)", "value"}};
  recon.add_row(
      {"both sides present", ledger.holds("both sides present", report.both_sides_present)});
  recon.add_row({"UK claim", io::format_fixed(report.claim_amount, 2)});
  recon.add_row({"NL accrual", io::format_fixed(report.accrual_amount, 2)});
  recon.add_row({"gap", io::format_fixed(report.amount_gap, 6)});
  recon.add_row({"clean", ledger.holds("clean", report.clean())});
  out << '\n' << recon.render()
      << "(A lossless record exchange reconciles exactly; in the real"
         " ecosystem TAP disputes arise from dropped/duplicated records"
         " — inject them by filtering one sink's stream.)\n";
}

// --- the table ----------------------------------------------------------------------

struct Figure {
  std::string_view id;
  Run run;
  void (*render)(Runs&, Ledger&, std::ostream&);
  std::vector<Row> rows;
};

using enum Band;

const std::vector<Figure> kFigures = {
    {"fig02", Run::kPlatform, render_fig02,
     {{"ES device share", kEsDeviceShare, "§3.2", kShare},
      {"MX device share", kMxDeviceShare, "§3.2", kShare},
      {"AR device share", kArDeviceShare, "§3.2", kShare},
      {"DE device share", kDeDeviceShare, "§3.2", kShare},
      {"ES visited countries", kEsVisitedCountries, "§3.2", kCount},
      {"ES visited VMNOs", kEsVisitedNetworks, "§3.2", kCount},
      {"MX visited countries", kMxVisitedCountries, "§3.2", kCount},
      {"MX visited VMNOs", kMxVisitedNetworks, "§3.2", kCount, "D10"},
      {"MX home-only devices", kMxHomeDeviceShare, "§3.2", kShare},
      {"AR visited VMNOs", kArVisitedNetworks, "§3.2", kCount, "D10"},
      {"DE visited VMNOs", kDeVisitedNetworks, "§3.2", kCount}}},
    {"fig03", Run::kPlatform, render_fig03,
     {{"mean records/device", kMeanRecordsPerDevice, "§3.3", kCount, "D2"},
      {"share of devices < 2000 records", kShareDevicesBelow2000Records, "§3.3", kShare},
      {"max records/device", kMaxRecordsPerDevice, "§3.3", kCount, "D2"},
      {"roaming/native median ratio", kRoamingToNativeMedianRecordsRatio, "§3.3", kRatio},
      {"exactly 1 VMNO", kSingleVmnoRoamerShare, "§3.3", kShare},
      {"exactly 2 VMNOs", kTwoVmnoRoamerShare, "§3.3", kShare, "D3"},
      {">= 4 VMNOs", kThreePlusVmnoRoamerShare, "§3.3", kShare},
      {"max VMNOs tried by failed-only device", kMaxVmnosFailedDevice, "§3.3", kCount, "D3"},
      {"devices with >= 2 VMNOs", kMultiVmnoDeviceShare, "§3.3", kShare, "D3"},
      {"<= 2 switches over the window", kMultiVmnoAtMostTwoSwitchesShare, "§3.3", kShare},
      {">= 1 switch/day (11+)", kMultiVmnoDailySwitchShare, "§3.3", kShare},
      {"switch storms (100-3000)", kMultiVmnoStormShare, "§3.3", kShare, "D3"}}},
    {"t1", Run::kPlatform, render_t1,
     {{"ES share of all signaling", kEsSignalingShare, "§3.2", kShare, "D7"},
      {"ES signaling emitted while roaming", kEsRoamingSignalingShare, "§3.2", kShare},
      {"ES devices never roaming", kEsNonRoamingDeviceShare, "§3.2", kShare},
      {"ES devices with only failed 4G procedures", kFailedOnlyDeviceShare, "§3.3", kShare},
      {"devices with >=1 success (platform-wide)", kAnySuccessDeviceShare, "§3.3", kShare, "D9"},
      {"ES device share emitting 75% of ES signaling", kEsHeavyDeviceShare, "§3.2", kShare,
       "D8"},
      {"countries covered by that heavy set", kEsHeavyCountries, "§3.2", kCount, "D8"},
      {"VMNOs covered by that heavy set", kEsHeavyVmnos, "§3.2", kCount, "D8"}}},
    {"fig05", Run::kMno, render_fig05,
     {{"top-20 home countries' share", kTop20HomeCountryShare, "§5.2", kShare},
      {"NL+SE+ES share", kTop3HomeCountryShare, "§5.2", kShare},
      {"m2m from NL/SE/ES", kM2MTop3HomeShare, "§5.2", kShare},
      {"smart from NL/SE/ES", kSmartTop3HomeShare, "§5.2", kShare},
      {"feat from NL/SE/ES", kFeatTop3HomeShare, "§5.2", kShare}}},
    {"fig06", Run::kMno, render_fig06,
     {{"I:H devices that are m2m", kInboundM2MShare, "§5.1", kShare},
      {"I:H devices that are smart", kInboundSmartShare, "§5.1", kShare},
      {"m2m devices inbound roaming", kM2MInboundShare, "§5.1", kShare},
      {"smart devices inbound roaming", kSmartInboundShare, "§5.1", kShare},
      {"feat devices inbound roaming", kFeatInboundShare, "§5.1", kShare}}},
    {"fig07", Run::kMno, render_fig07,
     {{"inbound m2m median active days", kInboundM2MMedianActiveDays, "§5.3", kCount},
      {"inbound smart median active days", kInboundSmartMedianActiveDays, "§5.3", kCount},
      {"inbound m2m/smart median ratio", 4.5, "§5.3", kRatio},
      {"native m2m/smart median ratio", 1.0, "§5.3", kRatio}}},
    {"fig08", Run::kMno, render_fig08,
     {{"inbound m2m devices with gyration > 1 km", kM2MGyrationAbove1kmShare, "§5.3", kShare}}},
    {"fig09", Run::kMno, render_fig09,
     {{"m2m active on 2G only (connectivity)", kM2M2gOnlyConnectivityShare, "§6.1", kShare},
      {"feat on 2G only (connectivity)", kFeat2gOnlyConnectivityShare, "§6.1", kShare, "D4"},
      {"m2m with 2G-only data", kM2M2gOnlyDataShare, "§6.1", kShare},
      {"m2m with no data activity", kM2MNoDataShare, "§6.1", kShare},
      {"m2m voice on 2G", kM2M2gVoiceShare, "§6.1", kShare, "D11"},
      {"m2m with no voice activity", kM2MNoVoiceShare, "§6.1", kShare, "D11"},
      {"feat with no data activity", kFeatNoDataShare, "§6.1", kShare},
      {"feat with no voice activity", kFeatNoVoiceShare, "§6.1", kShare}}},
    {"fig10", Run::kMno, render_fig10,
     {{"m2m signals less than smartphones", 1, "§6.2", kHolds},
      {"feature phones signal less than m2m", 1, "§6.2", kHolds},
      {"m2m voice is rare vs smartphones", 1, "§6.2", kHolds},
      {"smartphones do make calls", 1, "§6.2", kHolds},
      {"inbound smartphones move less data (bill shock)", 1, "§6.2", kHolds},
      {"inbound m2m data is tiny, like inbound feat", 1, "§6.2", kHolds}}},
    {"fig11", Run::kOwn, render_fig11,
     {{"native meters active whole period", kSmipNativeFullPeriodShare, "§7.1", kShare},
      {"roaming meters active <= 5 days", kSmipRoamingAtMost5DaysShare, "§7.1", kShare},
      {"roaming/native signaling ratio", kSmipRoamingToNativeSignalingRatio, "§7.1", kRatio},
      {"devices with >=1 failed event (all)", kSmipFailedDeviceShareAll, "§7.1", kShare},
      {"devices with >=1 failed event (roaming)", kSmipFailedDeviceShareRoaming, "§7.1", kShare},
      {"roaming meters on 2G only", 1.0, "§7.1", kShare},
      {"native meters on 3G only", kSmipNative3gOnlyShare, "§7.1", kShare, "D12"}}},
    {"fig12", Run::kMno, render_fig12,
     {{"cars are mobile, meters stationary", 1, "§7.2", kHolds},
      {"cars generate much more signaling", 1, "§7.2", kHolds},
      {"cars move much more data", 1, "§7.2", kHolds},
      {"cars resemble inbound smartphones", 1, "§7.2", kHolds}}},
    {"t3", Run::kOwn, render_t3,
     {{"home operators of roaming meter SIMs", 1, "§4.4", kCount},
      {"module vendors of roaming meters", 2, "§4.4", kCount},
      {"energy-company keywords in roaming APNs", 5, "§4.4", kCount}}},
    {"v1", Run::kMno, render_v1, {}},
    {"x1", Run::kMno, render_x1,
     {{"inbound m2m yields far less revenue/day than inbound smart", 1, "§6.2", kHolds},
      {"m2m revenue/load is far below every phone group", 1, "§6.2", kHolds},
      {"native smartphones fund the network", 1, "§9", kHolds}}},
    {"x2", Run::kOwn, render_x2, {}},
    {"x3", Run::kOwn, render_x3, {}},
    {"x4", Run::kMno, render_x4, {}},
    {"x5", Run::kOwn, render_x5,
     {{"HR Spain->Australia pays a heavy penalty vs LBO", 1, "§3.2", kHolds},
      {"LBO <= IHBO <= HR everywhere sampled", 1, "§2.1", kHolds},
      {"intra-EU default is home-routed", 1, "§2.1", kHolds}}},
    {"x6", Run::kOwn, render_x6,
     {{"both sides present", 1, "§2.1", kHolds}, {"clean", 1, "§2.1", kHolds}}},
};

/// CRC-32 of each figure's stdout at the default scales, per toolchain (the
/// key tests/test_golden_digests.cpp uses). GCC 12.2 on x86-64 prints the
/// same bytes at -O2 and -O3. A changed digest must be explained in
/// CHANGES.md.
const std::map<std::string_view, std::uint32_t> kGcc12X86 = {
    {"fig02", 0x79e17a35}, {"fig03", 0xf3d6db57}, {"t1", 0x1d734fdd}, {"fig05", 0xc749c2c4},
    {"fig06", 0x8955ea6d}, {"fig07", 0xdb262d32}, {"fig08", 0x2017eca7}, {"fig09", 0x29a1a705},
    {"fig10", 0xebd0bebb}, {"fig11", 0x2ad818fa}, {"fig12", 0xecdedf15}, {"t3", 0x94032746},
    {"v1", 0x232d980e},    {"x1", 0x6fbcc219},    {"x2", 0x0030b883},    {"x3", 0xac362695},
    {"x4", 0xfc841329},    {"x5", 0xd564fbdb},    {"x6", 0xa463bf25},
};

const std::map<std::string_view, std::map<std::string_view, std::uint32_t>> kDigests = {
    {"GNU-12.2.0-x86_64-Release", kGcc12X86},
    {"GNU-12.2.0-x86_64-RelWithDebInfo", kGcc12X86},
};

std::string hex32(std::uint32_t value) {
  char buf[11];
  std::snprintf(buf, sizeof buf, "0x%08" PRIx32, value);
  return buf;
}

}  // namespace
}  // namespace wtr

int main(int argc, char** argv) {
  using namespace wtr;
  Runs runs;
  runs.threads = bench::threads_from_args(argc, argv);

  std::vector<const Figure*> selected;
  for (int i = 1; i < argc; ++i) {
    const auto it = std::find_if(kFigures.begin(), kFigures.end(),
                                 [&](const Figure& f) { return f.id == argv[i]; });
    if (it == kFigures.end()) {
      std::cerr << "usage: wtr_figures [--threads=N] [id ...]\nids:";
      for (const auto& f : kFigures) std::cerr << ' ' << f.id;
      std::cerr << '\n';
      return 2;
    }
    selected.push_back(&*it);
  }
  if (selected.empty()) {
    for (const auto& f : kFigures) selected.push_back(&f);
  }

  // The digests pin the default scales, which WTR_BENCH_SCALE overrides.
  const bool scaled = bench::scale_override(0) != 0;
  const auto digests = kDigests.find(WTR_TOOLCHAIN);
  if (!scaled && digests == kDigests.end()) {
    std::cerr << "[figures] no checked-in digests for " << WTR_TOOLCHAIN << "\n";
  }

  std::vector<std::string> failures;
  std::vector<std::pair<std::string_view, Row>> ledger_rows;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const Figure& figure = *selected[i];
    if (figure.run == Run::kMno && !runs.mno) {
      runs.mno.emplace(bench::run_mno_scenario(bench::mno_config(16'000, 2019, runs.threads)));
    }
    if (figure.run == Run::kPlatform && !runs.platform) {
      runs.platform.emplace(run_platform(runs.platform_observation, runs.threads));
    }
    Ledger ledger{figure.rows};
    std::ostringstream out;
    figure.render(runs, ledger, out);
    const std::string text = std::move(out).str();
    std::cout << text << std::flush;

    const std::size_t failed_before = failures.size();
    const auto fail = [&](const std::string& what) {
      failures.push_back(std::string(figure.id) + ": " + what);
    };
    const std::uint32_t crc = util::crc32(text);
    if (!scaled && digests != kDigests.end()) {
      const auto expected = digests->second.find(figure.id);
      if (expected == digests->second.end() || expected->second != crc) {
        fail("stdout CRC-32 " + hex32(crc) + " != checked-in " +
             (expected == digests->second.end() ? "(none)" : hex32(expected->second)));
      }
    }
    for (const auto& row : ledger.rows()) {
      if (!row.measured) {
        fail("row \"" + std::string(row.metric) + "\" was never measured");
      } else if (row.deviation.empty() && !in_band(row)) {
        fail("row \"" + std::string(row.metric) + "\" measured " +
             format_value(row.band, *row.measured) + ", outside " +
             std::string(kBandNames[static_cast<int>(row.band)]) + " of paper " +
             format_value(row.band, row.paper));
      }
      ledger_rows.emplace_back(figure.id, row);
    }
    std::cerr << "[figures] " << figure.id << " crc32 " << hex32(crc)
              << (failures.size() == failed_before ? " ok" : " FAIL") << '\n';
    for (std::size_t f = failed_before; f < failures.size(); ++f) {
      std::cerr << "[figures] FAIL " << failures[f] << '\n';
    }

    // Free a shared run once no later figure needs it.
    const auto needed_later = [&](Run run) {
      return std::any_of(selected.begin() + static_cast<std::ptrdiff_t>(i) + 1, selected.end(),
                         [&](const Figure* f) { return f->run == run; });
    };
    if (!needed_later(Run::kMno)) runs.mno.reset();
    if (!needed_later(Run::kPlatform)) runs.platform.reset();
  }

  std::cerr << "\n| id | metric | § | paper | measured | band | verdict |\n"
               "|---|---|---|---|---|---|---|\n";
  for (const auto& [id, row] : ledger_rows) {
    const std::string verdict = !row.measured             ? "unmeasured"
                                : !row.deviation.empty() ? std::string(row.deviation)
                                : in_band(row)           ? "ok"
                                                         : "**outside band**";
    std::cerr << "| " << id << " | " << row.metric << " | " << row.section << " | "
              << format_value(row.band, row.paper) << " | "
              << (row.measured ? format_value(row.band, *row.measured) : "-") << " | "
              << kBandNames[static_cast<int>(row.band)] << " | " << verdict << " |\n";
  }
  std::cerr << "\n[figures] " << selected.size() << " figures, " << ledger_rows.size()
            << " ledger rows, " << failures.size() << " failures\n";
  for (const auto& failure : failures) std::cerr << "[figures] FAIL " << failure << '\n';
  return failures.empty() ? 0 : 1;
}
