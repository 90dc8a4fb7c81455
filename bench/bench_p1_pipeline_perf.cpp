// P1 — pipeline performance. Two layers:
//
//  1. Three A/B guards at reduced scale — checkpoint cadence, CSV vs
//     WTRTRC1 trace replay, flight recorder off vs on. Each exits nonzero
//     when its arms' record streams differ; their measurements (snapshot
//     wall, replay speedup, recorder overhead and its off-vs-off noise) go
//     to BENCH_p1.json. End-to-end timing of the §4–§6 pipeline is
//     perfbench's job (perfbench/run.py, gated by scripts/perf_gate.py).
//  2. The google-benchmark micro suite for the analysis kernels an operator
//     would run daily (summarize, labeler, classifier, census, gyration,
//     ECDF, simulation throughput).
//
// `--manifest-only` runs just layer 1; `--threads=N` (or
// WTR_BENCH_THREADS) runs the guards' engines sharded across N workers —
// output is byte-identical. Any other arguments pass through to
// google-benchmark.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "ckpt/shutdown.hpp"
#include "core/activity_metrics.hpp"
#include "core/census.hpp"
#include "core/classifier_validation.hpp"
#include "core/trace_replay.hpp"
#include "io/bintrace.hpp"
#include "obs/trace.hpp"
#include "stats/distributions.hpp"
#include "tracegen/mno_scenario.hpp"

namespace {

using namespace wtr;

// --- Layer 1: A/B guards ---------------------------------------------------

constexpr std::uint64_t kGuardSeed = 101;

/// Devices per guard run: a fifth of WTR_BENCH_SCALE (default 4,000), at
/// least 200.
std::size_t guard_devices() {
  return std::max<std::size_t>(bench::scale_override(4'000) / 5, 200);
}

/// Byte-exact record-stream capture for the checkpoint guard (doubles via
/// %a so equality is bit-equality, same as the determinism test suites).
class GuardStream final : public sim::RecordSink {
 public:
  std::string stream;

  void on_signaling(const signaling::SignalingTransaction& txn,
                    bool data_context) override {
    stream += 'S';
    for (const auto& field : signaling::to_csv_fields(txn)) {
      stream += field;
      stream += ',';
    }
    stream += data_context ? '1' : '0';
  }
  void on_cdr(const records::Cdr& cdr) override {
    stream += 'C';
    for (const auto& field : records::to_csv_fields(cdr)) {
      stream += field;
      stream += ',';
    }
  }
  void on_xdr(const records::Xdr& xdr) override {
    stream += 'X';
    for (const auto& field : records::to_csv_fields(xdr)) {
      stream += field;
      stream += ',';
    }
  }
  void on_dwell(signaling::DeviceHash device, std::int32_t day,
                cellnet::Plmn visited_plmn, const cellnet::GeoPoint& location,
                double seconds) override {
    char buf[96];
    std::snprintf(buf, sizeof buf, "D%llu,%d,%u,%a,%a,%a",
                  static_cast<unsigned long long>(device), day, visited_plmn.key(),
                  location.lat, location.lon, seconds);
    stream += buf;
  }
};

struct CheckpointGuard {
  bool ran = false;
  std::uint64_t checkpoints_written = 0;
  double checkpoint_wall_s = 0.0;
};

/// A/B guard for the checkpoint subsystem at reduced scale: a cadence-off
/// run must take the legacy code path untouched (zero snapshots written),
/// and a cadence-on run must produce a bit-identical record stream — the
/// snapshot boundaries may never perturb the simulation. Exits nonzero on
/// divergence (this is a correctness gate riding the perf bench).
CheckpointGuard run_checkpoint_guard(unsigned threads) {
  const std::size_t devices = guard_devices();
  const auto ckpt_path =
      (std::filesystem::temp_directory_path() / "wtr_bench_p1_guard_ckpt.bin").string();

  auto one = [&](const tracegen::CheckpointOptions& ckpt, GuardStream& sink) {
    tracegen::MnoScenarioConfig config;
    config.seed = kGuardSeed;
    config.total_devices = devices;
    config.threads = threads;
    config.build_coverage = false;
    config.ckpt = ckpt;
    tracegen::MnoScenario scenario{config};
    scenario.run({&sink});
    CheckpointGuard stats;
    stats.ran = !scenario.engine().interrupted();
    stats.checkpoints_written = scenario.engine().checkpoints_written();
    stats.checkpoint_wall_s = scenario.engine().checkpoint_wall_s();
    return stats;
  };

  std::cerr << "[bench] checkpoint guard: " << devices
            << " devices, cadence off vs 12h...\n";
  GuardStream off_sink;
  const auto off = one({}, off_sink);

  tracegen::CheckpointOptions cadence;
  cadence.every_sim_hours = 12;
  cadence.path = ckpt_path;
  GuardStream on_sink;
  auto on = one(cadence, on_sink);
  std::filesystem::remove(ckpt_path);
  std::filesystem::remove(ckpt_path + ".tmp");

  if (!off.ran || !on.ran) return {};  // Ctrl-C mid-guard: nothing to assert

  if (off.checkpoints_written != 0) {
    std::cerr << "[bench] FAIL: cadence-off run wrote "
              << off.checkpoints_written << " snapshot(s); empty checkpoint "
              << "config must be a no-op\n";
    std::exit(1);
  }
  if (on.checkpoints_written == 0) {
    std::cerr << "[bench] FAIL: cadence-on run wrote no snapshots\n";
    std::exit(1);
  }
  if (off_sink.stream != on_sink.stream) {
    std::cerr << "[bench] FAIL: checkpointing changed the record stream ("
              << off_sink.stream.size() << " vs " << on_sink.stream.size()
              << " bytes) — snapshot boundaries must not perturb the run\n";
    std::exit(1);
  }
  std::cerr << "[bench] checkpoint guard: streams bit-identical, "
            << on.checkpoints_written << " snapshot(s), "
            << io::format_fixed(on.checkpoint_wall_s, 3) << "s snapshot wall\n";
  return on;
}

struct TraceFormatGuard {
  bool ran = false;
  std::uint64_t csv_bytes = 0;
  std::uint64_t binary_bytes = 0;
  std::uint64_t records = 0;
  double csv_wall_s = 0.0;
  double binary_wall_s = 0.0;
};

/// A/B guard for the trace interchange formats at reduced scale: export a
/// scenario's three record families as CSV, convert that CSV to WTRTRC1
/// binary, then replay both through the auto-detecting replay_*_trace entry
/// points into byte-exact capture sinks. The captures must be bit-identical
/// (exit nonzero otherwise — a correctness gate riding the perf bench), and
/// the measured walls feed the replay_speedup manifest key.
TraceFormatGuard run_trace_format_guard() {
  const std::size_t devices = guard_devices();
  std::cerr << "[bench] trace format guard: " << devices
            << " devices, CSV vs WTRTRC1 replay...\n";

  // Export the scenario's replayable families as canonical CSV.
  std::ostringstream sig_csv, cdr_csv, xdr_csv;
  {
    core::CsvTraceExportSink csv_sink{sig_csv, cdr_csv, xdr_csv};
    tracegen::MnoScenarioConfig config;
    config.seed = kGuardSeed;
    config.total_devices = devices;
    config.build_coverage = false;
    tracegen::MnoScenario scenario{config};
    scenario.run({&csv_sink});
    if (scenario.engine().interrupted()) return {};  // Ctrl-C: nothing to assert
  }
  const std::string sig = sig_csv.str();
  const std::string cdr = cdr_csv.str();
  const std::string xdr = xdr_csv.str();

  // Convert CSV → binary by replaying each stream into a BinaryTraceSink.
  // Converting from the CSV text (rather than re-running the scenario into
  // a binary sink) keeps the A/B honest: CSV rounds call durations to one
  // decimal, so both files must carry the post-rounding values.
  std::uint64_t records = 0;
  auto to_binary = [&records](const std::string& csv,
                              core::ReplayStats (*replay)(std::istream&,
                                                          sim::RecordSink&)) {
    std::ostringstream out;
    {
      io::BinaryTraceSink sink{out};
      std::istringstream in{csv};
      const auto stats = replay(in, sink);
      records += stats.delivered;
    }
    return out.str();
  };
  const std::string sig_bin = to_binary(sig, core::replay_signaling_csv);
  const std::string cdr_bin = to_binary(cdr, core::replay_cdr_csv);
  const std::string xdr_bin = to_binary(xdr, core::replay_xdr_csv);

  // Correctness pass (untimed): replay both formats through the
  // format-sniffing entry points into byte-exact capture sinks.
  auto capture_replay = [](const std::string& s, const std::string& c,
                           const std::string& x) {
    GuardStream sink;
    std::istringstream si{s}, ci{c}, xi{x};
    core::replay_signaling_trace(si, sink);
    core::replay_cdr_trace(ci, sink);
    core::replay_xdr_trace(xi, sink);
    return std::move(sink.stream);
  };
  const std::string csv_capture = capture_replay(sig, cdr, xdr);
  const std::string bin_capture = capture_replay(sig_bin, cdr_bin, xdr_bin);

  // Timing pass: replay into a sink that only folds each record into a
  // checksum, so the walls measure the decoders — not a capture sink that
  // re-formats every record into strings and would dilute the ratio.
  struct FoldSink final : sim::RecordSink {
    std::uint64_t fold = 0;
    void on_signaling(const signaling::SignalingTransaction& txn,
                      bool data_context) override {
      fold += txn.device ^ static_cast<std::uint64_t>(txn.time) ^ txn.sector ^
              (data_context ? 1u : 0u);
    }
    void on_cdr(const records::Cdr& cdr) override {
      fold += cdr.device ^ static_cast<std::uint64_t>(cdr.time);
    }
    void on_xdr(const records::Xdr& xdr) override {
      fold += xdr.device ^ xdr.bytes_up ^ xdr.bytes_down ^ xdr.apn.size();
    }
    void on_dwell(signaling::DeviceHash device, std::int32_t, cellnet::Plmn,
                  const cellnet::GeoPoint&, double) override {
      fold += device;
    }
  };
  constexpr int kReps = 3;
  std::uint64_t fold_csv = 0;
  std::uint64_t fold_bin = 0;
  auto timed_replay = [&](const std::string& s, const std::string& c,
                          const std::string& x, std::uint64_t& fold) {
    double wall = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      FoldSink sink;
      std::istringstream si{s}, ci{c}, xi{x};
      const auto start = std::chrono::steady_clock::now();
      core::replay_signaling_trace(si, sink);
      core::replay_cdr_trace(ci, sink);
      core::replay_xdr_trace(xi, sink);
      wall += std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                  .count();
      fold ^= sink.fold;  // keep the sink's work observable
    }
    return wall;
  };
  TraceFormatGuard guard;
  guard.csv_wall_s = timed_replay(sig, cdr, xdr, fold_csv);
  guard.binary_wall_s = timed_replay(sig_bin, cdr_bin, xdr_bin, fold_bin);

  if (csv_capture != bin_capture || fold_csv != fold_bin) {
    std::cerr << "[bench] FAIL: binary trace replay diverged from CSV replay ("
              << csv_capture.size() << " vs " << bin_capture.size()
              << " bytes) — the two interchange formats must reproduce the "
              << "same record stream\n";
    std::exit(1);
  }

  guard.ran = true;
  guard.csv_bytes = sig.size() + cdr.size() + xdr.size();
  guard.binary_bytes = sig_bin.size() + cdr_bin.size() + xdr_bin.size();
  guard.records = records;
  const double speedup =
      guard.binary_wall_s > 0.0 ? guard.csv_wall_s / guard.binary_wall_s : 0.0;
  std::cerr << "[bench] trace format guard: streams bit-identical, " << records
            << " records, " << guard.csv_bytes << " B csv vs "
            << guard.binary_bytes << " B binary, replay "
            << io::format_fixed(speedup, 2) << "x faster\n";
  return guard;
}

struct TraceOverheadGuard {
  bool ran = false;
  double off_wall_s = 0.0;
  double on_wall_s = 0.0;
  double overhead_pct = 0.0;
  double null_pct = 0.0;
  std::uint64_t trace_events = 0;
};

/// A/B guard for the flight recorder at reduced scale: a traced run must
/// produce a bit-identical record stream (tracing may never perturb the
/// simulation — exit nonzero otherwise), and its wall-time overhead must
/// stay under 3%. After one untimed warm-up run, each block runs the arms
/// off, on, null, null, on, off — null is a second untraced arm — so every
/// arm's two runs sit symmetrically about the block's middle and a linear
/// drift in host speed adds the same to each arm. The on and null arms'
/// median walls are compared with the off arm's; the null arm (off vs off)
/// shows the noise and is reported only. Deltas inside an absolute noise
/// floor pass regardless of ratio, since tiny guard-scale runs can't resolve
/// sub-millisecond differences.
TraceOverheadGuard run_trace_overhead_guard(unsigned threads) {
  const std::size_t devices = guard_devices();
  const auto trace_path =
      (std::filesystem::temp_directory_path() / "wtr_bench_p1_guard_trace.json").string();
  std::cerr << "[bench] trace overhead guard: " << devices
            << " devices, recorder off vs on vs off, ABBA blocks...\n";

  enum Arm { kOff, kOn, kNull };
  constexpr std::array<Arm, 6> kBlock{kOff, kOn, kNull, kNull, kOn, kOff};
  constexpr int kBlocks = 8;
  constexpr double kMaxPct = 3.0;
  // Noise floor: at guard scale a few ms of scheduler jitter can exceed any
  // percentage bound; only a delta that is both relatively and absolutely
  // large indicates real recorder overhead.
  constexpr double kNoiseFloorS = 0.025;

  TraceOverheadGuard guard;
  std::string off_stream, on_stream;
  bool interrupted = false;

  // One run of one arm; keeps the record stream of the arm's first run.
  auto run = [&](Arm arm) {
    tracegen::MnoScenarioConfig config;
    config.seed = kGuardSeed;
    config.total_devices = devices;
    config.threads = threads;
    config.build_coverage = false;
    if (arm == kOn) config.telemetry.trace_path = trace_path;
    GuardStream sink;
    const auto start = std::chrono::steady_clock::now();
    tracegen::MnoScenario scenario{config};
    scenario.run({&sink});
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (scenario.engine().interrupted()) interrupted = true;
    if (const auto* rec = scenario.engine().flight_recorder()) {
      guard.trace_events = rec->events_recorded();
    }
    if (arm != kNull) {
      auto& stream = arm == kOn ? on_stream : off_stream;
      if (stream.empty()) stream = std::move(sink.stream);
    }
    return wall;
  };
  auto median = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
  };

  run(kOff);  // untimed warm-up; also captures the off arm's stream
  std::array<std::vector<double>, 3> walls;
  for (int block = 0; block < kBlocks && !interrupted; ++block) {
    for (const Arm arm : kBlock) walls[arm].push_back(run(arm));
  }
  std::filesystem::remove(trace_path);
  if (interrupted) return {};  // Ctrl-C mid-guard: nothing to assert
  guard.off_wall_s = median(walls[kOff]);
  guard.on_wall_s = median(walls[kOn]);
  guard.overhead_pct = (guard.on_wall_s / guard.off_wall_s - 1.0) * 100.0;
  guard.null_pct = (median(walls[kNull]) / guard.off_wall_s - 1.0) * 100.0;

  if (off_stream != on_stream) {
    std::cerr << "[bench] FAIL: enabling the flight recorder changed the "
              << "record stream (" << off_stream.size() << " vs "
              << on_stream.size() << " bytes) — tracing must not perturb "
              << "the simulation\n";
    std::exit(1);
  }
  if (guard.trace_events == 0) {
    std::cerr << "[bench] FAIL: traced run recorded no flight-recorder events\n";
    std::exit(1);
  }

  if (guard.overhead_pct > kMaxPct &&
      guard.on_wall_s - guard.off_wall_s > kNoiseFloorS) {
    std::cerr << "[bench] FAIL: flight-recorder overhead "
              << io::format_fixed(guard.overhead_pct, 2) << "% exceeds "
              << io::format_fixed(kMaxPct, 2) << "% (walls "
              << io::format_fixed(guard.off_wall_s, 3) << "s off vs "
              << io::format_fixed(guard.on_wall_s, 3) << "s on; off-vs-off noise "
              << io::format_fixed(guard.null_pct, 2) << "%)\n";
    std::exit(1);
  }
  guard.ran = true;
  std::cerr << "[bench] trace overhead guard: streams bit-identical, "
            << guard.trace_events << " events, overhead "
            << io::format_fixed(guard.overhead_pct, 2) << "% (off-vs-off noise "
            << io::format_fixed(guard.null_pct, 2) << "%)\n";
  return guard;
}

/// Runs the three guards and writes their manifest. Returns false when
/// SIGINT/SIGTERM stopped a guard — nothing was asserted, no manifest is
/// written, and the micro benches must not run.
bool run_guards(unsigned threads) {
  obs::RunManifest manifest{"p1"};
  manifest.set_seed(kGuardSeed);
  manifest.set_scale(guard_devices());
  manifest.add_result("engine_threads", static_cast<std::uint64_t>(threads));

  const auto guard = run_checkpoint_guard(threads);
  if (!guard.ran) return false;
  manifest.add_result("checkpoints_written", guard.checkpoints_written);
  manifest.add_result("checkpoint_wall_s", guard.checkpoint_wall_s);
  manifest.add_result("checkpoint_guard", std::string{"ok"});

  const auto trace_guard = run_trace_format_guard();
  if (!trace_guard.ran) return false;
  manifest.add_result("trace_bytes_csv", trace_guard.csv_bytes);
  manifest.add_result("trace_bytes_binary", trace_guard.binary_bytes);
  manifest.add_result("replay_wall_s_csv", trace_guard.csv_wall_s);
  manifest.add_result("replay_wall_s_binary", trace_guard.binary_wall_s);
  manifest.add_result("replay_speedup",
                      trace_guard.binary_wall_s > 0.0
                          ? trace_guard.csv_wall_s / trace_guard.binary_wall_s
                          : 0.0);
  manifest.add_result("trace_format_guard", std::string{"ok"});

  const auto overhead_guard = run_trace_overhead_guard(threads);
  if (!overhead_guard.ran) return false;
  manifest.add_result("trace_overhead_pct", overhead_guard.overhead_pct);
  manifest.add_result("trace_null_pct", overhead_guard.null_pct);
  manifest.add_result("trace_events", overhead_guard.trace_events);
  manifest.add_result("trace_guard", std::string{"ok"});

  bench::write_manifest(manifest);
  return true;
}

// --- Layer 2: kernel micro-benchmarks --------------------------------------

struct Fixture {
  std::unique_ptr<tracegen::MnoScenario> scenario;
  records::DevicesCatalog catalog;
  std::vector<core::DeviceSummary> summaries;

  static const Fixture& get() {
    static const Fixture fixture = [] {
      tracegen::MnoScenarioConfig config;
      config.seed = 101;
      config.total_devices = 4'000;
      auto scenario = std::make_unique<tracegen::MnoScenario>(config);
      core::CatalogAccumulator accumulator{{scenario->observer_plmn(),
                                            scenario->family_plmns()}};
      scenario->run({&accumulator});
      auto catalog = accumulator.finalize();
      auto summaries = core::summarize(catalog);
      return Fixture{std::move(scenario), std::move(catalog), std::move(summaries)};
    }();
    return fixture;
  }
};

void BM_Summarize(benchmark::State& state) {
  const auto& fixture = Fixture::get();
  for (auto _ : state) {
    auto summaries = core::summarize(fixture.catalog);
    benchmark::DoNotOptimize(summaries);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fixture.catalog.size()));
}
BENCHMARK(BM_Summarize)->Unit(benchmark::kMillisecond);

void BM_RoamingLabeler(benchmark::State& state) {
  const auto& fixture = Fixture::get();
  const core::RoamingLabeler labeler{fixture.scenario->observer_plmn(),
                                     fixture.scenario->mvno_plmns()};
  for (auto _ : state) {
    std::size_t inbound = 0;
    for (const auto& summary : fixture.summaries) {
      if (labeler.label(summary.sim_plmn, summary.visited_plmns) ==
          core::kInboundRoamerLabel) {
        ++inbound;
      }
    }
    benchmark::DoNotOptimize(inbound);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fixture.summaries.size()));
}
BENCHMARK(BM_RoamingLabeler)->Unit(benchmark::kMicrosecond);

void BM_Classifier(benchmark::State& state) {
  const auto& fixture = Fixture::get();
  const core::DeviceClassifier classifier{fixture.scenario->tac_catalog()};
  for (auto _ : state) {
    auto result = classifier.classify(fixture.summaries);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fixture.summaries.size()));
}
BENCHMARK(BM_Classifier)->Unit(benchmark::kMillisecond);

void BM_ClassifierNoPropagation(benchmark::State& state) {
  const auto& fixture = Fixture::get();
  core::ClassifierConfig config;
  config.propagate_device_properties = false;
  const core::DeviceClassifier classifier{fixture.scenario->tac_catalog(), config};
  for (auto _ : state) {
    auto result = classifier.classify(fixture.summaries);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ClassifierNoPropagation)->Unit(benchmark::kMillisecond);

void BM_FullCensus(benchmark::State& state) {
  const auto& fixture = Fixture::get();
  for (auto _ : state) {
    auto population =
        core::run_census(fixture.catalog, fixture.scenario->observer_plmn(),
                         fixture.scenario->mvno_plmns(), fixture.scenario->tac_catalog());
    benchmark::DoNotOptimize(population);
  }
}
BENCHMARK(BM_FullCensus)->Unit(benchmark::kMillisecond);

void BM_GyrationAccumulator(benchmark::State& state) {
  stats::Rng rng{1};
  std::vector<cellnet::GeoPoint> points;
  std::vector<double> weights;
  const cellnet::GeoPoint base{51.5, -0.1};
  for (int i = 0; i < 1'000; ++i) {
    points.push_back(cellnet::offset_m(base, rng.uniform(-5e3, 5e3), rng.uniform(-5e3, 5e3)));
    weights.push_back(rng.uniform(1.0, 600.0));
  }
  for (auto _ : state) {
    core::GyrationAccumulator acc;
    for (std::size_t i = 0; i < points.size(); ++i) acc.add(points[i], weights[i]);
    benchmark::DoNotOptimize(acc.gyration_m());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1'000);
}
BENCHMARK(BM_GyrationAccumulator)->Unit(benchmark::kMicrosecond);

void BM_EcdfQuantiles(benchmark::State& state) {
  stats::Rng rng{2};
  stats::Ecdf ecdf;
  for (int i = 0; i < 100'000; ++i) ecdf.add(stats::sample_lognormal(rng, 3.0, 1.5));
  for (auto _ : state) {
    double total = 0.0;
    for (double q = 0.01; q < 1.0; q += 0.01) total += ecdf.quantile(q);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_EcdfQuantiles)->Unit(benchmark::kMicrosecond);

void BM_SimulationThroughput(benchmark::State& state) {
  // Wall-clock cost of simulating one device-day at MNO-population mix.
  for (auto _ : state) {
    tracegen::MnoScenarioConfig config;
    config.seed = 77;
    config.total_devices = 500;
    config.build_coverage = false;
    tracegen::MnoScenario scenario{config};
    core::CatalogAccumulator accumulator{{scenario.observer_plmn(),
                                          scenario.family_plmns()}};
    scenario.run({&accumulator});
    benchmark::DoNotOptimize(accumulator.accepted_records());
  }
}
BENCHMARK(BM_SimulationThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads = wtr::bench::threads_from_args(argc, argv);
  bool manifest_only = false;
  // Strip our flag before google-benchmark sees the argument vector.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--manifest-only") == 0) {
      manifest_only = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  // Ctrl-C lands as a graceful engine stop at the next window barrier; the
  // interrupted guard asserts nothing and the bench exits 130.
  wtr::ckpt::install_shutdown_handlers();

  if (!run_guards(threads)) return 130;
  if (manifest_only) return 0;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
