#pragma once

// Shared plumbing for the bench binaries (the figure runner wtr_figures, T2,
// S1–S3 and P1): scale and thread overrides (WTR_BENCH_SCALE=<devices>,
// WTR_BENCH_THREADS / --threads=N), the default MNO run, paper-vs-measured
// rows through wtr::io::Table, and BENCH_<name>.json run manifests (see
// README "Run manifests").

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/census.hpp"
#include "io/table.hpp"
#include "obs/observability.hpp"
#include "tracegen/calibration.hpp"
#include "tracegen/mno_scenario.hpp"

namespace wtr::bench {

inline std::size_t scale_override(std::size_t fallback) {
  const char* env = std::getenv("WTR_BENCH_SCALE");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(env, &end, 10);
  if (errno != 0 || end == env || *end != '\0' || value <= 0) {
    // A typo like WTR_BENCH_SCALE=10k must not silently fall back — the
    // operator thinks they ran a 10k sweep and reads numbers from the
    // default scale. Warn loudly, then fall back.
    std::cerr << "[bench] invalid WTR_BENCH_SCALE=\"" << env
              << "\" (want a positive integer); using " << fallback << "\n";
    return fallback;
  }
  return static_cast<std::size_t>(value);
}

/// Engine thread count from WTR_BENCH_THREADS (same hardening as
/// scale_override). Output is byte-identical at any value — this only
/// trades wall time, so baselines stay comparable across thread counts.
inline unsigned threads_override(unsigned fallback) {
  const char* env = std::getenv("WTR_BENCH_THREADS");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(env, &end, 10);
  if (errno != 0 || end == env || *end != '\0' || value <= 0) {
    std::cerr << "[bench] invalid WTR_BENCH_THREADS=\"" << env
              << "\" (want a positive integer); using " << fallback << "\n";
    return fallback;
  }
  return static_cast<unsigned>(value);
}

/// Consume a `--threads=N` argument if present (removed from argv so the
/// remaining args can go to google-benchmark untouched). Precedence:
/// --threads=N beats WTR_BENCH_THREADS beats the default of 1.
inline unsigned threads_from_args(int& argc, char** argv) {
  unsigned threads = threads_override(1);
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      const std::string value = arg.substr(10);
      char* end = nullptr;
      errno = 0;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (errno != 0 || end == value.c_str() || *end != '\0' || parsed <= 0) {
        std::cerr << "[bench] invalid " << arg
                  << " (want a positive integer); using " << threads << "\n";
      } else {
        threads = static_cast<unsigned>(parsed);
      }
      continue;  // swallow the argument
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return threads;
}

/// Peak resident set size of this process so far, in bytes (Linux reports
/// ru_maxrss in kilobytes). 0 when getrusage fails.
inline std::uint64_t peak_rss_bytes() {
  struct rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
}

/// Record the engine's parallel-execution metadata in a manifest. These
/// keys are informational: thread count never changes results, only wall
/// time.
inline void add_thread_metadata(obs::RunManifest& manifest, const sim::Engine& engine,
                                unsigned threads_requested) {
  manifest.add_result("engine_threads", static_cast<std::uint64_t>(threads_requested));
  manifest.add_result("engine_shards", static_cast<std::uint64_t>(engine.shards_used()));
  manifest.add_result("engine_merge_wall_s", engine.merge_wall_s());
  const auto& shard_wakes = engine.shard_wakes();
  if (!shard_wakes.empty()) {
    std::string wakes;
    for (std::size_t s = 0; s < shard_wakes.size(); ++s) {
      if (s != 0) wakes += ',';
      wakes += std::to_string(shard_wakes[s]);
    }
    manifest.add_result("engine_shard_wakes", wakes);
  }
  // Flight-recorder shard-balance telemetry (only meaningful on traced
  // runs).
  const auto& busy = engine.shard_busy_s();
  if (!busy.empty() && engine.window_wall_s() > 0.0) {
    double lo = busy.front(), hi = busy.front();
    for (const double b : busy) {
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    }
    manifest.add_result("trace_shard_busy_frac_min", lo / engine.window_wall_s());
    manifest.add_result("trace_shard_busy_frac_max", hi / engine.window_wall_s());
    manifest.add_result("trace_merge_wait_skew_s", engine.merge_wait_skew_s());
    manifest.add_result("trace_queue_depth_hwm", engine.queue_depth_hwm());
  }
}

/// Paper-vs-measured row helper.
inline void add_check(io::Table& table, const std::string& metric, double paper,
                      double measured, bool percent = true) {
  table.add_row({metric, percent ? io::format_percent(paper) : io::format_fixed(paper),
                 percent ? io::format_percent(measured) : io::format_fixed(measured)});
}

struct MnoRun {
  std::unique_ptr<tracegen::MnoScenario> scenario;
  records::DevicesCatalog catalog;
  core::ClassifiedPopulation population;
};

/// MNO scenario config with WTR_BENCH_SCALE applied to `default_devices`.
inline tracegen::MnoScenarioConfig mno_config(std::size_t default_devices, std::uint64_t seed,
                                              unsigned threads) {
  tracegen::MnoScenarioConfig config;
  config.seed = seed;
  config.total_devices = scale_override(default_devices);
  config.threads = threads;
  return config;
}

/// Simulates `config` into a devices catalog and its census. `observation`
/// (optional) instruments the whole run: scenario phases, engine probe
/// samples and the analysis passes all land in it, ready for
/// make_manifest() below.
inline MnoRun run_mno_scenario(tracegen::MnoScenarioConfig config,
                               obs::RunObservation* observation = nullptr) {
  if (observation != nullptr) config.obs = observation->view();
  auto scenario = std::make_unique<tracegen::MnoScenario>(config);
  std::cerr << "[bench] simulating MNO scenario: " << scenario->device_count()
            << " devices, " << config.days << " days...\n";
  core::CatalogAccumulator accumulator{{scenario->observer_plmn(),
                                        scenario->family_plmns()}};
  scenario->run({&accumulator});
  auto catalog = accumulator.finalize();
  obs::ScopedTimer census_timer{observation != nullptr ? &observation->timers() : nullptr,
                                "analysis/census"};
  auto population = core::run_census(catalog, scenario->observer_plmn(),
                                     scenario->mvno_plmns(), scenario->tac_catalog());
  return MnoRun{std::move(scenario), std::move(catalog), std::move(population)};
}

/// Manifest seeded with run identity and all three observability sources
/// attached. Callers add_result() their headline numbers, then write().
inline obs::RunManifest make_manifest(const std::string& name, std::uint64_t seed,
                                      std::uint64_t scale,
                                      const obs::RunObservation& observation) {
  obs::RunManifest manifest{name};
  manifest.set_seed(seed);
  manifest.set_scale(scale);
  observation.fill(manifest);
  return manifest;
}

/// Write and announce a manifest (stderr keeps stdout tables clean). The
/// process's peak RSS is stamped here — write time is as late as any
/// harness measures, so the value covers the whole run.
inline void write_manifest(obs::RunManifest& manifest) {
  manifest.add_result("peak_rss_bytes", peak_rss_bytes());
  const auto path = manifest.write();
  if (!path.empty()) std::cerr << "[bench] wrote " << path << "\n";
}

}  // namespace wtr::bench
