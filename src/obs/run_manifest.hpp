#pragma once

// RunManifest: the machine-readable snapshot of one pipeline run — identity
// (name, seed, scale, git describe), phase wall-times, the full metric dump
// and the engine-probe trajectory — exported as BENCH_<name>.json (plus a
// phases CSV for spreadsheet-side diffing). Schema is versioned via the
// "schema" field; EXPERIMENTS.md describes manual A/B workflows. The perf
// gate reads perfbench's results instead (scripts/perf_gate.py).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/engine_probe.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"

namespace wtr::obs {

/// Manifest schema identifier written into every export.
inline constexpr std::string_view kManifestSchema = "wtr-run-manifest/1";

/// The git description baked in at configure time ("unknown" when the tree
/// was built outside git).
[[nodiscard]] std::string_view build_git_describe() noexcept;

class RunManifest {
 public:
  explicit RunManifest(std::string name);

  void set_seed(std::uint64_t seed) { seed_ = seed; }
  void set_scale(std::uint64_t scale) { scale_ = scale; }
  void set_git_describe(std::string describe) { git_describe_ = std::move(describe); }

  /// Free-form result scalars, exported under "results" in insertion order.
  void add_result(const std::string& key, double value);
  void add_result(const std::string& key, std::uint64_t value);
  void add_result(const std::string& key, const std::string& value);

  /// Borrowed observability sources; null skips the section. Must stay
  /// alive until the export calls.
  void attach_metrics(const MetricsRegistry* metrics) { metrics_ = metrics; }
  void attach_timers(const PhaseTimers* timers) { timers_ = timers; }
  void attach_probe(const EngineProbe* probe) { probe_ = probe; }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] std::string to_json() const;
  /// "phase,wall_s,count,depth" rows for the phase table.
  [[nodiscard]] std::string phases_csv() const;

  /// Write BENCH_<name>.json into `directory` (empty = $WTR_BENCH_MANIFEST_DIR
  /// or "."). Returns the written path, or "" on I/O failure (warned to
  /// stderr, never fatal — a bench must not die on a read-only directory).
  std::string write(std::string_view directory = {}) const;

  /// The path write() would use for the given directory choice.
  [[nodiscard]] std::string default_path(std::string_view directory = {}) const;

 private:
  struct Result {
    enum class Kind : std::uint8_t { kDouble, kUint, kString } kind;
    std::string key;
    double d = 0.0;
    std::uint64_t u = 0;
    std::string s;
  };

  std::string name_;
  std::uint64_t seed_ = 0;
  std::uint64_t scale_ = 0;
  std::string git_describe_;
  std::vector<Result> results_;
  const MetricsRegistry* metrics_ = nullptr;
  const PhaseTimers* timers_ = nullptr;
  const EngineProbe* probe_ = nullptr;
};

}  // namespace wtr::obs
