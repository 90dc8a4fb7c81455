// perfbench driver: runs ONE iteration of one benchmark workload and prints
// its measurements as a single JSON line on stdout. perfbench/run.py starts
// one process per iteration, so every iteration gets a fresh heap and its
// own peak RSS.
//
// An iteration is: build the scenario kSetupReps times (the last one is
// kept), then the timed pipeline
//   Engine::run -> finalize -> [run_census -> daily_label_shares]
// and, outside the timed interval, a digest of the analysis result. Every
// layer is timed from outside, by wrapping the calls into the library's
// public entry points; the library itself is not modified.
//
// With --trace-dir DIR the iteration is traced: the scenario gets phase
// timers and the engine's flight recorder, the record sink is wrapped in a
// timing sink (one call in kSinkSample timed), and the driver writes its
// own spans as Chrome trace JSON to DIR.
//
//   perfbench_driver --workload mno_census --seed 3 [--threads N]
//                    [--trace-dir DIR] [--run-id 0]

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/catalog_builder.hpp"
#include "core/census.hpp"
#include "core/platform_analysis.hpp"
#include "tracegen/m2m_platform_scenario.hpp"
#include "tracegen/mno_scenario.hpp"

namespace {

using namespace wtr;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process user+sys CPU seconds (all threads).
double cpu_seconds() {
  struct rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// A "VmRSS:"/"VmHWM:" line of /proc/self/status, in MB (0 when absent).
double proc_status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::stod(line.substr(key_len)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  bool mno;  // MnoScenario + catalog/census; else M2M platform
  std::size_t devices;
  std::int32_t days;
  unsigned threads;
  std::uint64_t default_seed;
};

/// --seed n selects scenario seed default_seed + (n mod kSeedPool), so every
/// input a run can see has a checked-in golden digest.
constexpr std::uint64_t kSeedPool = 8;

/// min(4, CPUs this process may run on).
unsigned fleet_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = ::sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  return static_cast<unsigned>(std::clamp(cpus, 1, 4));
}

const Workload* find_workload(const std::string& name) {
  static const Workload kWorkloads[] = {
      {"mno_census", true, 16'000, 22, 1, 2019},
      {"mno_fleet_t4", true, 48'000, 22, fleet_threads(), 2019},
      {"platform_m2m", false, 24'000, 11, 1, 2018},
  };
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// --- output digest -----------------------------------------------------------

/// FNV-1a 64 over the analysis result's fields (doubles by bit pattern).
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ull;
    }
  }
  template <typename T>
  void pod(T value) {
    bytes(&value, sizeof value);
  }
  void str(std::string_view s) {
    pod(s.size());
    bytes(s.data(), s.size());
  }
  void plmn(cellnet::Plmn p) { pod(p.key()); }
  void ecdf(const stats::Ecdf& e) {
    pod(e.size());
    for (const double v : e.sorted_samples()) pod(v);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

void digest_catalog(Digest& d, const records::DevicesCatalog& catalog) {
  d.pod(catalog.size());
  for (const auto& r : catalog.records()) {
    d.pod(r.device);
    d.pod(r.day);
    d.plmn(r.sim_plmn);
    d.pod(r.visited_plmns.size());
    for (const auto& p : r.visited_plmns) d.plmn(p);
    d.pod(r.signaling_events);
    d.pod(r.failed_events);
    d.pod(r.calls);
    d.pod(r.call_seconds);
    d.pod(r.bytes);
    d.pod(r.apns.size());
    for (const auto& apn : r.apns) d.str(apn);
    d.pod(r.tac);
    d.pod(r.radio_flags.bits());
    d.pod(r.data_rats.bits());
    d.pod(r.voice_rats.bits());
    d.pod(r.centroid.lat);
    d.pod(r.centroid.lon);
    d.pod(r.gyration_m);
    d.pod(r.has_position);
  }
}

void digest_census(Digest& d, const core::ClassifiedPopulation& population,
                   const stats::CategoryCounter& shares) {
  d.pod(population.size());
  for (std::size_t i = 0; i < population.size(); ++i) {
    d.pod(population.summaries[i].device);
    d.str(core::roaming_label_name(population.labels[i]));
    d.str(core::class_label_name(population.classes[i]));
  }
  for (const auto& [label, count] : shares.sorted()) {
    d.str(label);
    d.pod(count);
  }
}

void digest_platform(Digest& d, const core::PlatformStats& s) {
  d.pod(s.total_devices);
  d.pod(s.total_records);
  for (const auto& h : s.per_hmno) {
    d.str(h.home_iso);
    d.plmn(h.plmn);
    d.pod(h.devices);
    d.pod(h.records);
    d.pod(h.roaming_devices);
    d.pod(h.roaming_records);
    d.pod(h.visited_countries);
    d.pod(h.visited_networks);
  }
  for (const auto& row : s.footprint.rows_by_total()) {
    for (const auto& col : s.footprint.cols_by_total()) {
      d.str(row);
      d.str(col);
      d.pod(s.footprint.at(row, col));
    }
  }
  for (const auto* e : {&s.records_all, &s.records_4g_ok, &s.records_roaming,
                        &s.records_native, &s.vmnos_per_roaming_device,
                        &s.switches_multi_vmno}) {
    d.ecdf(*e);
  }
  for (const double v :
       {s.share_multi_vmno_devices, s.fraction_failed_only, s.fraction_any_success,
        s.es_fraction_failed_only, s.es_device_share_for_75pct_signaling,
        s.es_signaling_share, s.es_roaming_signaling_share,
        s.es_nonroaming_device_share}) {
    d.pod(v);
  }
  d.pod(s.max_vmnos_failed_only);
  d.pod(s.es_heavy_countries);
  d.pod(s.es_heavy_vmnos);
}

// --- spans -------------------------------------------------------------------

/// The driver's own spans (name, start, end, parent, run id), kept in memory
/// and written as Chrome trace-event JSON when the iteration ends.
class SpanLog {
 public:
  explicit SpanLog(int run_id) : run_id_(run_id) {}

  /// Open a span; returns its id (ids start at 1; parent 0 = root).
  int open(const char* name, int parent) {
    spans_.push_back(Span{name, now_ns(), -1, parent, {}});
    return static_cast<int>(spans_.size());
  }
  void close(int id, std::string args = {}) {
    Span& s = spans_[static_cast<std::size_t>(id - 1)];
    s.end_ns = now_ns();
    s.args = std::move(args);
  }
  /// A span measured elsewhere (sampled sink calls).
  void add(const char* name, int parent, std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, {}});
  }
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n"
        << R"({"name":"thread_name","ph":"M","pid":1,"tid":1,)"
        << R"("args":{"name":"perfbench"}})";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < 0) continue;  // never closed
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,",
                    s.name, static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      out << buf << "\"args\":{\"id\":" << i + 1 << ",\"parent\":" << s.parent
          << ",\"run\":" << run_id_ << s.args << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::string args;  // extra ",\"key\":value" pairs
  };

  Clock::time_point epoch_ = Clock::now();
  int run_id_;
  std::vector<Span> spans_;
};

// --- metered sink ------------------------------------------------------------

/// Wraps the analysis sink: counts every record it forwards and, when
/// `sample_every` > 0, times one call in `sample_every`. The estimate of the
/// total sink time scales the sampled time by calls / sampled calls, after
/// taking off the cost of the two clock reads around each sampled call.
class MeteredSink final : public sim::RecordSink {
 public:
  MeteredSink(sim::RecordSink& inner, unsigned sample_every, SpanLog* spans,
              int parent_span)
      : inner_(inner), sample_every_(sample_every), spans_(spans), parent_(parent_span) {
    if (sample_every_ == 0) return;
    std::vector<std::int64_t> empty(1001);
    for (auto& ns : empty) {
      const std::int64_t start = spans_->now_ns();
      ns = spans_->now_ns() - start;
    }
    std::nth_element(empty.begin(), empty.begin() + 500, empty.end());
    clock_ns_ = empty[500];
  }

  void on_signaling(const signaling::SignalingTransaction& txn,
                    bool data_context) override {
    ++signaling;
    meter([&] { inner_.on_signaling(txn, data_context); });
  }
  void on_cdr(const records::Cdr& cdr) override {
    ++cdr_count;
    meter([&] { inner_.on_cdr(cdr); });
  }
  void on_xdr(const records::Xdr& xdr) override {
    ++xdr_count;
    meter([&] { inner_.on_xdr(xdr); });
  }
  void on_dwell(signaling::DeviceHash device, std::int32_t day,
                cellnet::Plmn visited_plmn, const cellnet::GeoPoint& location,
                double seconds) override {
    ++dwell;
    meter([&] { inner_.on_dwell(device, day, visited_plmn, location, seconds); });
  }

  [[nodiscard]] std::uint64_t delivered() const noexcept {
    return signaling + cdr_count + xdr_count + dwell;
  }
  /// Estimated wall seconds spent inside the wrapped sink.
  [[nodiscard]] double sink_s() const noexcept {
    if (sampled_ == 0) return 0.0;
    return static_cast<double>(sampled_ns_) * 1e-9 * static_cast<double>(delivered()) /
           static_cast<double>(sampled_);
  }

  std::uint64_t signaling = 0;
  std::uint64_t cdr_count = 0;
  std::uint64_t xdr_count = 0;
  std::uint64_t dwell = 0;

 private:
  /// Sampled sink calls kept as spans; the rest are only summed.
  static constexpr std::uint64_t kMaxSinkSpans = 2048;

  template <typename Call>
  void meter(Call&& call) {
    if (sample_every_ == 0 || ++tick_ < sample_every_) {
      call();
      return;
    }
    tick_ = 0;
    const std::int64_t start = spans_->now_ns();
    call();
    const std::int64_t end = spans_->now_ns();
    const std::int64_t ns = end - start - clock_ns_;
    sampled_ns_ += static_cast<std::uint64_t>(std::max<std::int64_t>(0, ns));
    if (++sampled_ <= kMaxSinkSpans) spans_->add("sink", parent_, start, end);
  }

  sim::RecordSink& inner_;
  unsigned sample_every_;
  SpanLog* spans_;
  int parent_;
  unsigned tick_ = 0;
  std::uint64_t sampled_ = 0;
  std::uint64_t sampled_ns_ = 0;
  std::int64_t clock_ns_ = 0;  // median cost of an empty timed interval
};

// --- one iteration -----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  unsigned threads = 0;  // 0 = the workload's own
  std::string trace_dir;  // empty = untraced
  int run_id = 0;
};

/// JSON object builder for the one-line result.
class JsonLine {
 public:
  void num(std::string_view key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    field(key) << buf;
  }
  void str(std::string_view key, const std::string& value) {
    field(key) << '"' << value << '"';
  }
  [[nodiscard]] std::string done() const { return out_.str() + "}"; }

 private:
  std::ostringstream& field(std::string_view key) {
    out_ << (first_ ? "{" : ",") << '"' << key << "\":";
    first_ = false;
    return out_;
  }
  std::ostringstream out_;
  bool first_ = true;
};

/// Scenario constructions per iteration; set-up takes 0.02-0.1 s, so one
/// sample is mostly noise.
constexpr int kSetupReps = 5;
/// One sink call in kSinkSample is timed in traced iterations: timing every
/// call (two clock reads around a ~200 ns call) slowed the catalog run ~30%.
constexpr unsigned kSinkSample = 8;

/// Build the scenario kSetupReps times and keep the last one; records the
/// median construction time and, for the kept scenario, its world/fleets
/// phase times. The kept scenario holds on to `timers` (it times its run
/// there too), so they must outlive it.
template <typename Scenario, typename Config>
std::unique_ptr<Scenario> build_scenario(const Options& opt, Config config,
                                         obs::PhaseTimers& timers, SpanLog& spans,
                                         int root, JsonLine& out) {
  if (!opt.trace_dir.empty()) {
    config.telemetry.trace_path =
        opt.trace_dir + "/engine_" + std::to_string(opt.run_id) + ".json";
    out.str("engine_trace_path", config.telemetry.trace_path);
  }
  std::vector<double> samples;
  std::unique_ptr<Scenario> scenario;
  int span = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool keep = rep + 1 == kSetupReps;
    config.obs.timers = keep ? &timers : nullptr;
    scenario.reset();
    if (keep) span = spans.open("setup", root);
    const auto t0 = Clock::now();
    scenario = std::make_unique<Scenario>(config);
    samples.push_back(seconds_between(t0, Clock::now()));
  }
  const double world_s = timers.total_s("scenario/world");
  const double fleets_s = timers.total_s("scenario/fleets");
  spans.close(span, ",\"world_s\":" + std::to_string(world_s) +
                        ",\"fleets_s\":" + std::to_string(fleets_s));
  out.num("kept_setup_s", samples.back());
  std::sort(samples.begin(), samples.end());
  out.num("setup_s", samples[samples.size() / 2]);
  out.num("world_s", world_s);
  out.num("fleets_s", fleets_s);
  return scenario;
}

/// Run the engine into `analysis_sink`, then `analyze` (finalize and the
/// analysis passes, each timed inside, with VmRSS sampled after finalize),
/// and report every measurement. `analyze` returns a callable that digests
/// the result; it runs after the clock stops.
template <typename Analyze>
void measure(const Options& opt, tracegen::ScenarioBase& scenario,
             sim::RecordSink& analysis_sink, SpanLog& spans, int root, JsonLine& out,
             Analyze&& analyze) {
  const bool traced = !opt.trace_dir.empty();
  sim::Engine& engine = scenario.engine();
  const int run_span = spans.open("run", root);
  MeteredSink metered{analysis_sink, traced ? kSinkSample : 0u, &spans, run_span};
  const double agents = static_cast<double>(engine.agent_count());
  const double arena_before = static_cast<double>(engine.arena_resident_bytes());
  out.num("rss_before_run_mb", proc_status_mb("VmRSS:"));

  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  scenario.run({&metered});
  const auto t_run = Clock::now();
  const double cpu_run = cpu_seconds() - cpu0;
  spans.close(run_span, ",\"records\":" + std::to_string(metered.delivered()));
  out.num("rss_after_run_mb", proc_status_mb("VmRSS:"));

  auto digest = analyze(out);
  const auto t_end = Clock::now();
  const double cpu_e2e = cpu_seconds() - cpu0;

  out.num("e2e_s", seconds_between(t0, t_end));
  out.num("cpu_s", cpu_e2e);
  out.num("run_s", seconds_between(t0, t_run));
  out.num("run_cpu_s", cpu_run);
  out.num("sink_s", metered.sink_s());
  out.num("records", static_cast<double>(metered.delivered()));
  out.num("records_signaling", static_cast<double>(metered.signaling));
  out.num("records_cdr", static_cast<double>(metered.cdr_count));
  out.num("records_xdr", static_cast<double>(metered.xdr_count));
  out.num("records_dwell", static_cast<double>(metered.dwell));
  out.num("agents", agents);
  out.num("wakes", static_cast<double>(engine.wakes_processed()));
  out.num("shards", static_cast<double>(engine.shards_used()));
  out.num("merge_s", engine.merge_wall_s());
  double busy_min = 0.0, busy_max = 0.0;
  const auto& busy = engine.shard_busy_s();
  if (!busy.empty() && engine.window_wall_s() > 0.0) {
    const auto [lo, hi] = std::minmax_element(busy.begin(), busy.end());
    busy_min = *lo / engine.window_wall_s();
    busy_max = *hi / engine.window_wall_s();
  }
  out.num("shard_busy_frac_min", busy_min);
  out.num("shard_busy_frac_max", busy_max);
  out.num("merge_wait_skew_s", engine.merge_wait_skew_s());
  out.num("queue_depth_hwm", static_cast<double>(engine.queue_depth_hwm()));
  out.num("arena_before_bytes", arena_before);
  out.num("arena_after_bytes", static_cast<double>(engine.arena_resident_bytes()));
  out.num("agents_hydrated", static_cast<double>(engine.agents_hydrated()));

  Digest d;
  digest(d);
  out.str("digest", d.hex());
  spans.close(root);
  if (traced) {
    const std::string path =
        opt.trace_dir + "/spans_" + std::to_string(opt.run_id) + ".json";
    if (!spans.write(path)) throw std::runtime_error("cannot write " + path);
    out.str("spans_path", path);
  }
  out.num("peak_rss_mb", proc_status_mb("VmHWM:"));
}

/// Time one analysis pass as a span and as the result field `<name>_s`.
template <typename F>
auto timed(const char* name, SpanLog& spans, int root, JsonLine& out, F&& pass) {
  const int span = spans.open(name, root);
  const auto t0 = Clock::now();
  auto result = pass();
  out.num(std::string(name) + "_s", seconds_between(t0, Clock::now()));
  spans.close(span);
  return result;
}

void run_mno(const Options& opt, const Workload& w, std::uint64_t seed,
             unsigned threads, SpanLog& spans, int root, JsonLine& out) {
  tracegen::MnoScenarioConfig config;
  config.seed = seed;
  config.total_devices = w.devices;
  config.days = w.days;
  config.threads = threads;
  obs::PhaseTimers timers;
  auto scenario =
      build_scenario<tracegen::MnoScenario>(opt, config, timers, spans, root, out);
  core::CatalogAccumulator catalog_sink{
      {scenario->observer_plmn(), scenario->family_plmns()}};
  measure(opt, *scenario, catalog_sink, spans, root, out, [&](JsonLine& o) {
    auto catalog =
        timed("finalize", spans, root, o, [&] { return catalog_sink.finalize(); });
    o.num("rss_after_finalize_mb", proc_status_mb("VmRSS:"));
    auto population = timed("census", spans, root, o, [&] {
      return core::run_census(catalog, scenario->observer_plmn(), scenario->mvno_plmns(),
                              scenario->tac_catalog());
    });
    auto shares = timed("label_shares", spans, root, o, [&] {
      return core::daily_label_shares(catalog, population.labeler);
    });
    o.num("accepted", static_cast<double>(catalog_sink.accepted_records()));
    o.num("catalog_rows", static_cast<double>(catalog.size()));
    return [catalog = std::move(catalog), population = std::move(population),
            shares = std::move(shares)](Digest& d) {
      digest_catalog(d, catalog);
      digest_census(d, population, shares);
    };
  });
}

void run_platform(const Options& opt, const Workload& w, std::uint64_t seed,
                  unsigned threads, SpanLog& spans, int root, JsonLine& out) {
  tracegen::M2MPlatformConfig config;
  config.seed = seed;
  config.total_devices = w.devices;
  config.days = w.days;
  config.threads = threads;
  obs::PhaseTimers timers;
  auto scenario = build_scenario<tracegen::M2MPlatformScenario>(opt, config, timers,
                                                                spans, root, out);
  core::PlatformTraceAccumulator platform_sink{{scenario->hmno_plmns()}};
  measure(opt, *scenario, platform_sink, spans, root, out, [&](JsonLine& o) {
    auto stats =
        timed("finalize", spans, root, o, [&] { return platform_sink.finalize(); });
    o.num("rss_after_finalize_mb", proc_status_mb("VmRSS:"));
    o.num("captured", static_cast<double>(platform_sink.captured_records()));
    return [stats = std::move(stats)](Digest& d) { digest_platform(d, stats); };
  });
}

bool parse_uint(const char* text, unsigned long long& value) {
  char* end = nullptr;
  errno = 0;
  value = std::strtoull(text, &end, 10);
  return errno == 0 && end != text && *end == '\0';
}

int usage(const char* why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload NAME --seed N [--threads N]"
               " [--trace-dir DIR] [--run-id N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    unsigned long long n = 0;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value;
    } else if (!parse_uint(value, n)) {
      return usage(("bad number for " + arg).c_str());
    } else if (arg == "--seed") {
      opt.seed = n;
    } else if (arg == "--threads") {
      opt.threads = static_cast<unsigned>(n);
    } else if (arg == "--run-id") {
      opt.run_id = static_cast<int>(n);
    } else {
      return usage(("unknown or invalid argument " + arg).c_str());
    }
  }
  const Workload* w = find_workload(opt.workload);
  if (w == nullptr) return usage(("unknown workload '" + opt.workload + "'").c_str());

  const std::uint64_t seed = w->default_seed + opt.seed % kSeedPool;
  const unsigned threads = opt.threads != 0 ? opt.threads : w->threads;
  JsonLine out;
  out.str("workload", w->name);
  out.str("toolchain", WTR_PERFBENCH_TOOLCHAIN);
  out.num("scenario_seed", static_cast<double>(seed));
  out.num("seed_pool", static_cast<double>(kSeedPool));
  out.num("threads", threads);
  out.num("devices", static_cast<double>(w->devices));
  out.num("days", w->days);
  SpanLog spans{opt.run_id};
  const int root = spans.open("iteration", 0);
  try {
    if (w->mno) {
      run_mno(opt, *w, seed, threads, spans, root, out);
    } else {
      run_platform(opt, *w, seed, threads, spans, root, out);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << w->name << " failed: " << e.what() << "\n";
    return 1;
  }
  std::cout << out.done() << std::endl;
  return 0;
}
