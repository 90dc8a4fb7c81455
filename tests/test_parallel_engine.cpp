// Sharded-engine determinism: Engine::Config::threads must never change a
// single output byte. Every test here serializes the full record stream
// (all four record families, doubles rendered with %a so equality means
// bit-equality), the metrics dump and the probe trajectory, and asserts
// exact string equality between threads=1 and threads∈{2,8} — across all
// three scenarios and under a non-empty FaultSchedule.
//
// Every thread count runs the same sim-day windows; the sharded engine
// pipelines them (shards simulate day d+1 while the merge replays day d).
// The window tests below pin down where a shutdown takes effect at
// threads=1 and with a window in flight at threads=4, and the one-day
// bound on the record buffers.
//
// Manifests are compared with timers detached: phase wall-times are the
// one inherently volatile manifest section (they measure the host, not the
// simulation), so "manifest byte-identity" means everything else —
// identity, results, metrics and probe blocks.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "ckpt/shutdown.hpp"
#include "ckpt/snapshot.hpp"
#include "obs/observability.hpp"
#include "obs/run_manifest.hpp"
#include "stats/sim_time.hpp"
#include "tracegen/m2m_platform_scenario.hpp"
#include "tracegen/mno_scenario.hpp"
#include "tracegen/smip_scenario.hpp"
#include "util/thread_pool.hpp"

#include "record_stream.hpp"

namespace wtr {
namespace {

using test::hex_double;
using test::StreamSerializer;

std::string dump_metrics(const obs::MetricsRegistry& metrics) {
  std::string out;
  for (const auto& [name, counter] : metrics.counters()) {
    out += name + "=" + std::to_string(counter.value()) + "\n";
  }
  for (const auto& [name, gauge] : metrics.gauges()) {
    out += name + "=" + hex_double(gauge.value()) + "\n";
  }
  for (const auto& [name, hist] : metrics.histograms()) {
    out += name + ": n=" + std::to_string(hist.count()) +
           " sum=" + hex_double(hist.sum()) + " buckets=";
    for (const auto b : hist.bucket_counts()) out += std::to_string(b) + ",";
    out += "\n";
  }
  return out;
}

std::string dump_probe(const obs::EngineProbe& probe) {
  std::string out;
  for (const auto& s : probe.samples()) {
    out += std::to_string(s.sim_time) + "|" + std::to_string(s.wakes) + "|" +
           std::to_string(s.queue_depth) + "|" + std::to_string(s.records) + "|" +
           std::to_string(s.attach_attempts) + "|" +
           std::to_string(s.attach_failures) + "|" +
           std::to_string(s.active_fault_episodes) + "\n";
  }
  out += "max=" + std::to_string(probe.queue_depth_max());
  out += " records=" + std::to_string(probe.records_total());
  out += " failures=" + std::to_string(probe.attach_failures());
  return out;
}

/// Everything a run produces, serialized for exact comparison. The manifest
/// is built with metrics and probe attached but timers detached (see file
/// header) and a fixed git-describe so the comparison is build-independent.
struct RunCapture {
  std::string stream;
  std::string metrics;
  std::string probe;
  std::string manifest;
  std::uint64_t wakes = 0;
  std::size_t shards = 0;
  std::uint64_t shard_wake_sum = 0;
};

template <typename Scenario>
RunCapture capture(Scenario& scenario, const obs::RunObservation& observation) {
  StreamSerializer sink;
  scenario.run({&sink});
  RunCapture cap;
  cap.stream = std::move(sink.stream);
  cap.metrics = dump_metrics(observation.metrics());
  cap.probe = dump_probe(observation.probe());
  obs::RunManifest manifest{"parallel-test"};
  manifest.set_git_describe("fixed");
  manifest.attach_metrics(&observation.metrics());
  manifest.attach_probe(&observation.probe());
  manifest.add_result("records_total", observation.probe().records_total());
  cap.manifest = manifest.to_json();
  cap.wakes = scenario.engine().wakes_processed();
  cap.shards = scenario.engine().shards_used();
  for (const auto w : scenario.engine().shard_wakes()) cap.shard_wake_sum += w;
  return cap;
}

tracegen::MnoScenarioConfig mno_config(unsigned threads,
                                       obs::RunObservation& observation) {
  tracegen::MnoScenarioConfig config;
  config.seed = 42;
  config.total_devices = 600;
  config.threads = threads;
  config.build_coverage = false;
  config.obs = observation.view();
  return config;
}

RunCapture run_mno(unsigned threads, const faults::FaultSchedule* faults = nullptr,
                   bool backoff = false) {
  obs::RunObservation observation;
  auto config = mno_config(threads, observation);
  config.faults = faults;
  config.backoff.enabled = backoff;
  tracegen::MnoScenario scenario{config};
  return capture(scenario, observation);
}

RunCapture run_platform(unsigned threads) {
  obs::RunObservation observation;
  tracegen::M2MPlatformConfig config;
  config.seed = 7;
  config.total_devices = 600;
  config.threads = threads;
  config.obs = observation.view();
  tracegen::M2MPlatformScenario scenario{config};
  return capture(scenario, observation);
}

RunCapture run_smip(unsigned threads) {
  obs::RunObservation observation;
  tracegen::SmipScenarioConfig config;
  config.seed = 9;
  config.total_devices = 400;
  config.threads = threads;
  // Default coverage stays on: SMIP exercises the dwell-record path, so the
  // stream comparison covers all four record families.
  config.obs = observation.view();
  tracegen::SmipScenario scenario{config};
  return capture(scenario, observation);
}

void expect_identical(const RunCapture& base, const RunCapture& sharded,
                      unsigned threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  EXPECT_EQ(base.stream, sharded.stream);
  EXPECT_EQ(base.metrics, sharded.metrics);
  EXPECT_EQ(base.probe, sharded.probe);
  EXPECT_EQ(base.manifest, sharded.manifest);
  EXPECT_EQ(base.wakes, sharded.wakes);
}

// --- scenario-level byte identity ------------------------------------------

TEST(ParallelEngine, MnoScenarioByteIdentical) {
  const auto base = run_mno(1);
  ASSERT_FALSE(base.stream.empty());
  EXPECT_EQ(base.shards, 1u);
  for (const unsigned threads : {2u, 8u}) {
    const auto sharded = run_mno(threads);
    expect_identical(base, sharded, threads);
    EXPECT_EQ(sharded.shards, threads);
    EXPECT_EQ(sharded.shard_wake_sum, sharded.wakes);
  }
}

TEST(ParallelEngine, PlatformScenarioByteIdentical) {
  const auto base = run_platform(1);
  ASSERT_FALSE(base.stream.empty());
  for (const unsigned threads : {2u, 8u}) {
    expect_identical(base, run_platform(threads), threads);
  }
}

TEST(ParallelEngine, SmipScenarioByteIdentical) {
  const auto base = run_smip(1);
  ASSERT_FALSE(base.stream.empty());
  // Coverage is on, so dwell records must actually be present in the stream.
  EXPECT_NE(base.stream.find("D:"), std::string::npos);
  for (const unsigned threads : {2u, 8u}) {
    expect_identical(base, run_smip(threads), threads);
  }
}

TEST(ParallelEngine, FaultScheduleByteIdentical) {
  // Faults + mechanistic backoff stress the merge hardest: rejected attaches
  // reschedule on backoff timers, so wake patterns are irregular.
  constexpr stats::SimTime kHour = 3600;
  auto make_schedule = [&](const tracegen::MnoScenario& scenario,
                           faults::FaultSchedule& schedule) {
    const auto& wk = scenario.world().well_known();
    schedule.add_outage(wk.uk_mno, stats::day_start(3) + 8 * kHour,
                        stats::day_start(3) + 14 * kHour, 1.0);
    schedule.add_storm(wk.uk_mno, stats::day_start(5) + 10 * kHour,
                       stats::day_start(5) + 16 * kHour, 0.35);
  };
  // Identically-configured worlds build identically, so a throwaway scenario
  // supplies the operator ids the schedule targets.
  faults::FaultSchedule schedule;
  {
    tracegen::MnoScenarioConfig config;
    config.seed = 42;
    config.total_devices = 10;
    config.build_coverage = false;
    tracegen::MnoScenario probe_scenario{config};
    make_schedule(probe_scenario, schedule);
  }
  ASSERT_GT(schedule.size(), 0u);

  const auto base = run_mno(1, &schedule, /*backoff=*/true);
  for (const unsigned threads : {2u, 8u}) {
    const auto sharded = run_mno(threads, &schedule, /*backoff=*/true);
    expect_identical(base, sharded, threads);
  }
  // The schedule must have actually perturbed the run, or this test proves
  // nothing about fault replay.
  EXPECT_NE(base.stream, run_mno(1).stream);
}

// --- engine accounting ------------------------------------------------------

TEST(ParallelEngine, ShardAccountingConsistent) {
  const auto sharded = run_mno(4);
  EXPECT_EQ(sharded.shards, 4u);
  EXPECT_EQ(sharded.shard_wake_sum, sharded.wakes);
}

TEST(ParallelEngine, ThreadsClampToAgentCount) {
  // More threads than agents must clamp, not spawn empty shards.
  obs::RunObservation observation;
  tracegen::MnoScenarioConfig config;
  config.seed = 5;
  config.total_devices = 40;
  config.threads = 1024;
  config.build_coverage = false;
  config.obs = observation.view();
  tracegen::MnoScenario scenario{config};
  ASSERT_GT(scenario.engine().agent_count(), 0u);
  ASSERT_LT(scenario.engine().agent_count(), 1024u);
  StreamSerializer sink;
  scenario.run({&sink});
  EXPECT_LE(scenario.engine().shards_used(), scenario.engine().agent_count());
}

// --- day windows ------------------------------------------------------------

/// Requests a graceful shutdown from the sink thread once the stream
/// reaches sim time `at`. At threads>1 that is the merge thread, and by
/// then the pipeline has already launched the next day's window.
class ShutdownAt final : public sim::RecordSink {
 public:
  explicit ShutdownAt(stats::SimTime at) : at_(at) {}
  void on_signaling(const signaling::SignalingTransaction& txn, bool) override {
    if (txn.time >= at_) ckpt::request_shutdown();
  }
  void on_cdr(const records::Cdr&) override {}
  void on_xdr(const records::Xdr&) override {}
  void on_dwell(signaling::DeviceHash, std::int32_t, cellnet::Plmn,
                const cellnet::GeoPoint&, double) override {}

 private:
  stats::SimTime at_;
};

/// Clears the process-wide shutdown flag on entry and exit, so a failing
/// assertion cannot leak a pending shutdown into later tests.
struct ShutdownFlagGuard {
  ShutdownFlagGuard() { ckpt::reset_shutdown_flag(); }
  ~ShutdownFlagGuard() { ckpt::reset_shutdown_flag(); }
};

/// The stream of a threads=1 MNO run stopped at the `hours` barrier: the
/// golden prefix through that barrier.
std::string stream_through(std::int64_t hours) {
  obs::RunObservation observation;
  auto config = mno_config(1, observation);
  config.ckpt.stop_after_sim_hours = hours;
  tracegen::MnoScenario scenario{config};
  StreamSerializer sink;
  scenario.run({&sink});
  return sink.stream;
}

TEST(ParallelEngine, ShutdownWithWindowInFlightResumesByteIdentical) {
  const ShutdownFlagGuard guard;
  const auto golden = run_mno(1);
  ASSERT_FALSE(golden.stream.empty());
  const std::string through_day6 = stream_through(6 * 24);

  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto dir = std::filesystem::temp_directory_path() /
                     ("wtr_test_parallel_shutdown_" + std::to_string(threads));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string ckpt = (dir / "ckpt.bin").string();

    // Phase 1: the shutdown lands mid-day 5. At threads=1 the day-5 window
    // finishes and the run stops at its barrier, midnight of day 6. At
    // threads=4 day 6 is already being simulated: the run must finish that
    // in-flight window and stop at the next drained barrier, midnight of
    // day 7.
    std::string partial;
    {
      obs::RunObservation observation;
      auto config = mno_config(threads, observation);
      config.ckpt.path = ckpt;
      tracegen::MnoScenario scenario{config};
      StreamSerializer sink;
      scenario.engine().register_checkpointable("stream", &sink);
      ShutdownAt trigger{stats::day_start(5) + 12 * stats::kSecondsPerHour};
      scenario.run({&sink, &trigger});
      ASSERT_TRUE(scenario.engine().interrupted());
      ASSERT_TRUE(std::filesystem::exists(ckpt));
      if (threads == 1) {
        // Compared as a bool: a gtest diff of two multi-megabyte streams
        // would not fit in memory.
        EXPECT_TRUE(sink.stream == through_day6)
            << sink.stream.size() << "-byte partial stream, expected the "
            << through_day6.size() << "-byte stream through day 6";
      } else {
        EXPECT_GT(sink.last_signaling_time, stats::day_start(6));
        EXPECT_LE(sink.last_signaling_time, stats::day_start(7));
      }
      partial = sink.stream;
    }
    ckpt::reset_shutdown_flag();
    ASSERT_LT(partial.size(), golden.stream.size());
    EXPECT_EQ(partial, golden.stream.substr(0, partial.size()));

    // Phase 2: rebuild, restore, run to the horizon.
    obs::RunObservation observation;
    tracegen::MnoScenario scenario{mno_config(threads, observation)};
    StreamSerializer sink;
    sink.stream = partial;
    scenario.engine().register_checkpointable("stream", &sink);
    scenario.resume_from(ckpt);
    scenario.run({&sink});
    EXPECT_FALSE(scenario.engine().interrupted());
    EXPECT_EQ(sink.stream, golden.stream);
    EXPECT_EQ(dump_metrics(observation.metrics()), golden.metrics);
    EXPECT_EQ(dump_probe(observation.probe()), golden.probe);
    std::filesystem::remove_all(dir);
  }
}

/// trace.record_buffer_peak_bytes of a traced threads=4 MNO run.
double record_buffer_peak_bytes(std::int32_t days) {
  obs::RunObservation observation;
  auto config = mno_config(4, observation);
  config.days = days;
  const auto trace = std::filesystem::temp_directory_path() /
                     ("wtr_test_parallel_buffers_" + std::to_string(days) + ".json");
  config.telemetry.trace_path = trace.string();
  tracegen::MnoScenario scenario{config};
  scenario.run({});
  std::filesystem::remove(trace);
  return observation.metrics().gauges().at("trace.record_buffer_peak_bytes").value();
}

TEST(ParallelEngine, RecordBuffersBoundedByOneDay) {
  // Each shard buffers at most one sim-day window per slot, so the peak
  // must not grow with the horizon.
  const double short_run = record_buffer_peak_bytes(4);
  const double long_run = record_buffer_peak_bytes(16);
  ASSERT_GT(short_run, 0.0);
  EXPECT_LE(long_run, 1.5 * short_run) << "4 days: " << short_run
                                       << " B, 16 days: " << long_run << " B";
}

// --- ThreadPool unit tests --------------------------------------------------

TEST(ThreadPool, RunsAllTasks) {
  util::ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReusableAcrossWaitCycles) {
  util::ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait();
    EXPECT_EQ(counter.load(), (round + 1) * 10);
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  util::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("shard failed"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  util::ThreadPool pool(0);
  int value = 0;
  pool.submit([&value] { value = 41; });
  pool.submit([&value] { ++value; });
  pool.wait();
  EXPECT_EQ(value, 42);
}

}  // namespace
}  // namespace wtr
