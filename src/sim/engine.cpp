#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <limits>
#include <string>
#include <type_traits>

#include "ckpt/shutdown.hpp"
#include "obs/engine_probe.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace wtr::sim {

/// Everything one shard's event loop owns: two record arenas (at K>1 the
/// pipeline fills one while the merge replays the other; K=1 uses neither),
/// its wake count, and — when metrics are on — a private registry fed by a
/// private OutcomePolicy clone, so shard loops never touch shared counters.
struct Engine::Shard {
  Shard(const signaling::OutcomePolicyConfig& outcome_config,
        const faults::FaultSchedule* faults, obs::MetricsRegistry* main_metrics,
        const faults::CongestionModel* congestion)
      : ledger(congestion != nullptr ? congestion->op_count() : 0),
        outcomes(outcome_config, faults, main_metrics != nullptr ? &metrics : nullptr,
                 congestion, congestion != nullptr ? &ledger : nullptr) {}

  std::array<RecordBuffer, 2> buffers;
  obs::MetricsRegistry metrics;
  /// Shard-private attach-attempt counts for the open congestion bucket;
  /// absorbed into the model at barriers by the merge thread.
  faults::CongestionLedger ledger;
  signaling::OutcomePolicy outcomes;
  std::uint64_t wakes = 0;

  /// Flight-recorder binding (null when tracing is off). The shard thread
  /// is the sole writer of `track`; barriers quiesce it before any read.
  obs::FlightRecorder* trace = nullptr;
  std::uint32_t track = 0;
  /// Wall seconds this shard spent inside its window loops (cumulative) —
  /// the per-window deltas feed the merge-wait skew metric.
  double busy_s = 0.0;
  /// Largest shard-queue depth seen at window entry.
  std::uint64_t queue_hwm = 0;
};

Engine::Engine(const topology::World& world, Config config)
    : world_(world),
      config_(config),
      selector_(world),
      rng_(config.seed) {
  // The recorder exists from construction so sinks registered before run()
  // can borrow it. One track per configured thread plus the engine track;
  // shard clamping just leaves trailing tracks empty (skipped at export).
  if (!config_.trace_path.empty()) {
    trace_ = std::make_unique<obs::FlightRecorder>(
        std::max(1u, config_.threads), config_.trace_capacity_per_track);
  }
  if (!config_.heartbeat_path.empty()) {
    heartbeat_ = std::make_unique<obs::HeartbeatWriter>(
        config_.heartbeat_path, config_.heartbeat_every_wall_s);
  }
}

Engine::~Engine() = default;

void Engine::add_fleet(std::vector<devices::Device> fleet, AgentOptions options) {
  assert(!ran_);
  // Agent indices ride in every Event and snapshot as AgentIndex
  // (uint32_t); registering past that silently truncates indices into
  // aliases, so reject the whole fleet up front with a clear error.
  constexpr std::size_t kMaxAgents = std::numeric_limits<AgentIndex>::max();
  if (fleet.size() > kMaxAgents - arena_.size()) {
    throw std::length_error(
        "sim::Engine::add_fleet: fleet of " + std::to_string(fleet.size()) +
        " devices would push the agent count past the AgentIndex limit (" +
        std::to_string(kMaxAgents) + "); current count is " +
        std::to_string(arena_.size()));
  }
  // Geometric-floor reservation: the old per-fleet exact reserve here
  // reallocated (and copied) the whole agent store on every add_fleet call.
  arena_.reserve_additional(fleet.size());
  const std::uint32_t options_id = arena_.intern_options(std::move(options));
  for (auto& device : fleet) {
    // Clamp the device's window to the engine horizon.
    device.departure_day = std::min(device.departure_day, config_.horizon_days);
    // Same per-device RNG discipline as the historical eager path: the fork
    // tag counts *kept* agents, and empty-window devices draw nothing. The
    // arena keeps each kept agent's first wake; run() seeds the queues.
    arena_.register_device(std::move(device), options_id,
                           rng_.fork(arena_.size() + 1));
  }
}

std::uint64_t Engine::fleet_fingerprint() const {
  std::uint64_t h = stats::mix64(config_.seed, 0xc4e9'0000u);
  h = stats::mix64(h, static_cast<std::uint64_t>(config_.horizon_days));
  h = stats::mix64(h, arena_.size());
  for (std::size_t i = 0; i < arena_.size(); ++i) {
    h = stats::mix64(h, arena_.device(i).id);
    h = stats::mix64(h, static_cast<std::uint64_t>(arena_.first_wake(i)));
  }
  return h;
}

void Engine::beat(const char* phase, stats::SimTime sim_now, bool force) {
  if (heartbeat_ == nullptr) return;
  obs::HeartbeatStatus status;
  status.phase = phase;
  status.sim_time_s = static_cast<double>(sim_now);
  status.horizon_s = static_cast<double>(stats::day_start(config_.horizon_days));
  status.wakes = wakes_;
  status.records = config_.probe != nullptr ? config_.probe->records_total() : 0;
  status.last_checkpoint_s = static_cast<double>(last_checkpoint_time_);
  status.checkpoints_written = checkpoints_written_;
  if (force) {
    heartbeat_->write_now(status);
  } else {
    heartbeat_->maybe_write(status);
  }
}

void Engine::write_checkpoint(stats::SimTime resume_time, const EventQueue& queue,
                              const obs::MetricsRegistry* metrics_view) {
  if (config_.checkpoint_path.empty()) return;
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  // write_checkpoint always runs on the engine/merge thread, so its spans
  // land on the engine track.
  obs::TraceSpan serialize_span(trace_.get(), obs::FlightRecorder::kEngineTrack,
                                obs::TraceCat::kCheckpoint, "ckpt_serialize");
  serialize_span.set_args("sim_time", resume_time);

  util::BinWriter payload;
  payload.u64(fleet_fingerprint());
  payload.i64(resume_time);
  payload.u64(wakes_);
  payload.i64(last_time_);

  // Pending events in exact global pop order: resume reschedules them in
  // this order into a fresh queue, reproducing the relative (time, seq)
  // ordering against everything scheduled after the snapshot point.
  const auto events = queue.snapshot_events();
  payload.u64(events.size());
  for (const auto& event : events) {
    payload.i64(event.time);
    payload.u32(event.agent);
  }

  payload.u64(arena_.size());
  arena_.save_state(payload);  // hydration flag per agent, state if hydrated

  payload.b(metrics_view != nullptr);
  if (metrics_view != nullptr) metrics_view->save_state(payload);

  payload.b(config_.probe != nullptr);
  if (config_.probe != nullptr) config_.probe->save_state(payload);

  payload.b(config_.congestion != nullptr);
  if (config_.congestion != nullptr) config_.congestion->save_state(payload);

  payload.u64(checkpointables_.size());
  for (const auto& [name, component] : checkpointables_) {
    payload.str(name);
    util::BinWriter section;
    component->save_state(section);
    payload.str(section.bytes());
  }

  serialize_span.close();
  ckpt::write_snapshot_atomic(config_.checkpoint_path, payload.bytes(),
                              trace_.get(), obs::FlightRecorder::kEngineTrack);
  ++checkpoints_written_;
  last_checkpoint_time_ = resume_time;
  checkpoint_wall_s_ +=
      std::chrono::duration<double>(Clock::now() - start).count();
  beat("checkpoint", resume_time);
}

void Engine::resume_from(const std::string& path) {
  if (ran_) {
    throw std::logic_error("sim::Engine::resume_from: engine already ran");
  }
  const std::string payload = ckpt::read_snapshot(path);
  util::BinReader in(payload);

  const auto fingerprint = in.u64();
  if (fingerprint != fleet_fingerprint()) {
    throw ckpt::SnapshotError(
        path +
        ": snapshot fleet/config fingerprint mismatch — the engine must be "
        "rebuilt with the identical seed, horizon and fleet before resuming");
  }
  resume_time_ = in.i64();
  wakes_ = in.u64();
  last_time_ = in.i64();

  resume_events_.clear();
  const auto n_events = in.u64();
  resume_events_.reserve(n_events);
  for (std::uint64_t i = 0; i < n_events; ++i) {
    const auto time = in.i64();
    const auto agent = in.u32();
    if (agent >= arena_.size()) {
      throw ckpt::SnapshotError(path + ": snapshot references agent index " +
                                std::to_string(agent) + " beyond fleet size " +
                                std::to_string(arena_.size()));
    }
    resume_events_.emplace_back(time, agent);
  }

  const auto n_agents = in.u64();
  if (n_agents != arena_.size()) {
    throw ckpt::SnapshotError(
        path + ": snapshot holds " + std::to_string(n_agents) +
        " agents but the rebuilt engine has " + std::to_string(arena_.size()));
  }
  arena_.freeze();
  arena_.restore_state(in);

  const bool has_metrics = in.b();
  if (has_metrics != (config_.metrics != nullptr)) {
    throw ckpt::SnapshotError(
        path + ": snapshot and engine disagree on metrics instrumentation "
               "(both runs must enable or disable it together)");
  }
  if (has_metrics) config_.metrics->restore_state(in);

  const bool has_probe = in.b();
  if (has_probe != (config_.probe != nullptr)) {
    throw ckpt::SnapshotError(
        path + ": snapshot and engine disagree on probe instrumentation "
               "(both runs must enable or disable it together)");
  }
  if (has_probe) config_.probe->restore_state(in);

  const bool has_congestion = in.b();
  if (has_congestion != (config_.congestion != nullptr)) {
    throw ckpt::SnapshotError(
        path + ": snapshot and engine disagree on the congestion model "
               "(both runs must install or omit it together)");
  }
  if (has_congestion) config_.congestion->restore_state(in);

  const auto n_components = in.u64();
  if (n_components != checkpointables_.size()) {
    throw ckpt::SnapshotError(
        path + ": snapshot holds " + std::to_string(n_components) +
        " checkpointable components but " +
        std::to_string(checkpointables_.size()) + " are registered");
  }
  for (auto& [name, component] : checkpointables_) {
    const auto saved_name = in.str();
    if (saved_name != name) {
      throw ckpt::SnapshotError(path + ": checkpointable order mismatch: "
                                       "snapshot has '" +
                                saved_name + "' where '" + name +
                                "' is registered");
    }
    const auto section = in.str();
    util::BinReader section_in(section);
    component->restore_state(section_in);
    section_in.expect_exhausted("checkpointable '" + name + "'");
  }
  in.expect_exhausted("engine snapshot " + path);

  resumed_ = true;
  resumed_from_ = path;
}

void Engine::run(std::vector<RecordSink*> sinks) {
  if (ran_) {
    throw std::logic_error(
        "sim::Engine::run: engine already ran; build a new engine for a "
        "second run (the event queue is consumed)");
  }
  ran_ = true;
  arena_.freeze();
  beat(resumed_ ? "resume" : "init", resumed_ ? resume_time_ : 0,
       /*force=*/true);

  const std::size_t shard_count = std::min<std::size_t>(
      std::max(1u, config_.threads), std::max<std::size_t>(1, arena_.size()));
  run_windows(sinks, shard_count);
  // An interrupted run withholds the run-summary metrics: the resumed
  // process emits them once at its own completion, so the resumed dump is
  // byte-identical to an uninterrupted run's (engine.runs stays 1).
  if (!interrupted_) finish_run_metrics();
  finish_telemetry();
}

void Engine::finish_telemetry() {
  // Runs strictly after the last snapshot write of this process, so
  // wall-clock-derived trace.* values never enter a snapshot (or a resumed
  // registry) and cadence-off byte-compare harnesses stay exact.
  if (trace_ != nullptr && config_.metrics != nullptr) {
    auto& m = *config_.metrics;
    m.gauge("trace.events_recorded")
        .set(static_cast<double>(trace_->events_recorded()));
    m.gauge("trace.events_dropped")
        .set(static_cast<double>(trace_->events_dropped()));
    m.gauge("trace.queue_depth_hwm").set(static_cast<double>(queue_depth_hwm_));
    m.gauge("trace.merge_wait_skew_s").set(merge_wait_skew_s_);
    // Wheel/arena internals are thread-count-dependent (per-shard queues
    // rebase independently; record arenas exist only when sharded), so they
    // live in the quarantined trace.* namespace like the other
    // wall-clock-adjacent values.
    m.gauge("trace.wheel_rebases").set(static_cast<double>(wheel_rebases_));
    m.gauge("trace.arena_resident_bytes")
        .set(static_cast<double>(arena_.resident_bytes()));
    m.gauge("trace.record_buffer_peak_bytes")
        .set(static_cast<double>(record_buffer_peak_bytes_));
    if (!shard_busy_s_.empty() && window_wall_s_ > 0.0) {
      const auto [lo, hi] =
          std::minmax_element(shard_busy_s_.begin(), shard_busy_s_.end());
      m.gauge("trace.shard_busy_frac_min").set(*lo / window_wall_s_);
      m.gauge("trace.shard_busy_frac_max").set(*hi / window_wall_s_);
    }
  }
  if (trace_ != nullptr) trace_->write(config_.trace_path);
  beat(interrupted_ ? "interrupted" : "done", last_time_, /*force=*/true);
}

void Engine::count_wake(stats::SimTime time, std::size_t pending) {
  ++wakes_;
  last_time_ = time;
  obs::EngineProbe* probe = config_.probe;
  if (probe != nullptr && probe->due(time)) {
    // +1: the popped event is still in flight at the sample instant.
    probe->on_tick(time, pending + 1, wakes_);
  }
}

template <typename Sink>
void Engine::run_shard_window(Shard& shard, EventQueue& queue, Sink& sink,
                              stats::SimTime stop) {
  // At K>1 the records are buffered, and the merge replays them in global
  // order; at K=1 this queue is the global queue and the sink is the fan-out.
  constexpr bool kBuffered = std::is_same_v<Sink, RecordBuffer>;
  ScanScratch scan_scratch;
  AgentContext ctx;
  ctx.world = &world_;
  ctx.selector = &selector_;
  ctx.outcomes = &shard.outcomes;
  ctx.sink = &sink;
  ctx.scan_scratch = &scan_scratch;

  // Shard-thread-side telemetry: this thread is the sole writer of
  // shard.track and of the shard's busy/hwm fields; the pool.wait() that
  // ends the window publishes them to the merge thread.
  const std::int64_t t0 = shard.trace != nullptr ? shard.trace->now_ns() : 0;
  const std::uint64_t wakes_before = shard.wakes;
  if (shard.trace != nullptr && queue.size() > shard.queue_hwm) {
    shard.queue_hwm = queue.size();
  }

  while (!queue.empty() && *queue.next_time() <= stop) {
    const Event event = queue.pop();
    ++shard.wakes;
    if constexpr (!kBuffered) count_wake(event.time, queue.size());
    // Shards partition agents by index, so hydration targets disjoint
    // arena slots — no synchronization needed.
    auto& agent = arena_.agent(event.agent);
    const auto next = agent.on_wake(event.time, ctx);
    if constexpr (kBuffered) {
      sink.end_wake(event.agent, next ? *next : RecordBuffer::kNoNextWake);
    }
    if (next) queue.schedule(*next, event.agent);
  }

  if (shard.trace != nullptr) {
    const std::int64_t t1 = shard.trace->now_ns();
    shard.trace->complete(shard.track, obs::TraceCat::kShard, "shard_window",
                          t0, t1 - t0, "wakes",
                          static_cast<std::int64_t>(shard.wakes - wakes_before),
                          "sim_stop", stop);
    shard.busy_s += static_cast<double>(t1 - t0) * 1e-9;
  }
}

void Engine::run_windows(const std::vector<RecordSink*>& sinks,
                         std::size_t shard_count) {
  using Clock = std::chrono::steady_clock;
  const bool sharded = shard_count > 1;

  MultiSink fanout;
  for (auto* sink : sinks) fanout.add(sink);
  obs::EngineProbe* probe = config_.probe;
  if (probe != nullptr) {
    fanout.add(probe);
    if (!resumed_) {
      // Every agent holds exactly one pending event at the start.
      probe->begin_run(config_.faults, arena_.size());
    } else {
      // The probe trajectory was restored from the snapshot; only the
      // borrowed schedule pointer needs re-binding in this process.
      probe->rebind_faults(config_.faults);
    }
  }

  std::vector<Shard> shards;
  shards.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    shards.emplace_back(config_.outcomes, config_.faults, config_.metrics,
                        config_.congestion);
    if (trace_ != nullptr) {
      shards.back().trace = trace_.get();
      shards.back().track = obs::FlightRecorder::shard_track(s);
    }
  }
  obs::FlightRecorder* rec = trace_.get();
  constexpr std::uint32_t kTrack = obs::FlightRecorder::kEngineTrack;

  // Shard queues persist across windows: pending events carry over; only
  // the record arenas are drained per window. Initial schedule in
  // ascending agent index — the merge replay relies on this matching the
  // global order restricted to each shard. On resume the snapshot's
  // pending events (already in global pop order) re-partition the same
  // way. At K=1 shard 0's queue is the global queue; at K>1 the merge
  // replays the global order in `merged`.
  std::vector<EventQueue> shard_queues(shard_count);
  for (auto& queue : shard_queues) queue.reserve(arena_.size() / shard_count + 1);
  EventQueue merged;
  if (sharded) merged.reserve(arena_.size());
  const auto enqueue = [&](stats::SimTime time, AgentIndex agent) {
    shard_queues[agent % shard_count].schedule(time, agent);
    if (sharded) merged.schedule(time, agent);
  };
  if (!resumed_) {
    for (std::size_t i = 0; i < arena_.size(); ++i) {
      enqueue(arena_.first_wake(i), static_cast<AgentIndex>(i));
    }
  } else {
    for (const auto& [time, agent] : resume_events_) enqueue(time, agent);
  }
  EventQueue& global = sharded ? merged : shard_queues[0];

  const stats::SimTime horizon_end = stats::day_start(config_.horizon_days);
  const stats::SimTime cadence_s =
      config_.checkpoint_every_sim_hours > 0
          ? config_.checkpoint_every_sim_hours * stats::kSecondsPerHour
          : 0;
  stats::SimTime stop_time = -1;
  if (config_.stop_after_sim_hours > 0) {
    const stats::SimTime t = config_.stop_after_sim_hours * stats::kSecondsPerHour;
    if (t < horizon_end) stop_time = t;
  }
  faults::CongestionModel* congestion = config_.congestion;
  const stats::SimTime bucket_s =
      congestion != nullptr ? congestion->config().bucket_s : 0;

  // A window ends at the next midnight, or earlier at a cadence,
  // congestion-bucket or stop boundary — so one window buffers at most one
  // sim day of records per shard.
  const auto window_stop = [&](stats::SimTime start) {
    stats::SimTime stop = std::min(
        horizon_end, (start / stats::kSecondsPerDay + 1) * stats::kSecondsPerDay);
    if (cadence_s > 0) stop = std::min(stop, (start / cadence_s + 1) * cadence_s);
    if (bucket_s > 0) stop = std::min(stop, (start / bucket_s + 1) * bucket_s);
    if (stop_time >= 0) stop = std::min(stop, stop_time);
    return stop;
  };

  // Zero workers at K=1: submitted windows run inline in pool.wait().
  util::ThreadPool pool(sharded ? shard_count : 0);
  std::vector<double> busy_before(shard_count, 0.0);
  std::int64_t launch_ns = 0;
  // Start every shard on the window ending at `stop`, recording into its
  // buffer `slot` (K>1). Called only with no window in flight, so the busy
  // counters read here are quiescent.
  const auto launch = [&](stats::SimTime stop, std::size_t slot) {
    if (rec != nullptr) {
      for (std::size_t s = 0; s < shard_count; ++s) busy_before[s] = shards[s].busy_s;
      launch_ns = rec->now_ns();
    }
    for (std::size_t s = 0; s < shard_count; ++s) {
      Shard* shard = &shards[s];
      EventQueue* queue = &shard_queues[s];
      if (sharded) {
        pool.submit([this, shard, queue, slot, stop] {
          run_shard_window(*shard, *queue, shard->buffers[slot], stop);
        });
      } else {
        pool.submit([this, shard, queue, &fanout, stop] {
          run_shard_window(*shard, *queue, fanout, stop);
        });
      }
    }
  };

  // Two-stage pipeline over windows at K>1: while the pool runs window w+1
  // into one buffer slot, this thread replays window w out of the other.
  // At K=1 a window launched early simply runs at the next pool.wait().
  std::vector<RecordBuffer::Cursor> cursors(shard_count);
  stats::SimTime stop = window_stop(resumed_ ? resume_time_ : 0);
  std::size_t slot = 0;
  bool reached_horizon = false;
  launch(stop, slot);
  while (true) {
    pool.wait();
    if (rec != nullptr) {
      // The wait just quiesced the workers, so their busy counters are safe
      // to read: the skew is how long the fastest shard sat idle waiting
      // for the slowest this window.
      double lo = shards[0].busy_s - busy_before[0];
      double hi = lo;
      for (std::size_t s = 1; s < shard_count; ++s) {
        const double d = shards[s].busy_s - busy_before[s];
        lo = std::min(lo, d);
        hi = std::max(hi, d);
      }
      merge_wait_skew_s_ += hi - lo;
      const std::int64_t now = rec->now_ns();
      window_wall_s_ += static_cast<double>(now - launch_ns) * 1e-9;
      rec->complete(kTrack, obs::TraceCat::kMerge, "shard_fanout", launch_ns,
                    now - launch_ns, "sim_stop", stop);
    }

    // Absorbing the congestion ledgers, writing a snapshot and honouring a
    // stop or shutdown all need the shards parked at `stop`, so those
    // barriers drain the pipeline: the next window starts only after this
    // one is merged. Everywhere else it overlaps the merge.
    const bool drain = congestion != nullptr || stop >= horizon_end ||
                       (stop_time >= 0 && stop == stop_time) ||
                       (cadence_s > 0 && stop % cadence_s == 0) ||
                       ckpt::shutdown_requested();
    const stats::SimTime next_stop = window_stop(stop);
    if (!drain) launch(next_stop, slot ^ 1);

    if (sharded) {
      // --- Deterministic k-way merge of this window -------------------------
      // Rebuild the exact K=1 pop order by replaying the schedule: each
      // replayed wake re-schedules its recorded next wake at pop time,
      // reproducing the global seq assignment without re-running any agent.
      const auto merge_start = Clock::now();
      obs::TraceSpan merge_span(rec, kTrack, obs::TraceCat::kMerge, "merge");
      const std::uint64_t merge_wakes_before = wakes_;
      while (!merged.empty() && *merged.next_time() <= stop) {
        const Event event = merged.pop();
        count_wake(event.time, merged.size());
        const std::size_t s = event.agent % shard_count;
        const RecordBuffer& buffer = shards[s].buffers[slot];
        assert(buffer.peek_agent(cursors[s]) == event.agent);
        const stats::SimTime next = buffer.replay_wake(cursors[s], fanout);
        if (next != RecordBuffer::kNoNextWake) merged.schedule(next, event.agent);
      }
      merge_span.set_args("wakes",
                          static_cast<std::int64_t>(wakes_ - merge_wakes_before),
                          "sim_stop", stop);
      merge_span.close();
      merge_wall_s_ += std::chrono::duration<double>(Clock::now() - merge_start).count();

      for (std::size_t s = 0; s < shard_count; ++s) {
        // Every wake a shard processed this window must have been replayed
        // exactly once.
        assert(cursors[s].wake == shards[s].buffers[slot].wake_count());
        shards[s].buffers[slot].clear();
        cursors[s] = RecordBuffer::Cursor{};
      }
    }
    if (rec != nullptr && global.size() > queue_depth_hwm_) {
      queue_depth_hwm_ = global.size();
    }
    beat("run", stop);

    if (drain) {
      // Fold the shards' private attempt ledgers into the model and, on a
      // bucket boundary, roll the reject probabilities for the next bucket.
      // No window is in flight, so workers only ever see an immutable
      // model — and ledger addition is commutative, so the fixed shard
      // order cannot differ from the K=1 total.
      if (congestion != nullptr) {
        obs::TraceSpan absorb_span(rec, kTrack, obs::TraceCat::kCongestion,
                                   "congestion_merge");
        for (auto& shard : shards) congestion->absorb(shard.ledger);
        absorb_span.set_args(
            "pending", static_cast<std::int64_t>(congestion->pending_attempts()),
            "sim_stop", stop);
        if (stop % bucket_s == 0) congestion->roll_to(stop);
      }

      // Shutdown requests are honoured at drained barriers only — mid-window
      // (or with the next window in flight) the shard agents have advanced
      // past the merge point, so a drained barrier is the only consistent
      // snapshot state.
      if ((stop_time >= 0 && stop == stop_time) || ckpt::shutdown_requested()) {
        interrupted_ = true;
        break;
      }
      if (stop >= horizon_end) {
        reached_horizon = true;
        break;
      }
      // Congestion bucket and midnight boundaries subdivide cadence
      // windows; only cadence multiples get a snapshot.
      if (cadence_s > 0 && stop % cadence_s == 0) {
        if (config_.metrics != nullptr) {
          // Snapshot the registry an unsharded run would have at this
          // barrier: main contents plus every shard's delta so far.
          obs::MetricsRegistry barrier_view = *config_.metrics;
          for (const auto& shard : shards) barrier_view.merge_from(shard.metrics);
          write_checkpoint(stop, global, &barrier_view);
        } else {
          write_checkpoint(stop, global, nullptr);
        }
      }
      launch(next_stop, slot ^ 1);
    }
    stop = next_stop;
    slot ^= 1;
  }

  if (reached_horizon) {
    // The final probe sample is taken after popping (and discarding) the
    // first beyond-horizon event; its queue depth is part of the probe
    // trajectory the golden digests pin.
    if (!global.empty()) global.pop();
    if (probe != nullptr) probe->end_run(last_time_, global.size(), wakes_);
  }

  shard_wakes_.resize(shard_count);
  wheel_rebases_ = merged.rebases();
  for (std::size_t s = 0; s < shard_count; ++s) {
    shard_wakes_[s] = shards[s].wakes;
    wheel_rebases_ += shard_queues[s].rebases();
    for (const auto& buffer : shards[s].buffers) {
      record_buffer_peak_bytes_ += buffer.resident_bytes();
    }
    if (config_.metrics != nullptr) config_.metrics->merge_from(shards[s].metrics);
  }
  if (trace_ != nullptr) {
    shard_busy_s_.resize(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      shard_busy_s_[s] = shards[s].busy_s;
      if (shards[s].queue_hwm > queue_depth_hwm_) {
        queue_depth_hwm_ = shards[s].queue_hwm;
      }
    }
  }

  if (interrupted_) {
    // Shard deltas were folded into the main registry above, so the main
    // registry IS the barrier view.
    write_checkpoint(stop, global, config_.metrics);
  }
}

void Engine::finish_run_metrics() {
  if (config_.metrics == nullptr) return;
  config_.metrics->counter("engine.wakes").inc(wakes_);
  config_.metrics->counter("engine.runs").inc();
  config_.metrics->gauge("engine.agents").set_max(static_cast<double>(arena_.size()));
  // Thread-invariant: the set of agents that ever woke is fixed by the
  // schedule, not the shard count (a full run hydrates every agent; an
  // interrupted one defers this gauge to the resumed process, which ends
  // with the same hydration set an uninterrupted run would have).
  config_.metrics->gauge("engine.arena_hydrated")
      .set_max(static_cast<double>(arena_.hydrated_count()));
  config_.metrics->gauge("engine.horizon_days")
      .set(static_cast<double>(config_.horizon_days));
}

}  // namespace wtr::sim
