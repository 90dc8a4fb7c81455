#pragma once

// Per-shard record arena for the sharded engine. A shard's event loop
// streams every emitted record into one of these instead of the real sinks;
// the deterministic merge then replays each buffered wake into the sinks in
// the exact single-threaded global order.
//
// Layout: a type tape plus one dense vector per record family (cheaper than
// a variant arena — the tape is one byte per record and each family stays
// contiguous). Wake boundaries are closed by end_wake(), which also stores
// the agent's next scheduled wake time — the merge uses it to rebuild the
// global schedule without touching the agents again.
//
// Replay is strictly sequential per shard: within one shard, the relative
// order of two same-time wakes is the same under the shard-local and the
// global (time, seq) orders (their tie-breaking parents live in the same
// shard, by induction down to the agent-index-ordered initial schedule), so
// a single monotone cursor per shard suffices.

#include <cstdint>
#include <vector>

#include "sim/device_agent.hpp"
#include "sim/event_queue.hpp"

namespace wtr::sim {

class RecordBuffer final : public RecordSink {
 public:
  /// Sentinel "agent finished" next-wake value stored by end_wake().
  static constexpr stats::SimTime kNoNextWake = -1;

  struct BufferedSignaling {
    signaling::SignalingTransaction txn;
    bool data_context = false;
  };
  struct BufferedDwell {
    signaling::DeviceHash device = 0;
    std::int32_t day = 0;
    cellnet::Plmn visited_plmn{};
    cellnet::GeoPoint location{};
    double seconds = 0.0;
  };

  /// Monotone replay position; value-initialized state replays from the
  /// first buffered wake.
  struct Cursor {
    std::size_t wake = 0;
    std::size_t tape = 0;
    std::size_t signaling = 0;
    std::size_t cdr = 0;
    std::size_t xdr = 0;
    std::size_t dwell = 0;
  };

  // --- recording side (shard thread) ---------------------------------------
  void on_signaling(const signaling::SignalingTransaction& txn,
                    bool data_context) override {
    tape_.push_back(Kind::kSignaling);
    signaling_.push_back(BufferedSignaling{txn, data_context});
  }
  void on_cdr(const records::Cdr& cdr) override {
    tape_.push_back(Kind::kCdr);
    cdrs_.push_back(cdr);
  }
  void on_xdr(const records::Xdr& xdr) override {
    tape_.push_back(Kind::kXdr);
    xdrs_.push_back(xdr);
  }
  void on_dwell(signaling::DeviceHash device, std::int32_t day,
                cellnet::Plmn visited_plmn, const cellnet::GeoPoint& location,
                double seconds) override {
    tape_.push_back(Kind::kDwell);
    dwells_.push_back(BufferedDwell{device, day, visited_plmn, location, seconds});
  }

  /// Close the records of one processed wake: everything emitted since the
  /// previous end_wake() belongs to `agent`, whose next scheduled wake is
  /// `next_wake` (kNoNextWake when the agent is done).
  void end_wake(AgentIndex agent, stats::SimTime next_wake);

  /// Drop all buffered records and wake boundaries (capacity retained).
  /// The sharded engine calls this after replaying each window, so arena
  /// memory stays bounded by one window (at most one sim day) instead of
  /// the whole run.
  void clear() noexcept {
    tape_.clear();
    signaling_.clear();
    cdrs_.clear();
    xdrs_.clear();
    dwells_.clear();
    wakes_.clear();
  }

  // --- replay side (merge thread) ------------------------------------------
  [[nodiscard]] std::size_t wake_count() const noexcept { return wakes_.size(); }
  [[nodiscard]] std::size_t record_count() const noexcept { return tape_.size(); }

  /// Approximate bytes of arena storage held (capacities, so it reflects
  /// the high-water mark across windows — clear() retains capacity).
  /// Telemetry only.
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return tape_.capacity() * sizeof(Kind) +
           signaling_.capacity() * sizeof(BufferedSignaling) +
           cdrs_.capacity() * sizeof(records::Cdr) +
           xdrs_.capacity() * sizeof(records::Xdr) +
           dwells_.capacity() * sizeof(BufferedDwell) +
           wakes_.capacity() * sizeof(WakeEntry);
  }

  /// Agent owning the wake at the cursor (requires an unconsumed wake).
  [[nodiscard]] AgentIndex peek_agent(const Cursor& cursor) const {
    return wakes_[cursor.wake].agent;
  }

  /// Replay the records of the wake at the cursor into `out`, advance the
  /// cursor, and return the agent's next scheduled wake time (kNoNextWake
  /// when it has none).
  stats::SimTime replay_wake(Cursor& cursor, RecordSink& out) const;

 private:
  enum class Kind : std::uint8_t { kSignaling, kCdr, kXdr, kDwell };

  struct WakeEntry {
    std::size_t tape_end = 0;  // tape_ index one past this wake's records
    stats::SimTime next_wake = kNoNextWake;
    AgentIndex agent = 0;
  };

  std::vector<Kind> tape_;
  std::vector<BufferedSignaling> signaling_;
  std::vector<records::Cdr> cdrs_;
  std::vector<records::Xdr> xdrs_;
  std::vector<BufferedDwell> dwells_;
  std::vector<WakeEntry> wakes_;
};

}  // namespace wtr::sim
