#pragma once

// The byte-exact record stream the determinism suites compare: every
// signaling, CDR, xDR and dwell record a run emits, one line each, with
// doubles rendered as %a so string equality means bit equality. Its
// checkpointed state is the stream length, so a resumed run truncates back
// to the snapshot point and appends from there, like a persisted trace file.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "records/cdr.hpp"
#include "records/xdr.hpp"
#include "signaling/transaction.hpp"
#include "sim/device_agent.hpp"

namespace wtr::test {

inline std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);  // bit-exact round trip
  return buf;
}

class StreamSerializer final : public sim::RecordSink, public ckpt::Checkpointable {
 public:
  std::string stream;
  stats::SimTime last_signaling_time = -1;

  void on_signaling(const signaling::SignalingTransaction& txn,
                    bool data_context) override {
    last_signaling_time = txn.time;
    line("S:", signaling::to_csv_fields(txn), data_context ? "dc\n" : "-\n");
  }
  void on_cdr(const records::Cdr& cdr) override {
    line("C:", records::to_csv_fields(cdr), "\n");
  }
  void on_xdr(const records::Xdr& xdr) override {
    line("X:", records::to_csv_fields(xdr), "\n");
  }
  void on_dwell(signaling::DeviceHash device, std::int32_t day, cellnet::Plmn visited_plmn,
                const cellnet::GeoPoint& location, double seconds) override {
    stream += "D:" + std::to_string(device) + ',' + std::to_string(day) + ',' +
              std::to_string(visited_plmn.key()) + ',' + hex_double(location.lat) + ',' +
              hex_double(location.lon) + ',' + hex_double(seconds) + '\n';
  }

  void save_state(util::BinWriter& out) const override { out.u64(stream.size()); }
  void restore_state(util::BinReader& in) override {
    const auto size = in.u64();
    if (size > stream.size()) {
      throw std::runtime_error("stream shorter than checkpointed offset");
    }
    stream.resize(size);
  }

 private:
  /// `tag`, then each field followed by a comma, then `end`.
  void line(const char* tag, const std::vector<std::string>& fields, const char* end) {
    stream += tag;
    for (const auto& field : fields) {
      stream += field;
      stream += ',';
    }
    stream += end;
  }
};

/// Number of records of one family ('S', 'C', 'X' or 'D') in a stream.
inline std::size_t count_records(const std::string& stream, char family) {
  std::size_t count = stream.starts_with(std::string{family, ':'}) ? 1 : 0;
  const std::string line_start{'\n', family, ':'};
  for (auto at = stream.find(line_start); at != std::string::npos;
       at = stream.find(line_start, at + 1)) {
    ++count;
  }
  return count;
}

}  // namespace wtr::test
