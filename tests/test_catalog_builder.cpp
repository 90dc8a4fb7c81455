#include "core/catalog_builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/rng.hpp"

namespace wtr::core {
namespace {

const cellnet::Plmn kObserver{234, 10, 2};
const cellnet::Plmn kMvno{235, 50, 2};
const cellnet::Plmn kForeign{204, 4, 2};

CatalogAccumulator make_accumulator() {
  return CatalogAccumulator{{kObserver, {kObserver, kMvno}}};
}

signaling::SignalingTransaction txn(signaling::DeviceHash device, stats::SimTime time,
                                    cellnet::Plmn sim, cellnet::Plmn visited,
                                    signaling::ResultCode result = signaling::ResultCode::kOk,
                                    cellnet::Rat rat = cellnet::Rat::kTwoG) {
  signaling::SignalingTransaction t;
  t.device = device;
  t.time = time;
  t.sim_plmn = sim;
  t.visited_plmn = visited;
  t.procedure = signaling::Procedure::kAuthentication;
  t.result = result;
  t.rat = rat;
  t.tac = 35'000'001;
  return t;
}

TEST(CatalogAccumulator, RadioEventsRequireObserverNetwork) {
  auto acc = make_accumulator();
  acc.on_signaling(txn(1, 10, kForeign, kObserver), true);   // inbound: kept
  acc.on_signaling(txn(2, 10, kObserver, kForeign), true);   // outbound radio: dropped
  EXPECT_EQ(acc.accepted_records(), 1u);
  const auto catalog = acc.finalize();
  ASSERT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.records().front().device, 1u);
}

TEST(CatalogAccumulator, CdrXdrVisibleForFamilyAbroad) {
  auto acc = make_accumulator();
  records::Cdr cdr;
  cdr.device = 3;
  cdr.time = 20;
  cdr.sim_plmn = kMvno;      // family SIM
  cdr.visited_plmn = kForeign;  // abroad
  cdr.duration_s = 30.0;
  cdr.rat = cellnet::Rat::kThreeG;
  acc.on_cdr(cdr);

  records::Cdr foreign_cdr = cdr;
  foreign_cdr.device = 4;
  foreign_cdr.sim_plmn = kForeign;  // foreign SIM abroad: invisible
  acc.on_cdr(foreign_cdr);

  const auto catalog = acc.finalize();
  ASSERT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.records().front().device, 3u);
  EXPECT_EQ(catalog.records().front().calls, 1u);
  EXPECT_TRUE(catalog.records().front().voice_rats.has(cellnet::Rat::kThreeG));
}

TEST(CatalogAccumulator, XdrAggregatesBytesAndApns) {
  auto acc = make_accumulator();
  records::Xdr xdr;
  xdr.device = 5;
  xdr.time = 100;
  xdr.sim_plmn = kForeign;
  xdr.visited_plmn = kObserver;
  xdr.bytes_up = 10;
  xdr.bytes_down = 90;
  xdr.apn = "smhp.centricaplc.com.mnc004.mcc204.gprs";
  xdr.rat = cellnet::Rat::kTwoG;
  acc.on_xdr(xdr);
  acc.on_xdr(xdr);  // same APN again: bytes add, APN deduplicates

  const auto catalog = acc.finalize();
  ASSERT_EQ(catalog.size(), 1u);
  const auto& record = catalog.records().front();
  EXPECT_EQ(record.bytes, 200u);
  ASSERT_EQ(record.apns.size(), 1u);
  EXPECT_TRUE(record.data_rats.has(cellnet::Rat::kTwoG));
}

TEST(CatalogAccumulator, FailedEventsDontSetRadioFlags) {
  auto acc = make_accumulator();
  acc.on_signaling(txn(6, 10, kForeign, kObserver,
                       signaling::ResultCode::kRoamingNotAllowed, cellnet::Rat::kFourG),
                   true);
  const auto catalog = acc.finalize();
  ASSERT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.records().front().failed_events, 1u);
  EXPECT_TRUE(catalog.records().front().radio_flags.none());
}

TEST(CatalogAccumulator, SplitsByDay) {
  auto acc = make_accumulator();
  acc.on_signaling(txn(7, 10, kForeign, kObserver), true);
  acc.on_signaling(txn(7, stats::kSecondsPerDay + 10, kForeign, kObserver), true);
  const auto catalog = acc.finalize();
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.records()[0].day, 0);
  EXPECT_EQ(catalog.records()[1].day, 1);
}

TEST(CatalogAccumulator, DwellOnlyRecordsAreDropped) {
  auto acc = make_accumulator();
  acc.on_dwell(8, 0, kObserver, cellnet::GeoPoint{51.5, 0.0}, 600.0);
  EXPECT_EQ(acc.finalize().size(), 0u);
}

TEST(CatalogAccumulator, DwellAttachesMobilityMetrics) {
  auto acc = make_accumulator();
  acc.on_signaling(txn(9, 10, kForeign, kObserver), true);
  acc.on_dwell(9, 0, kObserver, cellnet::GeoPoint{51.5, 0.0}, 600.0);
  acc.on_dwell(9, 0, kObserver, cellnet::GeoPoint{51.52, 0.0}, 600.0);
  // Foreign-network dwell is invisible to the observer.
  acc.on_dwell(9, 0, kForeign, cellnet::GeoPoint{40.0, 0.0}, 600.0);
  const auto catalog = acc.finalize();
  ASSERT_EQ(catalog.size(), 1u);
  const auto& record = catalog.records().front();
  ASSERT_TRUE(record.has_position);
  EXPECT_GT(record.gyration_m, 500.0);
  EXPECT_LT(record.gyration_m, 2'500.0);
  EXPECT_NEAR(record.centroid.lat, 51.51, 0.01);
}

TEST(CatalogAccumulator, FinalizeOrdersDeterministically) {
  auto acc = make_accumulator();
  acc.on_signaling(txn(20, stats::kSecondsPerDay + 1, kForeign, kObserver), true);
  acc.on_signaling(txn(10, 5, kForeign, kObserver), true);
  acc.on_signaling(txn(20, 5, kForeign, kObserver), true);
  const auto catalog = acc.finalize();
  ASSERT_EQ(catalog.size(), 3u);
  EXPECT_EQ(catalog.records()[0].device, 10u);
  EXPECT_EQ(catalog.records()[1].device, 20u);
  EXPECT_EQ(catalog.records()[1].day, 0);
  EXPECT_EQ(catalog.records()[2].day, 1);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Field-by-field row equality; doubles must match bit for bit.
void expect_same_rows(const records::DevicesCatalog& a, const records::DevicesCatalog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.records()[i];
    const auto& y = b.records()[i];
    SCOPED_TRACE("row " + std::to_string(i) + " device " + std::to_string(x.device) +
                 " day " + std::to_string(x.day));
    EXPECT_EQ(x.device, y.device);
    EXPECT_EQ(x.day, y.day);
    EXPECT_EQ(x.sim_plmn, y.sim_plmn);
    EXPECT_EQ(x.visited_plmns, y.visited_plmns);
    EXPECT_EQ(x.signaling_events, y.signaling_events);
    EXPECT_EQ(x.failed_events, y.failed_events);
    EXPECT_EQ(x.calls, y.calls);
    EXPECT_EQ(bits(x.call_seconds), bits(y.call_seconds));
    EXPECT_EQ(x.bytes, y.bytes);
    EXPECT_EQ(x.apns, y.apns);
    EXPECT_EQ(x.tac, y.tac);
    EXPECT_EQ(x.radio_flags.bits(), y.radio_flags.bits());
    EXPECT_EQ(x.data_rats.bits(), y.data_rats.bits());
    EXPECT_EQ(x.voice_rats.bits(), y.voice_rats.bits());
    EXPECT_EQ(bits(x.centroid.lat), bits(y.centroid.lat));
    EXPECT_EQ(bits(x.centroid.lon), bits(y.centroid.lon));
    EXPECT_EQ(bits(x.gyration_m), bits(y.gyration_m));
    EXPECT_EQ(x.has_position, y.has_position);
  }
}

/// One raw record of any of the four streams a RecordSink receives.
struct RawRecord {
  enum class Kind { kSignaling, kCdr, kXdr, kDwell } kind = Kind::kSignaling;
  signaling::SignalingTransaction txn{};
  records::Cdr cdr{};
  records::Xdr xdr{};
  signaling::DeviceHash device = 0;  // dwell
  std::int32_t day = 0;              // dwell
  cellnet::Plmn visited{};           // dwell
  cellnet::GeoPoint location{};      // dwell
  double seconds = 0.0;              // dwell
};

RawRecord signaling_record(signaling::DeviceHash device, stats::SimTime time,
                           cellnet::Tac tac) {
  RawRecord r;
  r.txn = txn(device, time, kForeign, kObserver);
  r.txn.tac = tac;
  return r;
}

RawRecord dwell_record(signaling::DeviceHash device, std::int32_t day,
                       cellnet::GeoPoint location, double seconds) {
  RawRecord r;
  r.kind = RawRecord::Kind::kDwell;
  r.device = device;
  r.day = day;
  r.visited = kObserver;
  r.location = location;
  r.seconds = seconds;
  return r;
}

records::DevicesCatalog build(const std::vector<RawRecord>& stream) {
  auto acc = make_accumulator();
  for (const auto& r : stream) {
    switch (r.kind) {
      case RawRecord::Kind::kSignaling:
        acc.on_signaling(r.txn, true);
        break;
      case RawRecord::Kind::kCdr:
        acc.on_cdr(r.cdr);
        break;
      case RawRecord::Kind::kXdr:
        acc.on_xdr(r.xdr);
        break;
      case RawRecord::Kind::kDwell:
        acc.on_dwell(r.device, r.day, r.visited, r.location, r.seconds);
        break;
    }
  }
  return acc.finalize();
}

TEST(CatalogAccumulator, LateRecordsMatchDayOrder) {
  constexpr signaling::DeviceHash kDevice = 40;
  const auto s3 = signaling_record(kDevice, stats::day_start(3) + 60, 111);
  const auto s1 = signaling_record(kDevice, stats::day_start(1) + 60, 333);
  // Day 2 in arrival order: the last non-zero TAC (222) must win and the
  // dwell must fold in this order.
  std::vector<RawRecord> day2 = {
      dwell_record(kDevice, 2, {51.50, -0.10}, 300.0),
      signaling_record(kDevice, stats::day_start(2) + 100, 999),
      dwell_record(kDevice, 2, {51.53, -0.05}, 900.0),
      signaling_record(kDevice, stats::day_start(2) + 200, 222),
      signaling_record(kDevice, stats::day_start(2) + 300, 0),
      dwell_record(kDevice, 2, {51.47, -0.12}, 450.0),
  };
  RawRecord xdr;
  xdr.kind = RawRecord::Kind::kXdr;
  xdr.xdr.device = kDevice;
  xdr.xdr.time = stats::day_start(2) + 400;
  xdr.xdr.sim_plmn = kForeign;
  xdr.xdr.visited_plmn = kObserver;
  xdr.xdr.bytes_down = 1'000;
  xdr.xdr.apn = "b.example.mnc004.mcc204.gprs";
  day2.push_back(xdr);
  xdr.xdr.apn = "a.example.mnc004.mcc204.gprs";
  day2.push_back(xdr);
  RawRecord cdr;
  cdr.kind = RawRecord::Kind::kCdr;
  cdr.cdr.device = kDevice;
  cdr.cdr.time = stats::day_start(2) + 500;
  cdr.cdr.sim_plmn = kMvno;
  cdr.cdr.visited_plmn = kForeign;
  cdr.cdr.duration_s = 12.3;
  day2.push_back(cdr);
  cdr.cdr.duration_s = 0.1;
  day2.push_back(cdr);

  std::vector<RawRecord> in_day_order = {s1};
  in_day_order.insert(in_day_order.end(), day2.begin(), day2.end());
  in_day_order.push_back(s3);
  const auto expected = build(in_day_order);
  ASSERT_EQ(expected.size(), 3u);
  const auto& row2 = expected.records()[1];
  EXPECT_EQ(row2.day, 2);
  EXPECT_EQ(row2.tac, 222u);
  EXPECT_TRUE(row2.has_position);
  EXPECT_GT(row2.gyration_m, 0.0);
  EXPECT_EQ(row2.apns.size(), 2u);
  EXPECT_EQ(row2.visited_plmns.size(), 2u);

  // Day 3 first, then all of day 2, then day 1: every earlier day is late.
  std::vector<RawRecord> late = {s3};
  late.insert(late.end(), day2.begin(), day2.end());
  late.push_back(s1);
  expect_same_rows(build(late), expected);

  // Day 2 opens, day 3 closes it, and the rest of day 2 arrives late.
  std::vector<RawRecord> reopened = {s1, day2[0], day2[1], s3};
  reopened.insert(reopened.end(), day2.begin() + 2, day2.end());
  expect_same_rows(build(reopened), expected);
}

/// A generated multi-device stream in engine order: per device, wakes in
/// time order, each flushing the dwell since the previous wake (split at
/// midnight) before its signaling, CDRs and xDRs.
std::vector<RawRecord> generate_engine_stream(std::uint64_t seed) {
  stats::Rng rng{seed};
  const std::vector<cellnet::Plmn> sims = {kForeign, kMvno, kObserver};
  const std::vector<cellnet::Plmn> visiteds = {kObserver, kObserver, kForeign};
  const std::vector<std::string> apns = {"a.example.gprs", "m2m.example.mnc004.mcc204.gprs",
                                         "iot.example.mnc050.mcc235.gprs"};
  struct Wake {
    stats::SimTime time;
    signaling::DeviceHash device;
  };
  std::vector<Wake> wakes;
  for (signaling::DeviceHash device = 1; device <= 30; ++device) {
    for (int i = 0; i < 40; ++i) {
      wakes.push_back({static_cast<stats::SimTime>(rng.below(6 * stats::kSecondsPerDay)),
                       device * 7919});
    }
  }
  std::sort(wakes.begin(), wakes.end(), [](const Wake& a, const Wake& b) {
    return a.time != b.time ? a.time < b.time : a.device < b.device;
  });

  std::vector<RawRecord> stream;
  std::vector<stats::SimTime> dwell_since(31 * 7919, -1);
  for (const auto& wake : wakes) {
    const auto index = static_cast<std::size_t>(wake.device);
    const auto sim = sims[wake.device % sims.size()];
    const auto visited = visiteds[rng.below(visiteds.size())];
    const cellnet::GeoPoint here{51.0 + rng.uniform(0.0, 0.2), rng.uniform(-0.2, 0.2)};
    for (auto from = dwell_since[index]; from >= 0 && from < wake.time;) {
      const auto day = stats::day_of(from);
      const auto to = std::min(wake.time, stats::day_start(day + 1));
      stream.push_back(dwell_record(wake.device, day, here, static_cast<double>(to - from)));
      stream.back().visited = visited;
      from = to;
    }
    dwell_since[index] = wake.time;
    for (auto n = rng.below(3); n-- > 0;) {
      auto r = signaling_record(wake.device, wake.time,
                                rng.bernoulli(0.3) ? 0 : 35'000'000 + rng.below(3));
      r.txn.sim_plmn = sim;
      r.txn.visited_plmn = visited;
      stream.push_back(r);
    }
    if (rng.bernoulli(0.3)) {
      RawRecord r;
      r.kind = RawRecord::Kind::kCdr;
      r.cdr.device = wake.device;
      r.cdr.time = wake.time;
      r.cdr.sim_plmn = sim;
      r.cdr.visited_plmn = visited;
      r.cdr.duration_s = rng.uniform(1.0, 300.0);
      stream.push_back(r);
    }
    for (auto n = rng.below(3); n-- > 0;) {
      RawRecord r;
      r.kind = RawRecord::Kind::kXdr;
      r.xdr.device = wake.device;
      r.xdr.time = wake.time;
      r.xdr.sim_plmn = sim;
      r.xdr.visited_plmn = visited;
      r.xdr.bytes_up = rng.below(5'000);
      r.xdr.apn = apns[rng.below(apns.size())];
      stream.push_back(r);
    }
  }
  return stream;
}

/// The same records regrouped the way trace replay feeds them: all
/// signaling, then all CDRs, then all xDRs, then the dwell, each stream in
/// its original relative order.
std::vector<RawRecord> per_stream_order(const std::vector<RawRecord>& stream) {
  std::vector<RawRecord> out;
  for (const auto kind : {RawRecord::Kind::kSignaling, RawRecord::Kind::kCdr,
                          RawRecord::Kind::kXdr, RawRecord::Kind::kDwell}) {
    for (const auto& r : stream) {
      if (r.kind == kind) out.push_back(r);
    }
  }
  return out;
}

TEST(CatalogAccumulator, EngineAndPerStreamOrderGiveIdenticalCatalogs) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto stream = generate_engine_stream(seed);
    const auto engine_order = build(stream);
    ASSERT_GT(engine_order.size(), 100u);
    expect_same_rows(build(per_stream_order(stream)), engine_order);
  }
}

TEST(DevicesCatalog, IndexAndSpan) {
  records::DevicesCatalog catalog;
  records::DailyDeviceRecord r1;
  r1.device = 1;
  r1.day = 3;
  records::DailyDeviceRecord r2;
  r2.device = 1;
  r2.day = 1;
  records::DailyDeviceRecord r3;
  r3.device = 2;
  r3.day = 2;
  catalog.add(r1);
  catalog.add(r2);
  catalog.add(r3);
  EXPECT_EQ(catalog.distinct_devices(), 2u);
  EXPECT_EQ(catalog.day_span(), (std::pair<std::int32_t, std::int32_t>{1, 3}));
  const auto of_one = catalog.of_device(1);
  ASSERT_EQ(of_one.size(), 2u);
  EXPECT_EQ(of_one[0]->day, 1);
  EXPECT_EQ(of_one[1]->day, 3);
  EXPECT_TRUE(catalog.of_device(99).empty());
}

TEST(DailyDeviceRecord, RoamedInternationally) {
  records::DailyDeviceRecord record;
  record.sim_plmn = kForeign;
  record.visited_plmns = {kObserver};
  EXPECT_TRUE(record.roamed_internationally());
  record.sim_plmn = kObserver;
  EXPECT_FALSE(record.roamed_internationally());
}

TEST(Summarize, RollsUpAcrossDays) {
  auto acc = make_accumulator();
  acc.on_signaling(txn(30, 10, kForeign, kObserver), true);
  acc.on_signaling(txn(30, stats::kSecondsPerDay + 10, kForeign, kObserver,
                       signaling::ResultCode::kNetworkFailure),
                   true);
  records::Xdr xdr;
  xdr.device = 30;
  xdr.time = 20;
  xdr.sim_plmn = kForeign;
  xdr.visited_plmn = kObserver;
  xdr.bytes_up = 50;
  xdr.apn = "a.b";
  acc.on_xdr(xdr);

  const auto catalog = acc.finalize();
  const auto summaries = summarize(catalog);
  ASSERT_EQ(summaries.size(), 1u);
  const auto& s = summaries.front();
  EXPECT_EQ(s.device, 30u);
  EXPECT_EQ(s.active_days, 2u);
  EXPECT_EQ(s.first_day, 0);
  EXPECT_EQ(s.last_day, 1);
  EXPECT_EQ(s.signaling_events, 2u);
  EXPECT_EQ(s.failed_events, 1u);
  EXPECT_EQ(s.bytes, 50u);
  EXPECT_DOUBLE_EQ(s.signaling_per_day(), 1.0);
  EXPECT_TRUE(s.attached_to(kObserver));
  EXPECT_FALSE(s.attached_to(kForeign));
  EXPECT_EQ(s.tac, 35'000'001u);
}

TEST(Summarize, EmptyCatalog) {
  records::DevicesCatalog catalog;
  EXPECT_TRUE(summarize(catalog).empty());
  EXPECT_EQ(catalog.day_span(), (std::pair<std::int32_t, std::int32_t>{0, -1}));
}

}  // namespace
}  // namespace wtr::core
