// Determinism and cross-scenario invariants: identical seeds must replay
// identical traces; different seeds must not.

#include <gtest/gtest.h>

#include "core/catalog_builder.hpp"
#include "core/platform_analysis.hpp"
#include "tracegen/m2m_platform_scenario.hpp"
#include "tracegen/mno_scenario.hpp"
#include "tracegen/smip_scenario.hpp"

#include "record_stream.hpp"

namespace wtr {
namespace {

/// The full serialized record stream of one run; bit-exact equality of two
/// of these is the determinism claim.
template <typename Scenario>
std::string stream_of(Scenario& scenario) {
  test::StreamSerializer sink;
  scenario.run({&sink});
  return std::move(sink.stream);
}

std::string run_mno(std::uint64_t seed) {
  tracegen::MnoScenarioConfig config;
  config.seed = seed;
  config.total_devices = 800;
  config.build_coverage = false;  // faster; determinism is what we test
  tracegen::MnoScenario scenario{config};
  return stream_of(scenario);
}

// Streams are compared as bools: a gtest diff of two multi-megabyte streams
// helps nobody.
TEST(Determinism, MnoScenarioReplays) {
  const auto stream = run_mno(42);
  ASSERT_FALSE(stream.empty());
  EXPECT_TRUE(stream == run_mno(42));
}

TEST(Determinism, MnoScenarioSeedSensitivity) {
  EXPECT_TRUE(run_mno(42) != run_mno(43));
}

std::string run_platform(std::uint64_t seed) {
  tracegen::M2MPlatformConfig config;
  config.seed = seed;
  config.total_devices = 800;
  tracegen::M2MPlatformScenario scenario{config};
  return stream_of(scenario);
}

TEST(Determinism, PlatformScenarioReplays) {
  const auto stream = run_platform(7);
  ASSERT_FALSE(stream.empty());
  EXPECT_TRUE(stream == run_platform(7));
}

TEST(Determinism, PlatformSeedSensitivity) {
  EXPECT_TRUE(run_platform(7) != run_platform(8));
}

TEST(Determinism, SmipScenarioReplays) {
  auto run = [](std::uint64_t seed) {
    tracegen::SmipScenarioConfig config;
    config.seed = seed;
    config.total_devices = 600;
    config.build_coverage = false;
    tracegen::SmipScenario scenario{config};
    return stream_of(scenario);
  };
  const auto stream = run(9);
  ASSERT_FALSE(stream.empty());
  EXPECT_TRUE(stream == run(9));
  EXPECT_TRUE(stream != run(10));
}

TEST(ScenarioInvariants, GroundTruthCoversAllDevices) {
  tracegen::MnoScenarioConfig config;
  config.total_devices = 500;
  config.build_coverage = false;
  tracegen::MnoScenario scenario{config};
  EXPECT_EQ(scenario.ground_truth().size(), scenario.device_count());
  for (const auto& [device, entry] : scenario.ground_truth()) {
    EXPECT_NE(device, 0u);
    EXPECT_NE(entry.home_operator, topology::kInvalidOperator);
  }
}

TEST(ScenarioInvariants, PlatformDevicesAreAllM2M) {
  tracegen::M2MPlatformConfig config;
  config.total_devices = 500;
  tracegen::M2MPlatformScenario scenario{config};
  for (const auto& [_, entry] : scenario.ground_truth()) {
    EXPECT_EQ(entry.device_class, devices::DeviceClass::kM2M);
  }
}

TEST(ScenarioInvariants, SmipMembershipPartitions) {
  tracegen::SmipScenarioConfig config;
  config.total_devices = 400;
  config.build_coverage = false;
  tracegen::SmipScenario scenario{config};
  EXPECT_EQ(scenario.native_meters().size() + scenario.roaming_meters().size(),
            scenario.device_count());
  for (const auto hash : scenario.native_meters()) {
    EXPECT_FALSE(scenario.roaming_meters().contains(hash));
  }
}

TEST(ScenarioInvariants, MultipleSinksSeeSameStream) {
  tracegen::MnoScenarioConfig config;
  config.total_devices = 300;
  config.build_coverage = false;
  tracegen::MnoScenario scenario{config};
  test::StreamSerializer a;
  test::StreamSerializer b;
  scenario.run({&a, &b});
  ASSERT_FALSE(a.stream.empty());
  EXPECT_TRUE(a.stream == b.stream);
}

TEST(ScenarioInvariants, ScaleChangesDeviceCountRoughlyLinearly) {
  tracegen::MnoScenarioConfig small;
  small.total_devices = 400;
  small.build_coverage = false;
  tracegen::MnoScenarioConfig big = small;
  big.total_devices = 800;
  const tracegen::MnoScenario s{small};
  const tracegen::MnoScenario b{big};
  const double ratio =
      static_cast<double>(b.device_count()) / static_cast<double>(s.device_count());
  EXPECT_NEAR(ratio, 2.0, 0.4);
}

}  // namespace
}  // namespace wtr
