#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "cellnet/country.hpp"
#include "topology/world.hpp"

namespace wtr::topology {
namespace {

cellnet::RatMask all_rats() { return cellnet::RatMask{0b111}; }

TEST(OperatorRegistry, AddAndLookup) {
  OperatorRegistry registry;
  const auto id = registry.add_mno(cellnet::Plmn{234, 10, 2}, "Test", "GB", all_rats());
  EXPECT_EQ(registry.get(id).name, "Test");
  EXPECT_EQ(registry.by_plmn(cellnet::Plmn{234, 10, 2}), id);
  EXPECT_FALSE(registry.by_plmn(cellnet::Plmn{214, 7, 2}).has_value());
}

TEST(OperatorRegistry, MvnoInheritsHost) {
  OperatorRegistry registry;
  const auto host = registry.add_mno(cellnet::Plmn{234, 10, 2}, "Host", "GB", all_rats());
  const auto mvno = registry.add_mvno(cellnet::Plmn{235, 50, 2}, "Virtual", host);
  EXPECT_EQ(registry.get(mvno).country_iso, "GB");
  EXPECT_EQ(registry.get(mvno).kind, OperatorKind::kMvno);
  EXPECT_EQ(registry.radio_network_of(mvno), host);
  EXPECT_EQ(registry.radio_network_of(host), host);
}

TEST(OperatorRegistry, MnosInCountryExcludesMvnos) {
  OperatorRegistry registry;
  const auto a = registry.add_mno(cellnet::Plmn{234, 10, 2}, "A", "GB", all_rats());
  registry.add_mvno(cellnet::Plmn{235, 50, 2}, "V", a);
  registry.add_mno(cellnet::Plmn{214, 1, 2}, "B", "ES", all_rats());
  const auto gb = registry.mnos_in_country("GB");
  ASSERT_EQ(gb.size(), 1u);
  EXPECT_EQ(gb.front(), a);
}

TEST(Agreements, DirectionalByDefault) {
  RoamingAgreementGraph graph;
  AgreementTerms terms{all_rats(), BreakoutType::kHomeRouted};
  graph.add(1, 2, terms);
  EXPECT_TRUE(graph.find(1, 2).has_value());
  EXPECT_FALSE(graph.find(2, 1).has_value());
}

TEST(Agreements, BilateralAddsBoth) {
  RoamingAgreementGraph graph;
  graph.add_bilateral(1, 2, AgreementTerms{all_rats(), BreakoutType::kLocalBreakout});
  EXPECT_TRUE(graph.find(1, 2).has_value());
  EXPECT_TRUE(graph.find(2, 1).has_value());
  EXPECT_EQ(graph.find(1, 2)->breakout, BreakoutType::kLocalBreakout);
}

TEST(Agreements, AllowsChecksRatScope) {
  RoamingAgreementGraph graph;
  AgreementTerms terms;
  terms.allowed_rats.set(cellnet::Rat::kTwoG);
  graph.add(1, 2, terms);
  EXPECT_TRUE(graph.allows(1, 2, cellnet::Rat::kTwoG));
  EXPECT_FALSE(graph.allows(1, 2, cellnet::Rat::kFourG));
  EXPECT_FALSE(graph.allows(1, 3, cellnet::Rat::kTwoG));
}

TEST(Agreements, PartnersSorted) {
  RoamingAgreementGraph graph;
  AgreementTerms terms{all_rats(), BreakoutType::kHomeRouted};
  graph.add(1, 5, terms);
  graph.add(1, 3, terms);
  graph.add(1, 3, terms);  // duplicate overwrite, not re-listed
  const auto partners = graph.partners_of(1);
  EXPECT_EQ(partners, (std::vector<OperatorId>{3, 5}));
  EXPECT_TRUE(graph.partners_of(9).empty());
}

TEST(Hubs, SharedHubResolves) {
  HubRegistry hubs;
  RoamingAgreementGraph bilateral;
  const auto hub = hubs.add_hub("H", AgreementTerms{all_rats(), BreakoutType::kIpxHubBreakout});
  hubs.add_member(hub, 1);
  hubs.add_member(hub, 2);
  const auto resolved = hubs.resolve(bilateral, 1, 2);
  EXPECT_EQ(resolved.path, RoamingPath::kViaHub);
  EXPECT_TRUE(resolved.terms.allowed_rats.has(cellnet::Rat::kFourG));
}

TEST(Hubs, PeeringResolvesOneHop) {
  HubRegistry hubs;
  RoamingAgreementGraph bilateral;
  AgreementTerms a_terms;
  a_terms.allowed_rats = all_rats();
  AgreementTerms b_terms;
  b_terms.allowed_rats.set(cellnet::Rat::kTwoG);
  b_terms.allowed_rats.set(cellnet::Rat::kThreeG);
  const auto ha = hubs.add_hub("A", a_terms);
  const auto hb = hubs.add_hub("B", b_terms);
  hubs.add_member(ha, 1);
  hubs.add_member(hb, 2);
  EXPECT_EQ(hubs.resolve(bilateral, 1, 2).path, RoamingPath::kNone);
  hubs.peer(ha, hb);
  const auto resolved = hubs.resolve(bilateral, 1, 2);
  EXPECT_EQ(resolved.path, RoamingPath::kViaHubPeering);
  // Terms intersect: no 4G via the peering.
  EXPECT_FALSE(resolved.terms.allowed_rats.has(cellnet::Rat::kFourG));
  EXPECT_TRUE(resolved.terms.allowed_rats.has(cellnet::Rat::kTwoG));
}

TEST(Hubs, BilateralTakesPrecedence) {
  HubRegistry hubs;
  RoamingAgreementGraph bilateral;
  const auto hub = hubs.add_hub("H", AgreementTerms{all_rats(), BreakoutType::kIpxHubBreakout});
  hubs.add_member(hub, 1);
  hubs.add_member(hub, 2);
  AgreementTerms direct;
  direct.allowed_rats.set(cellnet::Rat::kTwoG);
  direct.breakout = BreakoutType::kHomeRouted;
  bilateral.add(1, 2, direct);
  const auto resolved = hubs.resolve(bilateral, 1, 2);
  EXPECT_EQ(resolved.path, RoamingPath::kDirect);
  EXPECT_EQ(resolved.terms.breakout, BreakoutType::kHomeRouted);
}

TEST(Hubs, MergeTermsDegradesBreakout) {
  AgreementTerms a{all_rats(), BreakoutType::kHomeRouted};
  AgreementTerms b{all_rats(), BreakoutType::kLocalBreakout};
  EXPECT_EQ(merge_terms(a, b).breakout, BreakoutType::kIpxHubBreakout);
  EXPECT_EQ(merge_terms(a, a).breakout, BreakoutType::kHomeRouted);
}

TEST(Steering, CandidatesFilteredAndSorted) {
  WorldConfig config;
  config.build_coverage = false;
  const auto world = World::build(config);
  const auto& wk = world.well_known();
  const auto candidates = world.steering().candidates(
      world.operators(), world.bilateral(), world.hubs(), wk.es_hmno, cellnet::country_id("GB"));
  ASSERT_FALSE(candidates.empty());
  // ES steering prefers the first GB MNO with weight 6.
  EXPECT_EQ(candidates.front().visited, world.operators().mnos_in_country("GB").front());
  EXPECT_GT(candidates.front().weight, candidates.back().weight);
  for (const auto& candidate : candidates) {
    EXPECT_NE(candidate.roaming.path, RoamingPath::kNone);
  }
}

TEST(Steering, PickRespectsRatFilter) {
  WorldConfig config;
  config.build_coverage = false;
  const auto world = World::build(config);
  stats::Rng rng{1};
  const auto picked = world.steering().pick(
      world.operators(), world.bilateral(), world.hubs(),
      world.well_known().es_hmno, cellnet::country_id("FR"), cellnet::Rat::kFourG, rng);
  ASSERT_TRUE(picked.has_value());
  EXPECT_TRUE(picked->roaming.terms.allowed_rats.has(cellnet::Rat::kFourG));
}

// Preferences installed after World::build (MnoScenario and SmipScenario do
// this) reorder candidates by descending weight, ties by id; a later call
// overrides only the weights it names.
TEST(Steering, PreferenceInstalledAfterBuildReordersCandidates) {
  WorldConfig config;
  config.build_coverage = false;
  auto world = World::build(config);
  const auto gb = cellnet::country_id("GB");
  const auto home = world.operators().mnos_in_country("FR").front();
  const auto local = world.operators().mnos_in_country(gb);
  ASSERT_EQ(local.size(), 3u);
  auto order = [&] {
    std::vector<std::pair<OperatorId, double>> out;
    for (const auto& c : world.steering().candidates(world.operators(), world.bilateral(),
                                                     world.hubs(), home, gb)) {
      out.emplace_back(c.visited, c.weight);
    }
    return out;
  };
  using Order = std::vector<std::pair<OperatorId, double>>;
  EXPECT_EQ(order(), (Order{{local[0], 1.0}, {local[1], 1.0}, {local[2], 1.0}}));

  world.mutable_steering().set_preference(home, gb, {{local[2], 15.0}});
  EXPECT_EQ(order(), (Order{{local[2], 15.0}, {local[0], 1.0}, {local[1], 1.0}}));

  world.mutable_steering().set_preference(home, gb, {{local[1], 20.0}});
  EXPECT_EQ(order(), (Order{{local[1], 20.0}, {local[2], 15.0}, {local[0], 1.0}}));

  world.mutable_steering().set_preference(home, gb, {{local[2], 30.0}});
  EXPECT_EQ(order(), (Order{{local[2], 30.0}, {local[1], 20.0}, {local[0], 1.0}}));

  // Another country's or another home's preference leaves this one alone.
  world.mutable_steering().set_preference(home, cellnet::country_id("DE"), {{local[0], 99.0}});
  world.mutable_steering().set_preference(home + 1, gb, {{local[0], 99.0}});
  EXPECT_EQ(order(), (Order{{local[2], 30.0}, {local[1], 20.0}, {local[0], 1.0}}));
}

class WorldTest : public ::testing::Test {
 protected:
  static const World& world() {
    static const World w = [] {
      WorldConfig config;
      config.build_coverage = true;
      return World::build(config);
    }();
    return w;
  }
};

TEST_F(WorldTest, WellKnownOperatorsExist) {
  const auto& wk = world().well_known();
  EXPECT_EQ(world().operators().get(wk.es_hmno).plmn, (cellnet::Plmn{214, 7, 2}));
  EXPECT_EQ(world().operators().get(wk.nl_iot_provisioner).plmn,
            (cellnet::Plmn{204, 4, 2}));
  EXPECT_EQ(world().operators().get(wk.uk_mno).country_iso, "GB");
  EXPECT_EQ(wk.uk_mvnos.size(), 3u);
  for (const auto mvno : wk.uk_mvnos) {
    EXPECT_EQ(world().operators().radio_network_of(mvno), wk.uk_mno);
  }
}

TEST_F(WorldTest, EveryCountryHasMnos) {
  for (const auto& country : cellnet::all_countries()) {
    EXPECT_GE(world().operators().mnos_in_country(country.iso).size(), 3u)
        << country.iso;
  }
}

TEST_F(WorldTest, TwoGSunsetCountries) {
  for (const auto id : world().operators().mnos_in_country("JP")) {
    EXPECT_FALSE(world().operators().get(id).deployed_rats.has(cellnet::Rat::kTwoG));
  }
  for (const auto id : world().operators().mnos_in_country("GB")) {
    EXPECT_TRUE(world().operators().get(id).deployed_rats.has(cellnet::Rat::kTwoG));
  }
}

TEST_F(WorldTest, IntraEuRoamingIsHomeRoutedBilateral) {
  const auto es = world().operators().mnos_in_country("ES").front();
  const auto fr = world().operators().mnos_in_country("FR").front();
  const auto resolved = world().resolve_roaming(es, fr);
  EXPECT_EQ(resolved.path, RoamingPath::kDirect);
  EXPECT_EQ(resolved.terms.breakout, BreakoutType::kHomeRouted);
}

TEST_F(WorldTest, GlobalReachViaHubs) {
  // Any two MNOs anywhere must have some commercial path (possibly hub
  // peering) — the premise of the global IoT SIM.
  const auto& wk = world().well_known();
  for (const auto* iso : {"AU", "JP", "KE", "BR", "US", "VN"}) {
    const auto visited = world().operators().mnos_in_country(iso).front();
    const auto resolved = world().resolve_roaming(wk.es_hmno, visited);
    EXPECT_NE(resolved.path, RoamingPath::kNone) << iso;
  }
}

TEST_F(WorldTest, CoverageGridsBuilt) {
  const auto& wk = world().well_known();
  EXPECT_TRUE(world().coverage().has_grid(wk.uk_mno));
  EXPECT_GT(world().coverage().total_sectors(), 10'000u);
  // MVNOs have no grid of their own.
  EXPECT_FALSE(world().coverage().has_grid(wk.uk_mvnos.front()));
}

// The per-country table must list exactly what a scan of the registry
// finds: MNOs only, in id order, the pinned HMNOs included.
TEST_F(WorldTest, MnosInCountryMatchesLinearScan) {
  const auto& operators = world().operators();
  const auto countries = cellnet::all_countries();
  for (std::size_t c = 0; c < countries.size(); ++c) {
    std::vector<OperatorId> expected;
    for (const auto& op : operators.all()) {
      if (op.kind == OperatorKind::kMno && op.country_iso == countries[c].iso) {
        expected.push_back(op.id);
      }
    }
    const auto by_id = operators.mnos_in_country(static_cast<cellnet::CountryId>(c));
    EXPECT_EQ(std::vector<OperatorId>(by_id.begin(), by_id.end()), expected)
        << countries[c].iso;
    const auto by_iso = operators.mnos_in_country(countries[c].iso);
    EXPECT_EQ(std::vector<OperatorId>(by_iso.begin(), by_iso.end()), expected);
  }
  const auto& wk = world().well_known();
  for (const auto& [iso, hmno] : {std::pair{"ES", wk.es_hmno}, std::pair{"DE", wk.de_hmno},
                                  std::pair{"MX", wk.mx_hmno}, std::pair{"AR", wk.ar_hmno},
                                  std::pair{"NL", wk.nl_iot_provisioner}}) {
    const auto local = operators.mnos_in_country(iso);
    EXPECT_NE(std::find(local.begin(), local.end(), hmno), local.end()) << iso;
  }
  EXPECT_TRUE(operators.mnos_in_country(cellnet::kNoCountry).empty());
}

// resolve() against a brute-force definition over every operator pair:
// bilateral first, then a hub both joined, then one hop of peering, with
// memberships read from the hubs' member lists. The world's hubs are the
// M2M hub and its peered partner, both with 2G/3G/4G and IPX-hub breakout.
TEST_F(WorldTest, ResolveMatchesBruteForce) {
  const auto& operators = world().operators();
  const auto& hubs = world().hubs();
  const auto& bilateral = world().bilateral();
  const auto& wk = world().well_known();
  std::vector<std::vector<HubId>> joined(operators.size());
  for (HubId h = 0; h < hubs.size(); ++h) {
    for (const OperatorId member : hubs.get(h).members) joined[member].push_back(h);
  }
  auto peered = [&](HubId a, HubId b) {
    return (a == wk.m2m_hub && b == wk.partner_hub) ||
           (a == wk.partner_hub && b == wk.m2m_hub);
  };
  AgreementTerms hub_terms;
  hub_terms.allowed_rats = all_rats();
  hub_terms.breakout = BreakoutType::kIpxHubBreakout;

  auto expected = [&](OperatorId home, OperatorId visited) -> EffectiveRoaming {
    if (const auto direct = bilateral.find(home, visited)) {
      return EffectiveRoaming{RoamingPath::kDirect, *direct};
    }
    for (const HubId h : joined[home]) {
      for (const HubId v : joined[visited]) {
        if (h == v) return EffectiveRoaming{RoamingPath::kViaHub, hub_terms, h};
      }
    }
    for (const HubId h : joined[home]) {
      for (const HubId v : joined[visited]) {
        if (peered(h, v)) return EffectiveRoaming{RoamingPath::kViaHubPeering, hub_terms, h};
      }
    }
    return EffectiveRoaming{};
  };

  std::size_t per_path[4] = {};
  for (OperatorId home = 0; home < operators.size(); ++home) {
    for (OperatorId visited = 0; visited < operators.size(); ++visited) {
      const auto want = expected(home, visited);
      const auto got = hubs.resolve(bilateral, home, visited);
      ASSERT_EQ(got.path, want.path) << home << "->" << visited;
      ASSERT_EQ(got.via_hub, want.via_hub) << home << "->" << visited;
      ASSERT_EQ(got.terms.allowed_rats.bits(), want.terms.allowed_rats.bits());
      ASSERT_EQ(got.terms.breakout, want.terms.breakout);
      ++per_path[static_cast<int>(got.path)];
    }
  }
  // Every kind of path occurs, so the comparison covers each branch.
  for (const auto count : per_path) EXPECT_GT(count, 0u);
}

TEST_F(WorldTest, DeterministicBuild) {
  WorldConfig config;
  config.build_coverage = false;
  const auto a = World::build(config);
  const auto b = World::build(config);
  EXPECT_EQ(a.operators().size(), b.operators().size());
  EXPECT_EQ(a.bilateral().size(), b.bilateral().size());
}

TEST(Breakout, Names) {
  EXPECT_EQ(breakout_name(BreakoutType::kHomeRouted), "home-routed");
  EXPECT_EQ(breakout_name(BreakoutType::kLocalBreakout), "local-breakout");
  EXPECT_EQ(breakout_name(BreakoutType::kIpxHubBreakout), "ipx-hub-breakout");
  EXPECT_EQ(roaming_path_name(RoamingPath::kViaHub), "via-hub");
}

}  // namespace
}  // namespace wtr::topology
