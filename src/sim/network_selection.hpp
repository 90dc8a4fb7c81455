#pragma once

// Network and RAT selection for a device at its current position. Native
// devices camp on their home radio network; roaming devices follow the home
// operator's steering policy. The RAT is the best technology supported by
// hardware, the visited network's deployment, and (for roamers) the
// effective agreement — with graceful fallback down to 2G, which is how the
// simulator reproduces M2M's 2G dependence (Fig. 9).

#include <optional>
#include <span>
#include <vector>

#include "devices/device.hpp"
#include "stats/rng.hpp"
#include "topology/world.hpp"

namespace wtr::sim {

struct NetworkChoice {
  topology::OperatorId visited = topology::kInvalidOperator;
  cellnet::Rat rat = cellnet::Rat::kTwoG;
  bool is_home_network = false;  // camping on the home (or host) network
};

/// Reusable buffers for NetworkSelector::scan. One per event loop: a scan
/// that reuses them allocates nothing once they have grown to the largest
/// country. Their contents mean nothing between scans.
struct ScanScratch {
  std::vector<topology::VisitedCandidate> candidates;
  std::vector<double> weights;
  std::vector<topology::OperatorId> rest;
  std::vector<NetworkChoice> choices;
};

class NetworkSelector {
 public:
  explicit NetworkSelector(const topology::World& world) : world_(&world) {}

  /// Choose a network for the device in its current country. `exclude`
  /// removes a network from consideration (used to force a reselection away
  /// from a failing one). Returns nullopt when nothing is reachable — the
  /// device stays silent (which the trace never sees) or keeps failing on
  /// its only candidate.
  [[nodiscard]] std::optional<NetworkChoice> choose(const devices::Device& device,
                                                    std::optional<topology::OperatorId> exclude,
                                                    stats::Rng& rng) const;

  /// Best RAT on a specific visited network for this device (hardware ∩
  /// deployment ∩ agreement), preferring 4G > 3G > 2G. nullopt when the
  /// intersection is empty.
  [[nodiscard]] std::optional<cellnet::Rat> best_rat(const devices::Device& device,
                                                     topology::OperatorId visited) const;

  /// Next RAT to try after `failed` on the same network (4G→3G→2G chain,
  /// restricted to the feasible set). nullopt when the chain is exhausted.
  [[nodiscard]] std::optional<cellnet::Rat> fallback_rat(const devices::Device& device,
                                                         topology::OperatorId visited,
                                                         cellnet::Rat failed) const;

  /// Attempt-ordered candidates the device would actually try: the home
  /// radio network first when in the home country, then steering-preferred
  /// roaming partners, then the remaining local MNOs the SIM has no
  /// arrangement with — a device cannot know that in advance; the visited
  /// network answers RoamingNotAllowed, which is how those records enter
  /// the traces (§3.3). RATs here are radio-feasible (hardware ∩
  /// deployment), NOT agreement-filtered. The result lives in
  /// `scratch.choices` until the next scan with the same scratch.
  [[nodiscard]] std::span<NetworkChoice> scan(const devices::Device& device,
                                              std::optional<topology::OperatorId> exclude,
                                              stats::Rng& rng, ScanScratch& scratch) const;

  /// Radio-feasible best RAT (hardware ∩ deployment, no agreement filter).
  [[nodiscard]] std::optional<cellnet::Rat> radio_rat(const devices::Device& device,
                                                      topology::OperatorId visited) const;

  /// Radio-feasible fallback after `failed` (hardware ∩ deployment only).
  [[nodiscard]] std::optional<cellnet::Rat> radio_fallback_rat(const devices::Device& device,
                                                               topology::OperatorId visited,
                                                               cellnet::Rat failed) const;

 private:
  [[nodiscard]] cellnet::RatMask feasible_rats(const devices::Device& device,
                                               topology::OperatorId visited) const;

  const topology::World* world_;
};

}  // namespace wtr::sim
