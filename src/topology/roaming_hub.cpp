#include "topology/roaming_hub.hpp"

#include <algorithm>
#include <cassert>

namespace wtr::topology {

std::string_view roaming_path_name(RoamingPath path) noexcept {
  switch (path) {
    case RoamingPath::kNone: return "none";
    case RoamingPath::kDirect: return "direct";
    case RoamingPath::kViaHub: return "via-hub";
    case RoamingPath::kViaHubPeering: return "via-hub-peering";
  }
  return "?";
}

AgreementTerms merge_terms(const AgreementTerms& a, const AgreementTerms& b) noexcept {
  AgreementTerms out;
  out.allowed_rats = a.allowed_rats.intersect(b.allowed_rats);
  out.breakout = a.breakout == b.breakout ? a.breakout : BreakoutType::kIpxHubBreakout;
  return out;
}

HubId HubRegistry::add_hub(std::string name, AgreementTerms default_terms) {
  RoamingHub hub;
  hub.id = static_cast<HubId>(hubs_.size());
  hub.name = std::move(name);
  hubs_.push_back(std::move(hub));
  default_terms_.push_back(default_terms);
  peers_.emplace_back();
  return hubs_.back().id;
}

void HubRegistry::add_member(HubId hub, OperatorId op) {
  assert(static_cast<std::size_t>(hub) < hubs_.size());
  auto& members = hubs_[hub].members;
  if (std::find(members.begin(), members.end(), op) != members.end()) return;
  members.push_back(op);
  if (memberships_.size() <= op) memberships_.resize(static_cast<std::size_t>(op) + 1);
  memberships_[op].push_back(hub);
}

void HubRegistry::peer(HubId a, HubId b) {
  assert(static_cast<std::size_t>(a) < hubs_.size());
  assert(static_cast<std::size_t>(b) < hubs_.size());
  if (a == b || is_peer(a, b)) return;
  peers_[a].push_back(b);
  peers_[b].push_back(a);
}

const RoamingHub& HubRegistry::get(HubId id) const {
  assert(static_cast<std::size_t>(id) < hubs_.size());
  return hubs_[id];
}

bool HubRegistry::is_member(HubId hub, OperatorId op) const {
  const auto hubs = hubs_of(op);
  return std::find(hubs.begin(), hubs.end(), hub) != hubs.end();
}

std::span<const HubId> HubRegistry::hubs_of(OperatorId op) const noexcept {
  if (op >= memberships_.size()) return {};
  return memberships_[op];
}

bool HubRegistry::is_peer(HubId a, HubId b) const {
  const auto& peers = peers_[a];
  return std::find(peers.begin(), peers.end(), b) != peers.end();
}

AgreementTerms HubRegistry::terms_of(HubId hub) const {
  assert(static_cast<std::size_t>(hub) < default_terms_.size());
  return default_terms_[hub];
}

EffectiveRoaming HubRegistry::resolve(const RoamingAgreementGraph& bilateral,
                                      OperatorId home, OperatorId visited) const {
  if (const auto direct = bilateral.find(home, visited)) {
    return EffectiveRoaming{RoamingPath::kDirect, *direct};
  }
  const auto home_hubs = hubs_of(home);
  const auto visited_hubs = hubs_of(visited);
  // Shared hub.
  for (HubId h : home_hubs) {
    if (std::find(visited_hubs.begin(), visited_hubs.end(), h) != visited_hubs.end()) {
      return EffectiveRoaming{RoamingPath::kViaHub, terms_of(h), h};
    }
  }
  // One hop of hub peering.
  for (HubId hh : home_hubs) {
    for (HubId vh : visited_hubs) {
      if (is_peer(hh, vh)) {
        return EffectiveRoaming{RoamingPath::kViaHubPeering,
                                merge_terms(terms_of(hh), terms_of(vh)), hh};
      }
    }
  }
  return EffectiveRoaming{};
}

}  // namespace wtr::topology
