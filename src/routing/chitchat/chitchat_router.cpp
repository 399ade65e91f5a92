#include "routing/chitchat/chitchat_router.h"

namespace dtnic::routing {

ChitChatRouter::ChitChatRouter(const DestinationOracle& oracle,
                               const chitchat::ChitChatParams& params,
                               util::SimTime contact_quantum)
    : ChitChatRouter(oracle, params, contact_quantum, RouterKind::kChitChat) {}

ChitChatRouter::ChitChatRouter(const DestinationOracle& oracle,
                               const chitchat::ChitChatParams& params,
                               util::SimTime contact_quantum, RouterKind kind)
    : Router(oracle, kind), params_(params), table_(params), contact_quantum_(contact_quantum) {}

void ChitChatRouter::set_direct_interests(const std::vector<msg::KeywordId>& interests,
                                          util::SimTime now) {
  for (msg::KeywordId k : interests) table_.add_direct(k, now);
}

ChitChatRouter* ChitChatRouter::of(Host& host) {
  if (!host.has_router()) return nullptr;
  Router& router = host.router();
  if (!is_chitchat_kind(router.kind())) return nullptr;
  return static_cast<ChitChatRouter*>(&router);
}

void ChitChatRouter::pre_exchange(Host& self, util::SimTime now,
                                  std::span<Host* const> neighbors) {
  (void)self;
  // An interest does not decay while some currently connected device shares
  // it (Algorithm 1's "device with I is connected" branch). Resolve each
  // neighbor's table once, not once per slot.
  neighbor_tables_.clear();
  for (Host* neighbor : neighbors) {
    if (const ChitChatRouter* other = ChitChatRouter::of(*neighbor); other != nullptr) {
      neighbor_tables_.push_back(&other->table_);
    }
  }
  table_.decay_against(now, neighbor_tables_);
}

void ChitChatRouter::on_link_up(Host& self, Host& peer, util::SimTime now, double distance_m) {
  (void)self; (void)distance_m;
  ChitChatRouter* other = ChitChatRouter::of(peer);
  if (other == nullptr) return;
  // Growth also refreshes last-seen for every interest the peer shares.
  table_.grow_from(other->table_, now, contact_quantum_.sec());
}

double ChitChatRouter::message_strength(const msg::Message& m) const {
  const std::uint64_t generation = table_.generation();
  if (strength_cache_.size() >= kStrengthCacheCap) {
    // Drop stale-generation entries; they would be recomputed on touch
    // anyway. (Current-generation entries survive, keeping an active
    // plan/promise round warm.)
    for (auto it = strength_cache_.begin(); it != strength_cache_.end();) {
      if (it->second.generation != generation) {
        it = strength_cache_.erase(it);
      } else {
        ++it;
      }
    }
    if (strength_cache_.size() >= kStrengthCacheCap) strength_cache_.clear();
  }
  auto [it, inserted] = strength_cache_.try_emplace(m.id());
  StrengthEntry& entry = it->second;
  if (inserted || entry.stamp != m.keyword_stamp() || entry.generation != generation) {
    entry.stamp = m.keyword_stamp();
    entry.generation = generation;
    entry.strength = table_.sum_weights(m.keywords());
  }
  return entry.strength;
}

std::vector<ForwardPlan> ChitChatRouter::plan(Host& self, Host& peer, util::SimTime now) {
  std::vector<ForwardPlan> plans;
  plan_into(self, peer, now, plans);
  return plans;
}

void ChitChatRouter::plan_into(Host& self, Host& peer, util::SimTime now,
                               std::vector<ForwardPlan>& out) {
  plan_for_peer(self, peer, now, out);
}

void ChitChatRouter::plan_for_peer(Host& self, const Peer& peer, util::SimTime now,
                                   std::vector<ForwardPlan>& out) {
  (void)now;
  out.clear();
  out.reserve(self.buffer().size());
  // Peer::message_strength of an in-process Host is the peer router's
  // memoized Σw, so this plan is bit-identical to the pre-seam direct
  // ChitChatRouter::of(peer) queries.
  const bool peer_runs_chitchat = peer.interest_table() != nullptr;
  self.buffer().for_each([&](const msg::Message& m) {
    if (peer.has_seen(m.id())) return;
    if (oracle().is_destination(peer.id(), m)) {
      out.push_back(ForwardPlan{m.id(), TransferRole::kDestination});
      return;
    }
    if (!peer_runs_chitchat) return;
    const double s_u = message_strength(m);
    const double s_v = peer.message_strength(m);
    if (s_v > s_u + params_.forward_margin) {
      out.push_back(ForwardPlan{m.id(), TransferRole::kRelay});
    }
  });
}

}  // namespace dtnic::routing
