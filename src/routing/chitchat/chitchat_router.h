#pragma once

#include <unordered_map>

#include "routing/chitchat/interest_table.h"
#include "routing/router.h"

/// \file chitchat_router.h
/// ChitChat routing (McGeehan, Lin & Madria, ICDCS 2016), the substrate the
/// paper's incentive scheme is built on. Per contact:
///   1. both sides decay their interest weights (Algorithm 1),
///   2. the decayed tables are exchanged,
///   3. both sides grow from the peer's table (Algorithm 2),
///   4. message routing: a message is handed to the peer as a *destination*
///      when the peer holds a direct interest in one of its keywords, and as
///      a *relay* when the peer's summed interest weight for the message
///      exceeds the sender's (S_v > S_u).

namespace dtnic::routing {

class ChitChatRouter : public Router {
 public:
  ChitChatRouter(const DestinationOracle& oracle, const chitchat::ChitChatParams& params,
                 util::SimTime contact_quantum);

  /// Seed the user's direct interests (subscription keywords).
  void set_direct_interests(const std::vector<msg::KeywordId>& interests, util::SimTime now);

  [[nodiscard]] chitchat::InterestTable& interests() { return table_; }
  [[nodiscard]] const chitchat::InterestTable& interests() const { return table_; }

  /// The ChitChatRouter attached to a host, or nullptr if the host runs a
  /// different (or no) routing scheme. Tag-dispatched (RouterKind), so the
  /// per-slot/per-neighbor hot paths pay a byte compare, not a dynamic_cast.
  [[nodiscard]] static ChitChatRouter* of(Host& host);

  void pre_exchange(Host& self, util::SimTime now,
                    std::span<Host* const> neighbors) override;
  void on_link_up(Host& self, Host& peer, util::SimTime now, double distance_m) override;
  [[nodiscard]] std::vector<ForwardPlan> plan(Host& self, Host& peer,
                                              util::SimTime now) override;
  void plan_into(Host& self, Host& peer, util::SimTime now,
                 std::vector<ForwardPlan>& out) override;

  /// Transport-neutral planning entry point: the peer is interrogated only
  /// through the Peer interface (has_seen, id, interest table, strength), so
  /// the same code plans against an in-process Host and against a
  /// live::RemotePeer built from a wire digest. plan_into forwards here; the
  /// incentive schemes override this to attach their token economics.
  /// Subject to the plan-side purity contract documented on Router::plan_into.
  virtual void plan_for_peer(Host& self, const Peer& peer, util::SimTime now,
                             std::vector<ForwardPlan>& out);

  /// Sum of this node's interest weights over the message's keywords (S_u).
  /// Memoized per (message id, annotation stamp, table generation): within
  /// one contact plan/promise round the sum is computed once per message,
  /// not once per query. The cached value is always bit-identical to a
  /// from-scratch sum_weights over the same keyword list.
  [[nodiscard]] double message_strength(const msg::Message& m) const;

 protected:
  /// Derived incentive schemes pass their own RouterKind tag.
  ChitChatRouter(const DestinationOracle& oracle, const chitchat::ChitChatParams& params,
                 util::SimTime contact_quantum, RouterKind kind);

  chitchat::ChitChatParams params_;
  chitchat::InterestTable table_;
  util::SimTime contact_quantum_;

 private:
  struct StrengthEntry {
    std::uint64_t stamp = 0;
    std::uint64_t generation = 0;
    double strength = 0.0;
  };
  /// Entries beyond this are pruned (stale generations first); bounds the
  /// cache under long runs where message ids keep growing.
  static constexpr std::size_t kStrengthCacheCap = 4096;

  mutable std::unordered_map<msg::MessageId, StrengthEntry> strength_cache_;
  /// Scratch for pre_exchange: connected neighbors' interest tables.
  std::vector<const chitchat::InterestTable*> neighbor_tables_;
};

}  // namespace dtnic::routing
