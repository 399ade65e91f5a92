#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "core/behavior.h"
#include "core/enrichment.h"
#include "core/incentive.h"
#include "core/reputation.h"
#include "core/token_ledger.h"
#include "routing/chitchat/chitchat_router.h"

/// \file incentive_router.h
/// The paper's contribution: ChitChat routing with the credit incentive
/// mechanism (§3.2), the distributed reputation model (§3.3), and content
/// enrichment wired into every contact. Per contact:
///
///   link up      ChitChat weight exchange, then reputation exchange
///                (second-hand merge) and contact-distance capture
///   plan         ChitChat destination/relay selection, then per-offer
///                promise I = min(I_s + I_h, I_m) and relay pre-payment
///                terms; offers ordered by priority and quality
///   accept       duplicate check; DRM sender-trust gate; token
///                affordability (a destination that cannot pay the promise
///                refuses — Paper II §3.3)
///   on_received  destination: pay reputation-scaled award
///                I_v = factor · (I + I_t) to the deliverer (first copy
///                only — duplicates never get this far);
///                relay: pay the agreed pre-payment, rate the source and
///                enriching relays (DRM), enrich per behavior profile, store

namespace dtnic::core {

/// Run-wide shared configuration and services for all incentive routers.
struct IncentiveWorld {
  IncentiveParams incentive;
  DrmParams drm;
  net::RadioParams radio;
  /// Keyword universe; malicious enrichment samples from it.
  const std::vector<msg::KeywordId>* keyword_pool = nullptr;
  /// Current neighbors of a node (used for w_m in Algorithm 3); provided by
  /// the scenario from the connectivity manager. Fill-style so the per-plan
  /// query reuses a caller-owned scratch vector instead of allocating.
  std::function<void(routing::NodeId, std::vector<routing::Host*>&)> neighbors;
  /// Host lookup by id (PI-style escrow clearing credits path relays).
  std::function<routing::Host*(routing::NodeId)> host_by_id;
  /// Master switch for content enrichment (ablation benches flip it).
  bool enrichment_enabled = true;
};

class IncentiveRouter final : public routing::ChitChatRouter {
 public:
  IncentiveRouter(const routing::DestinationOracle& oracle,
                  const routing::chitchat::ChitChatParams& chitchat,
                  util::SimTime contact_quantum, const IncentiveWorld* world,
                  BehaviorProfile profile, util::Rng rng);

  [[nodiscard]] TokenLedger& ledger() { return ledger_; }
  [[nodiscard]] const TokenLedger& ledger() const { return ledger_; }
  [[nodiscard]] RatingStore& ratings() { return ratings_; }
  [[nodiscard]] const RatingStore& ratings() const { return ratings_; }
  [[nodiscard]] const BehaviorProfile& behavior() const { return profile_; }

  [[nodiscard]] static IncentiveRouter* of(routing::Host& host);

  void on_link_up(routing::Host& self, routing::Host& peer, util::SimTime now,
                  double distance_m) override;
  void on_link_down(routing::Host& self, routing::Host& peer, util::SimTime now) override;
  void plan_for_peer(routing::Host& self, const routing::Peer& peer, util::SimTime now,
                     std::vector<routing::ForwardPlan>& out) override;
  [[nodiscard]] routing::AcceptDecision accept(routing::Host& self, const routing::Peer& from,
                                               const msg::Message& m,
                                               const routing::ForwardPlan& offer,
                                               util::SimTime now) override;
  void on_received(routing::Host& self, routing::Host& from, msg::Message m,
                   const routing::ForwardPlan& plan, util::SimTime now) override;

  /// The promise the sender \p self would attach when forwarding \p m to
  /// \p peer right now (public for tests and the operator facade). The peer
  /// is transport-neutral: strength, rank, and id are all the formula needs.
  [[nodiscard]] double compute_promise(routing::Host& self, const routing::Peer& peer,
                                       const msg::Message& m);

 private:
  /// Per-plan() precomputed context: the sender's connected neighbors and
  /// its buffer-wide maxima (S_m, Q_m of Table 3.1); hoisted so promise
  /// computation is O(keywords) per message instead of O(buffer).
  struct PromiseContext {
    std::vector<routing::Host*> neighbors;
    std::uint64_t max_size_bytes = 1;
    double max_quality = 1e-9;
  };
  void fill_promise_context(routing::Host& self, PromiseContext& ctx) const;
  [[nodiscard]] double promise_for(routing::Host& self, const routing::Peer& peer,
                                   const msg::Message& m, const PromiseContext& ctx);

  /// Plan entry with its sort keys resolved once; the sort comparator
  /// compares plain fields instead of doing two buffer hash lookups per
  /// call. `seq` is the pre-sort position: using it as the final tiebreak
  /// makes plain std::sort stable without stable_sort's temporary buffer.
  struct KeyedPlan {
    routing::ForwardPlan plan;
    int priority = 0;
    double quality = 0.0;
    std::uint32_t seq = 0;
  };

  /// DRM judgement of a freshly received copy: rate the source and every
  /// enriching relay, record first-hand, and stamp path ratings on the copy.
  void rate_and_record(routing::Host& self, msg::Message& m);

  using DistanceList = std::vector<std::pair<routing::NodeId, double>>;
  [[nodiscard]] DistanceList::iterator find_distance(routing::NodeId peer);

  const IncentiveWorld* world_;
  BehaviorProfile profile_;
  util::Rng rng_;
  TokenLedger ledger_;
  RatingStore ratings_;
  Enricher enricher_;
  /// Distance to each currently connected peer; added on link-up, removed on
  /// link-down. One entry per live neighbor (a handful), so a linear scan.
  DistanceList contact_distance_;
  /// plan_into scratch (reused across contacts; steady-state allocation-free).
  PromiseContext promise_ctx_;
  std::vector<KeyedPlan> keyed_scratch_;
};

}  // namespace dtnic::core
