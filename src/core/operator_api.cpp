#include "core/operator_api.h"

#include "util/assert.h"

namespace dtnic::core {

DtnOperator::DtnOperator(routing::Host& host, routing::StaticInterestOracle& oracle,
                         msg::KeywordTable& keywords, msg::MessageIdSource& ids)
    : host_(host),
      oracle_(oracle),
      keywords_(keywords),
      ids_(ids),
      router_(*[&host]() {
        IncentiveRouter* r = IncentiveRouter::of(host);
        DTNIC_REQUIRE_MSG(r != nullptr, "DtnOperator requires an IncentiveRouter host");
        return r;
      }()) {}

msg::Message& DtnOperator::annotate(const std::vector<std::string>& labels, util::SimTime now,
                                    std::uint64_t size_bytes, msg::Priority priority,
                                    double quality, std::optional<msg::GeoTag> location) {
  DTNIC_REQUIRE_MSG(!labels.empty(), "a message needs at least one keyword");
  msg::Message m(ids_.next(), host_.id(), now, size_bytes, priority, quality);
  if (location) m.set_location(*location);
  std::vector<msg::KeywordId> truth;
  for (const std::string& label : labels) {
    const msg::KeywordId k = keywords_.intern(label);
    truth.push_back(k);
    m.annotate(msg::Annotation{k, host_.id(), /*truthful=*/true});
  }
  m.set_true_keywords(std::move(truth));
  const msg::MessageId id = m.id();
  host_.mark_seen(id);
  auto outcome = host_.buffer().add(std::move(m), /*own=*/true);
  DTNIC_REQUIRE_MSG(outcome.result == msg::MessageBuffer::AddResult::kAdded,
                    "message does not fit in the device buffer");
  msg::Message* stored = host_.buffer().find_mutable(id);
  DTNIC_ASSERT(stored != nullptr);
  host_.events().on_created(*stored);
  router_.on_originated(host_, *stored, now);
  return *stored;
}

void DtnOperator::subscribe(const std::vector<std::string>& interests, util::SimTime now) {
  std::vector<msg::KeywordId> ids;
  ids.reserve(interests.size());
  for (const std::string& name : interests) ids.push_back(keywords_.intern(name));
  // Merge with any existing subscriptions.
  auto existing = oracle_.interests_of(host_.id());
  std::vector<msg::KeywordId> all(existing.begin(), existing.end());
  all.insert(all.end(), ids.begin(), ids.end());
  oracle_.set_interests(host_.id(), all);
  router_.set_direct_interests(ids, now);
}

void DtnOperator::decay_weights(util::SimTime now) {
  router_.interests().decay_against(now, {});
}

void DtnOperator::increment_weights(const routing::Peer& peer, util::SimTime now) {
  const routing::chitchat::InterestTable* table = peer.interest_table();
  DTNIC_REQUIRE_MSG(table != nullptr, "peer does not expose a ChitChat interest table");
  router_.interests().grow_from(*table, now,
                                router_.interests().params().growth_contact_cap_s);
}

std::vector<msg::MessageId> DtnOperator::messages_to_forward(const routing::Peer& peer,
                                                             util::SimTime now) {
  std::vector<routing::ForwardPlan> plans;
  router_.plan_for_peer(host_, peer, now, plans);
  std::vector<msg::MessageId> out;
  out.reserve(plans.size());
  for (const routing::ForwardPlan& plan : plans) out.push_back(plan.message);
  return out;
}

routing::TransferRole DtnOperator::decide_role(const msg::Message& m,
                                               const routing::Peer& peer) const {
  return oracle_.is_destination(peer.id(), m) ? routing::TransferRole::kDestination
                                              : routing::TransferRole::kRelay;
}

routing::Peer* DtnOperator::best_relay(const std::vector<routing::Peer*>& candidates,
                                       const msg::Message& m) const {
  routing::Peer* best = nullptr;
  double best_strength = 0.0;
  for (routing::Peer* candidate : candidates) {
    if (candidate == nullptr || candidate->interest_table() == nullptr) continue;
    const double strength = candidate->message_strength(m);
    if (strength > best_strength) {
      best_strength = strength;
      best = candidate;
    }
  }
  return best;
}

double DtnOperator::compute_incentive(const msg::Message& m, const routing::Peer& peer) {
  return router_.compute_promise(host_, peer, m);
}

double DtnOperator::rate_message(const msg::Message& m) {
  util::Rng rng(m.id().value() ^ host_.id().value());  // deterministic per (user, message)
  return MessageJudgement::rate_source(m, router_.ratings().params(), rng);
}

double DtnOperator::rate_node(routing::NodeId node) const {
  return router_.ratings().rating_of(node);
}

int DtnOperator::enrich(msg::MessageId id, const std::vector<std::string>& labels,
                        bool truthful) {
  msg::Message* m = host_.buffer().find_mutable(id);
  DTNIC_REQUIRE_MSG(m != nullptr, "message not in this device's buffer");
  int added = 0;
  for (const std::string& label : labels) {
    const msg::KeywordId k = keywords_.intern(label);
    if (m->annotate(msg::Annotation{k, host_.id(), truthful})) ++added;
  }
  return added;
}

}  // namespace dtnic::core
