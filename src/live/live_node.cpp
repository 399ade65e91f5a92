#include "live/live_node.h"

#include <algorithm>
#include <cmath>

#include "core/incentive.h"
#include "core/reputation.h"
#include "scenario/router_factory.h"
#include "util/assert.h"

namespace dtnic::live {

using routing::NodeId;
using routing::TransferRole;
using util::SimTime;

namespace {
/// The scenario's kRouterStream tag (scenario.cpp StreamTag): a live node
/// forks its per-node router stream exactly like the simulator would for
/// the node at its index, so a daemon's DRM noise is reproducible from
/// (seed, node id) alone.
constexpr std::uint64_t kRouterStreamTag = 6;

std::pair<std::uint32_t, std::uint32_t> transfer_key(NodeId peer, msg::MessageId m) {
  return {peer.value(), m.value()};
}
}  // namespace

LiveNode::LiveNode(const LiveNodeConfig& cfg)
    : cfg_(cfg),
      master_rng_(cfg.scenario.seed),
      // The metrics collector registers first so every other sink (trace,
      // custom observers) sees events after the counters updated — same
      // order as the simulator's fan-out.
      metrics_handle_(fanout_.add_sink(metrics_)),
      host_(cfg.node, cfg.buffer_capacity_bytes, msg::DropPolicy::kFifoOldest, fanout_),
      socket_(cfg.listen_port) {
  DTNIC_REQUIRE_MSG(cfg_.node.valid(), "live node needs a valid node id");
  DTNIC_REQUIRE_MSG(cfg_.scenario.scheme == scenario::Scheme::kChitChat ||
                        cfg_.scenario.scheme == scenario::Scheme::kIncentive,
                    "live overlay supports the chitchat and incentive schemes");

  // The agreed keyword pool, interned in id order; the FNV hash of the table
  // gates HELLO compatibility.
  for (const std::string& kw : cfg_.keywords) keywords_.intern(kw);
  pool_.reserve(keywords_.size());
  for (std::size_t i = 0; i < keywords_.size(); ++i) {
    pool_.push_back(msg::KeywordId(static_cast<std::uint32_t>(i)));
  }
  pool_hash_ = wire::keyword_pool_hash(keywords_);

  world_.incentive = cfg_.scenario.incentive;
  world_.drm = cfg_.scenario.drm;
  world_.radio = cfg_.scenario.radio;
  world_.keyword_pool = &pool_;
  world_.enrichment_enabled = false;  // enrichment-in-transit is sim-only for now

  host_.set_rank(cfg_.rank);
  scenario::RouterBuildContext ctx;
  ctx.cfg = &cfg_.scenario;
  ctx.oracle = &oracle_;
  ctx.contact_quantum = SimTime::seconds(cfg_.scenario.scan_interval_s);
  ctx.world = &world_;
  ctx.master_rng = &master_rng_;
  ctx.rng_stream_tag = kRouterStreamTag;
  ctx.node_index = cfg_.node.value();
  host_.set_router(scenario::build_router(ctx));
  chitchat_ = routing::ChitChatRouter::of(host_);
  DTNIC_ASSERT(chitchat_ != nullptr);
  incentive_ = core::IncentiveRouter::of(host_);
}

void LiveNode::add_seed_peer(NodeId node, const Endpoint& endpoint) {
  DTNIC_REQUIRE_MSG(node.valid() && node != host_.id(), "seed peer must be another node");
  if (peers_.count(node.value()) > 0) return;
  peers_.emplace(node.value(), std::make_unique<PeerState>(
                                   node, cfg_.scenario.chitchat, endpoint));
}

void LiveNode::subscribe(const std::vector<std::string>& labels, SimTime now) {
  std::vector<msg::KeywordId> ids;
  ids.reserve(labels.size());
  for (const std::string& label : labels) {
    const msg::KeywordId k = keywords_.find(label);
    DTNIC_REQUIRE_MSG(k.valid(), "subscribe keyword outside the agreed pool: " + label);
    ids.push_back(k);
  }
  const auto& existing = oracle_.interests_of(host_.id());
  std::vector<msg::KeywordId> all(existing.begin(), existing.end());
  all.insert(all.end(), ids.begin(), ids.end());
  oracle_.set_interests(host_.id(), all);
  chitchat_->set_direct_interests(ids, now);
}

msg::MessageId LiveNode::publish(const std::vector<std::string>& labels, SimTime now,
                                 std::uint64_t size_bytes, msg::Priority priority,
                                 double quality) {
  DTNIC_REQUIRE_MSG(!labels.empty(), "a message needs at least one keyword");
  now_ = std::max(now_, now);  // trace records for on_created stamp correctly
  const msg::MessageId id(host_.id().value() * 0x100000u + next_seq_++);
  msg::Message m(id, host_.id(), now, size_bytes, priority, quality);
  std::vector<msg::KeywordId> truth;
  for (const std::string& label : labels) {
    const msg::KeywordId k = keywords_.find(label);
    DTNIC_REQUIRE_MSG(k.valid(), "publish keyword outside the agreed pool: " + label);
    truth.push_back(k);
    m.annotate(msg::Annotation{k, host_.id(), /*truthful=*/true});
  }
  m.set_true_keywords(std::move(truth));
  host_.mark_seen(id);
  auto outcome = host_.buffer().add(std::move(m), /*own=*/true);
  DTNIC_REQUIRE_MSG(outcome.result == msg::MessageBuffer::AddResult::kAdded,
                    "message does not fit in the device buffer");
  msg::Message* stored = host_.buffer().find_mutable(id);
  DTNIC_ASSERT(stored != nullptr);
  fanout_.on_created(*stored);
  host_.router().on_originated(host_, *stored, now);
  return id;
}

void LiveNode::send_frame(PeerState& ps, const wire::Frame& f) {
  tx_scratch_.clear();
  wire::encode_frame(f, tx_scratch_);
  socket_.send_to(ps.endpoint, tx_scratch_);
}

void LiveNode::send_hello(PeerState& ps) {
  wire::HelloFrame hello;
  hello.node = host_.id();
  hello.proto = wire::kProtocolVersion;
  hello.rank = host_.rank();
  hello.keyword_pool_hash = pool_hash_;
  send_frame(ps, hello);
}

void LiveNode::link_up_actions(PeerState& ps, SimTime now) {
  // ChitChat link-up: ship our full interest table so the peer can run its
  // growth phase and plan against our strengths.
  wire::InterestDigestFrame digest;
  digest.node = host_.id();
  // Both tables iterate in ascending id order, so frames are reproducible
  // (golden tests, tcpdump diffing).
  chitchat_->interests().for_each([&digest](msg::KeywordId k, double w, bool direct) {
    digest.entries.push_back(wire::InterestEntry{k, w, direct});
  });
  send_frame(ps, digest);

  if (incentive_ != nullptr && world_.drm.enabled) {
    wire::RatingGossipFrame gossip;
    gossip.node = host_.id();
    incentive_->ratings().for_each([&gossip](NodeId node, double rating) {
      gossip.entries.push_back(wire::RatingEntry{node, rating});
    });
    send_frame(ps, gossip);
  }
  (void)now;
}

void LiveNode::link_down(PeerState& ps) {
  ps.up = false;
  // In-flight transfers with this peer die with the link.
  for (auto it = outgoing_.begin(); it != outgoing_.end();) {
    if (it->first.first == ps.peer.id().value()) {
      fanout_.on_aborted(host_.id(), ps.peer.id(), msg::MessageId(it->first.second));
      it = outgoing_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = incoming_.begin(); it != incoming_.end();) {
    if (it->first.first == ps.peer.id().value()) {
      fanout_.on_aborted(ps.peer.id(), host_.id(), msg::MessageId(it->first.second));
      it = incoming_.erase(it);
    } else {
      ++it;
    }
  }
}

void LiveNode::service(SimTime now) {
  now_ = now;

  // 1. Drain the socket.
  while (auto datagram = socket_.receive()) {
    handle_datagram(datagram->from, datagram->bytes, now);
  }

  // 2. Expire links that went silent.
  for (auto& [id, ps] : peers_) {
    if (ps->up && (now - ps->last_heard).sec() > cfg_.peer_timeout_s) {
      link_down(*ps);
    }
  }

  // 3. Keepalives (and the initial discovery HELLO).
  for (auto& [id, ps] : peers_) {
    if (now >= ps->next_hello) {
      send_hello(*ps);
      ps->next_hello = now + SimTime::seconds(cfg_.hello_interval_s);
    }
  }

  // 4. Periodic re-plan: messages published after the digest exchange get
  //    offered on the next round (the offered-set keeps this idempotent).
  if (now >= next_plan_) {
    for (auto& [id, ps] : peers_) {
      if (ps->up) plan_and_offer(*ps, now);
    }
    next_plan_ = now + SimTime::seconds(cfg_.hello_interval_s);
  }

  // 5. Advance paced DATA transfers.
  pump_transfers(now);
}

void LiveNode::shutdown(SimTime now) {
  (void)now;
  for (auto& [id, ps] : peers_) {
    if (ps->up) {
      send_frame(*ps, wire::ByeFrame{host_.id()});
      link_down(*ps);
    }
  }
}

void LiveNode::handle_datagram(const Endpoint& from, std::span<const std::uint8_t> bytes,
                               SimTime now) {
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    auto decoded = wire::decode_frame(bytes.subspan(offset));
    if (!decoded) {
      ++rejected_frames_;
      return;  // a corrupt prefix poisons the rest of the datagram
    }
    offset += decoded->consumed;

    if (const auto* hello = std::get_if<wire::HelloFrame>(&decoded->frame)) {
      // HELLO binds (node id -> endpoint); everything else resolves the
      // sender by source endpoint. Ranks start at 1 (Table 3.1); a lower one
      // would fail the promise computation's precondition on the next plan.
      if (hello->proto != wire::kProtocolVersion || hello->keyword_pool_hash != pool_hash_ ||
          !hello->node.valid() || hello->node == host_.id() || hello->rank < 1) {
        ++rejected_frames_;
        continue;
      }
      auto it = peers_.find(hello->node.value());
      if (it == peers_.end()) {
        it = peers_
                 .emplace(hello->node.value(),
                          std::make_unique<PeerState>(hello->node, cfg_.scenario.chitchat, from))
                 .first;
      }
      handle_hello(*it->second, *hello, now);
      it->second->endpoint = from;
      continue;
    }

    PeerState* ps = find_peer_by_endpoint(from);
    if (ps == nullptr) {
      ++rejected_frames_;  // no HELLO handshake yet: sender unknown
      continue;
    }
    ps->last_heard = now;
    std::visit(
        [&](const auto& frame) {
          using T = std::decay_t<decltype(frame)>;
          if constexpr (std::is_same_v<T, wire::ByeFrame>) {
            link_down(*ps);
          } else if constexpr (std::is_same_v<T, wire::InterestDigestFrame>) {
            handle_digest(*ps, frame, now);
          } else if constexpr (std::is_same_v<T, wire::RatingGossipFrame>) {
            handle_gossip(*ps, frame);
          } else if constexpr (std::is_same_v<T, wire::OfferFrame>) {
            handle_offer(*ps, frame, now);
          } else if constexpr (std::is_same_v<T, wire::OfferReplyFrame>) {
            handle_offer_reply(*ps, frame, now);
          } else if constexpr (std::is_same_v<T, wire::DataFrame>) {
            handle_data(*ps, frame, now);
          } else if constexpr (std::is_same_v<T, wire::ReceiptFrame>) {
            handle_receipt(*ps, frame);
          }
        },
        decoded->frame);
  }
}

void LiveNode::handle_hello(PeerState& ps, const wire::HelloFrame& f, SimTime now) {
  ps.last_heard = now;
  ps.peer.set_rank(f.rank);
  if (!ps.up) {
    ps.up = true;
    // Answer promptly so the peer's link comes up without waiting a full
    // keepalive interval, then exchange state.
    ps.next_hello = now;
    link_up_actions(ps, now);
  }
}

void LiveNode::handle_digest(PeerState& ps, const wire::InterestDigestFrame& f, SimTime now) {
  // The digest sizes the reconstructed table, so only the agreed pool's ids
  // and weights the growth algorithm can produce are admitted.
  const double max_weight = cfg_.scenario.chitchat.max_weight;
  for (const wire::InterestEntry& e : f.entries) {
    if (e.keyword.value() >= pool_.size() || !std::isfinite(e.weight) || e.weight < 0.0 ||
        e.weight > max_weight) {
      ++rejected_frames_;
      return;
    }
  }
  ps.peer.apply_digest(f, now);

  // The peer's direct interests define it as a destination (the simulator's
  // shared StaticInterestOracle, fed here from the wire).
  std::vector<msg::KeywordId> directs;
  for (const wire::InterestEntry& e : f.entries) {
    if (e.direct) directs.push_back(e.keyword);
  }
  oracle_.set_interests(ps.peer.id(), std::move(directs));

  // ChitChat growth phase against the reconstructed table, as on_link_up
  // would run it in-process (growth also refreshes shared last-seen stamps).
  const auto* table = ps.peer.interest_table();
  DTNIC_ASSERT(table != nullptr);
  chitchat_->interests().grow_from(*table, now, cfg_.scenario.scan_interval_s);

  plan_and_offer(ps, now);
}

void LiveNode::handle_gossip(PeerState& ps, const wire::RatingGossipFrame& f) {
  if (incentive_ == nullptr || !world_.drm.enabled) return;
  // NaN survives the merge's clamp and would poison the store.
  for (const wire::RatingEntry& e : f.entries) {
    if (!e.node.valid() || !std::isfinite(e.rating)) {
      ++rejected_frames_;
      return;
    }
  }
  for (const wire::RatingEntry& e : f.entries) {
    if (e.node == host_.id() || e.node == ps.peer.id()) continue;
    incentive_->ratings().merge_remote(e.node, e.rating);
  }
}

void LiveNode::plan_and_offer(PeerState& ps, SimTime now) {
  std::vector<routing::ForwardPlan> plans;
  chitchat_->plan_for_peer(host_, ps.peer, now, plans);
  for (const routing::ForwardPlan& plan : plans) {
    if (ps.offered.count(plan.message) > 0) continue;
    const msg::Message* m = host_.buffer().find(plan.message);
    if (m == nullptr) continue;
    ps.offered.insert(plan.message);

    wire::OfferFrame offer;
    offer.message = m->id();
    offer.source = m->source();
    offer.created_at = m->created_at();
    offer.size_bytes = m->size_bytes();
    offer.priority = m->priority();
    offer.quality = m->quality();
    offer.role = plan.role;
    offer.promise = plan.promise;
    offer.prepay = plan.prepay;
    send_frame(ps, offer);

    OutgoingTransfer ot;
    ot.to = ps.peer.id();
    ot.plan = plan;
    outgoing_[transfer_key(ps.peer.id(), plan.message)] = std::move(ot);
  }
}

void LiveNode::handle_offer(PeerState& ps, const wire::OfferFrame& f, SimTime now) {
  // The offering peer carries the message.
  ps.peer.mark_seen(f.message);

  // Skeleton copy for the admission gate: identity and payload metadata are
  // all accept() reads (duplicate check, buffer admission, affordability).
  msg::Message skeleton(f.message, f.source, f.created_at, f.size_bytes, f.priority,
                        f.quality);
  routing::ForwardPlan plan;
  plan.message = f.message;
  plan.role = f.role;
  plan.promise = f.promise;
  plan.prepay = f.prepay;
  const routing::AcceptDecision decision =
      host_.router().accept(host_, ps.peer, skeleton, plan, now);

  send_frame(ps, wire::OfferReplyFrame{f.message, decision});
  if (decision == routing::AcceptDecision::kAccept) {
    IncomingTransfer in;
    in.offer = f;
    incoming_[transfer_key(ps.peer.id(), f.message)] = std::move(in);
  }
}

void LiveNode::handle_offer_reply(PeerState& ps, const wire::OfferReplyFrame& f,
                                  SimTime now) {
  const auto key = transfer_key(ps.peer.id(), f.message);
  auto it = outgoing_.find(key);
  if (it == outgoing_.end()) return;
  OutgoingTransfer& ot = it->second;

  const msg::Message* m = host_.buffer().find(f.message);
  if (m == nullptr) {  // evicted while the offer was in flight
    fanout_.on_aborted(host_.id(), ps.peer.id(), f.message);
    outgoing_.erase(it);
    return;
  }

  if (f.decision != routing::AcceptDecision::kAccept) {
    if (f.decision == routing::AcceptDecision::kDuplicate) ps.peer.mark_seen(f.message);
    fanout_.on_refused(host_.id(), ps.peer.id(), *m, f.decision);
    outgoing_.erase(it);
    return;
  }

  fanout_.on_transfer_started(host_.id(), ps.peer.id(), *m, ot.plan.role);
  ot.encoded = wire::encode_message(*m);
  ot.chunk_count = static_cast<std::uint32_t>(
      (ot.encoded.size() + cfg_.chunk_bytes - 1) / cfg_.chunk_bytes);
  if (ot.chunk_count == 0) ot.chunk_count = 1;
  ot.accepted = true;
  ot.next_send = now;
}

void LiveNode::pump_transfers(SimTime now) {
  for (auto& [key, ot] : outgoing_) {
    if (!ot.accepted || ot.awaiting_receipt) continue;
    PeerState* ps = find_peer(ot.to);
    if (ps == nullptr || !ps->up) continue;
    while (ot.next_chunk < ot.chunk_count && now >= ot.next_send) {
      const std::size_t begin = static_cast<std::size_t>(ot.next_chunk) * cfg_.chunk_bytes;
      const std::size_t end = std::min(ot.encoded.size(), begin + cfg_.chunk_bytes);
      wire::DataFrame chunk;
      chunk.message = msg::MessageId(key.second);
      chunk.chunk_index = ot.next_chunk;
      chunk.chunk_count = ot.chunk_count;
      chunk.payload.assign(ot.encoded.begin() + static_cast<std::ptrdiff_t>(begin),
                           ot.encoded.begin() + static_cast<std::ptrdiff_t>(end));
      send_frame(*ps, chunk);
      ++ot.next_chunk;
      // Pace chunks at the configured radio bitrate, as the simulator's
      // TransferManager would stretch the same bytes over contact time.
      const double chunk_s =
          static_cast<double>(end - begin) / cfg_.scenario.radio.bitrate_bps;
      ot.next_send = ot.next_send + SimTime::seconds(chunk_s);
      if (ot.next_send < now) ot.next_send = now;
    }
    if (ot.next_chunk == ot.chunk_count) ot.awaiting_receipt = true;
  }
}

void LiveNode::handle_data(PeerState& ps, const wire::DataFrame& f, SimTime now) {
  auto it = incoming_.find(transfer_key(ps.peer.id(), f.message));
  if (it == incoming_.end()) return;  // never offered/accepted: drop
  IncomingTransfer& in = it->second;
  if (in.chunk_count == 0) in.chunk_count = f.chunk_count;
  // Loopback/low-loss phase 1: chunks are expected in order; anything else
  // aborts the transfer (the sender's receipt timeout is link teardown).
  if (f.chunk_count != in.chunk_count || f.chunk_index != in.chunks_seen) {
    ++rejected_frames_;
    incoming_.erase(it);
    return;
  }
  in.bytes.insert(in.bytes.end(), f.payload.begin(), f.payload.end());
  ++in.chunks_seen;
  if (in.chunks_seen < in.chunk_count) return;

  auto message = wire::decode_message(in.bytes);
  const wire::OfferFrame offer = in.offer;
  incoming_.erase(it);
  if (!message || message->id() != offer.message) {
    ++rejected_frames_;
    return;
  }
  deliver_received(ps, offer, std::move(*message), now);
}

void LiveNode::deliver_received(PeerState& ps, const wire::OfferFrame& offer, msg::Message m,
                                SimTime now) {
  m.record_hop(host_.id(), now);
  host_.mark_seen(m.id());

  if (offer.role == TransferRole::kDestination) {
    fanout_.on_delivered(ps.peer.id(), host_.id(), m);
  } else {
    fanout_.on_relayed(ps.peer.id(), host_.id(), m);
  }

  // Token settlement (incentive scheme): the receiver pays and tells the
  // sender with a RECEIPT; the sender credits on receipt. A RECEIPT is sent
  // even for zero amounts — it doubles as the transfer-complete ack.
  double paid = 0.0;
  if (incentive_ != nullptr) {
    if (offer.role == TransferRole::kDestination) {
      const auto& my_interests = oracle_.interests_of(host_.id());
      int relevant_added = 0;
      for (const msg::Annotation& a : m.annotations()) {
        if (a.annotator == m.source()) continue;
        if (my_interests.count(a.keyword) > 0) ++relevant_added;
      }
      const double i_t = core::tag_reward(world_.incentive, relevant_added);
      const double factor = core::award_factor(
          world_.drm, m.path_ratings(), incentive_->ratings().rating_of(ps.peer.id()));
      const double award = factor * (offer.promise + i_t);
      if (award > 0.0) {
        paid = incentive_->ledger().debit(award);
        fanout_.on_tokens_paid(host_.id(), ps.peer.id(), paid);
      }
    } else if (offer.prepay > 0.0) {
      paid = incentive_->ledger().debit(offer.prepay);
      fanout_.on_tokens_paid(host_.id(), ps.peer.id(), paid);
    }
  }
  send_frame(ps, wire::ReceiptFrame{m.id(), offer.role, paid});

  rate_and_record(m);
  host_.buffer().add(std::move(m), /*own=*/false);
}

void LiveNode::rate_and_record(msg::Message& m) {
  if (incentive_ == nullptr || !world_.drm.enabled) return;
  // Deterministic per-(user, message) judgement stream, like the operator
  // facade's RateMessage: reproducible without cross-daemon RNG state.
  util::Rng rng(m.id().value() ^ host_.id().value());
  core::RatingStore& ratings = incentive_->ratings();

  const double r_src = core::MessageJudgement::rate_source(m, world_.drm, rng);
  ratings.add_message_rating(m.source(), r_src);
  m.add_path_rating(msg::PathRating{host_.id(), m.source(), r_src});
  fanout_.on_reputation_updated(host_.id(), m.source(), ratings.rating_of(m.source()));

  std::vector<NodeId> rated;
  for (const msg::Annotation& a : m.annotations()) {
    if (a.annotator == m.source() || a.annotator == host_.id()) continue;
    if (std::find(rated.begin(), rated.end(), a.annotator) != rated.end()) continue;
    rated.push_back(a.annotator);
    const double r = core::MessageJudgement::rate_annotator(m, a.annotator, world_.drm, rng);
    ratings.add_message_rating(a.annotator, r);
    m.add_path_rating(msg::PathRating{host_.id(), a.annotator, r});
    fanout_.on_reputation_updated(host_.id(), a.annotator, ratings.rating_of(a.annotator));
  }
}

void LiveNode::handle_receipt(PeerState& ps, const wire::ReceiptFrame& f) {
  auto it = outgoing_.find(transfer_key(ps.peer.id(), f.message));
  if (it == outgoing_.end()) return;
  const routing::ForwardPlan& plan = it->second.plan;
  if (!std::isfinite(f.amount) || f.amount < 0.0 || f.role != plan.role) {
    ++rejected_frames_;
    return;
  }
  // The amount is the peer's claim. Credit no more than this node's own plan
  // bounds: a destination pays award_factor (<= 1) times the promise plus a
  // tag reward of at most tag_reward_cap; a relay pays the agreed prepay.
  if (incentive_ != nullptr && f.amount > 0.0) {
    const double bound = plan.role == TransferRole::kDestination
                             ? plan.promise + world_.incentive.tag_reward_cap
                             : plan.prepay;
    incentive_->ledger().credit(std::min(f.amount, bound));
  }
  outgoing_.erase(it);
}

LiveNode::PeerState* LiveNode::find_peer(NodeId id) {
  auto it = peers_.find(id.value());
  return it == peers_.end() ? nullptr : it->second.get();
}

LiveNode::PeerState* LiveNode::find_peer_by_endpoint(const Endpoint& ep) {
  for (auto& [id, ps] : peers_) {
    if (ps->endpoint == ep) return ps.get();
  }
  return nullptr;
}

bool LiveNode::link_up(NodeId peer) const {
  auto it = peers_.find(peer.value());
  return it != peers_.end() && it->second->up;
}

std::size_t LiveNode::links_up() const {
  std::size_t n = 0;
  for (const auto& [id, ps] : peers_) n += ps->up ? 1 : 0;
  return n;
}

double LiveNode::tokens() const {
  return incentive_ != nullptr ? incentive_->ledger().balance() : 0.0;
}

}  // namespace dtnic::live
