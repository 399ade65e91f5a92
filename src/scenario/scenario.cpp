#include "scenario/scenario.h"

#include <algorithm>
#include <chrono>

#include "core/enrichment.h"
#include "mobility/hotspot.h"
#include "mobility/random_walk.h"
#include "mobility/random_waypoint.h"
#include "routing/chitchat/chitchat_router.h"
#include "scenario/router_factory.h"
#include "util/assert.h"
#include "util/logging.h"
#include "util/summary.h"
#include "util/timing.h"

namespace dtnic::scenario {

using routing::Host;
using routing::NodeId;
using util::SimTime;

namespace {
/// Stable stream tags for forking the master RNG; adding a consumer at the
/// end never perturbs earlier streams.
enum StreamTag : std::uint64_t {
  kMobilityStream = 1,
  kWorkloadStream = 2,
  kGateStream = 3,
  kBehaviorStream = 4,
  kInterestStream = 5,
  kRouterStream = 6,
};
}  // namespace

Scenario::Scenario(const ScenarioConfig& config)
    : cfg_(config), master_rng_(config.seed), gate_rng_(0) {
  cfg_.validate();
  // Before the first sample, malicious nodes sit at the rating-scale prior —
  // queries ahead of a run's sample grid (Fig. 5.4 cross-seed averaging)
  // must see that prior, not the first observed value.
  malicious_rating_series_.set_initial_value(cfg_.drm.default_rating);
  build();
}

std::uint64_t Scenario::pair_key(NodeId a, NodeId b) {
  const auto lo = std::min(a.value(), b.value());
  const auto hi = std::max(a.value(), b.value());
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

Host& Scenario::host(NodeId id) {
  DTNIC_REQUIRE_MSG(id.valid() && id.value() < hosts_.size(),
                    "unknown host id " + std::to_string(id.value()) + " of " +
                        std::to_string(hosts_.size()));
  return *hosts_[id.value()];
}

const core::BehaviorProfile& Scenario::behavior_of(NodeId id) const {
  DTNIC_REQUIRE_MSG(id.valid() && id.value() < behaviors_.size(), "unknown host id");
  return behaviors_[id.value()];
}

void Scenario::make_router(std::size_t index) {
  RouterBuildContext ctx;
  ctx.cfg = &cfg_;
  ctx.oracle = &oracle_;
  ctx.contact_quantum = SimTime::seconds(cfg_.scan_interval_s);
  ctx.world = &world_;
  ctx.pi_bank = &pi_bank_;
  ctx.behavior = behaviors_[index];
  ctx.master_rng = &master_rng_;
  ctx.rng_stream_tag = kRouterStream;
  ctx.node_index = index;
  hosts_[index]->set_router(build_router(ctx));
}

void Scenario::build() {
  DTNIC_ASSERT(!built_);
  built_ = true;

  // The metrics collector is the fan-out's first sink, so every other
  // observer sees events after the run-wide counters are updated.
  metrics_sink_ = fanout_.add_sink(metrics_);

  pool_ = keywords_.make_pool(cfg_.keyword_pool_size);
  gate_rng_ = master_rng_.fork(kGateStream);

  world_.incentive = cfg_.incentive;
  world_.drm = cfg_.drm;
  world_.radio = cfg_.radio;
  world_.keyword_pool = &pool_;
  world_.enrichment_enabled = cfg_.enrichment_enabled;
  world_.neighbors = [this](NodeId id, std::vector<Host*>& out) {
    fill_neighbor_hosts(id, out);
  };
  world_.host_by_id = [this](NodeId id) -> Host* {
    return id.valid() && id.value() < hosts_.size() ? hosts_[id.value()].get() : nullptr;
  };

  net::ConnectivityManager* manager = nullptr;
  if (cfg_.contact_trace_file.empty()) {
    auto owned = std::make_unique<net::ConnectivityManager>(
        sim_, cfg_.radio, SimTime::seconds(cfg_.scan_interval_s));
    manager = owned.get();
    connectivity_ = manager;
    contacts_ = std::move(owned);
  } else {
    auto scripted = std::make_unique<net::ScriptedConnectivity>(
        sim_, net::ScriptedConnectivity::load_file(cfg_.contact_trace_file));
    DTNIC_REQUIRE_MSG(!scripted->max_node().valid() ||
                          scripted->max_node().value() < cfg_.num_nodes,
                      "contact trace references a node beyond num_nodes");
    contacts_ = std::move(scripted);
  }
  transfers_ = std::make_unique<net::TransferManager>(sim_, cfg_.radio.bitrate_bps);

  // Hosts, mobility, behaviors, routers.
  const mobility::Area area{cfg_.area_side_m, cfg_.area_side_m};
  util::Rng mobility_rng = master_rng_.fork(kMobilityStream);

  // Movement-model factory; nodes share hotspot locations (one fork) but
  // have independent movement streams.
  std::vector<util::Vec2> hotspots;
  if (cfg_.mobility == MobilityKind::kHotspot) {
    util::Rng hotspot_rng = mobility_rng.fork(0xfeed);
    hotspots = mobility::HotspotMobility::generate_hotspots(area, cfg_.hotspot_count,
                                                            hotspot_rng);
  }
  auto make_mobility = [&](std::size_t i) -> std::unique_ptr<mobility::MobilityModel> {
    switch (cfg_.mobility) {
      case MobilityKind::kRandomWalk: {
        mobility::RandomWalkParams p;
        p.area = area;
        p.min_speed_mps = cfg_.min_speed_mps;
        p.max_speed_mps = cfg_.max_speed_mps;
        return std::make_unique<mobility::RandomWalk>(p, mobility_rng.fork(i));
      }
      case MobilityKind::kHotspot: {
        mobility::HotspotParams p;
        p.area = area;
        p.hotspots = hotspots;
        p.hotspot_radius_m = cfg_.hotspot_radius_m;
        p.hotspot_probability = cfg_.hotspot_probability;
        p.min_speed_mps = cfg_.min_speed_mps;
        p.max_speed_mps = cfg_.max_speed_mps;
        p.max_pause_s = cfg_.max_pause_s;
        return std::make_unique<mobility::HotspotMobility>(p, mobility_rng.fork(i));
      }
      case MobilityKind::kRandomWaypoint:
      default: {
        mobility::RandomWaypointParams p;
        p.area = area;
        p.min_speed_mps = cfg_.min_speed_mps;
        p.max_speed_mps = cfg_.max_speed_mps;
        p.max_pause_s = cfg_.max_pause_s;
        return std::make_unique<mobility::RandomWaypoint>(p, mobility_rng.fork(i));
      }
    }
  };

  util::Rng workload_rng = master_rng_.fork(kWorkloadStream);
  hosts_.reserve(cfg_.num_nodes);
  // The incentive scheme stores priority-aware (paper §5.F: "our approach
  // prioritizes messages based on the quality as well as the assigned
  // priority"); the baselines keep ONE's FIFO drop.
  const msg::DropPolicy drop_policy = cfg_.scheme == Scheme::kIncentive
                                          ? msg::DropPolicy::kLowPriorityFirst
                                          : msg::DropPolicy::kFifoOldest;
  for (std::size_t i = 0; i < cfg_.num_nodes; ++i) {
    const NodeId id(static_cast<util::NodeId::underlying>(i));
    hosts_.push_back(
        std::make_unique<Host>(id, cfg_.buffer_capacity_bytes, drop_policy, fanout_));
    hosts_.back()->battery().reset(cfg_.battery_capacity_j);
    if (manager != nullptr) {
      mobility_.push_back(make_mobility(i));
      manager->add_node(id, mobility_.back().get());
    }
    workload_rng_.push_back(workload_rng.fork(i));
  }

  // Behaviors must exist before routers (IncentiveRouter captures profile).
  behaviors_.assign(cfg_.num_nodes, core::BehaviorProfile{});
  // First pass assigns behaviors/interests after routers for ChitChat seeding,
  // but IncentiveRouter needs its behavior at construction: assign behavior
  // types first, then construct routers, then interests.
  {
    // Assign behaviors (without interests yet).
    const std::size_t n = cfg_.num_nodes;
    util::Rng behavior_rng = master_rng_.fork(kBehaviorStream);
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    behavior_rng.shuffle(order);
    const auto selfish_count = static_cast<std::size_t>(cfg_.selfish_fraction *
                                                        static_cast<double>(n) + 0.5);
    const auto malicious_count = static_cast<std::size_t>(cfg_.malicious_fraction *
                                                          static_cast<double>(n) + 0.5);
    const auto battery_count = static_cast<std::size_t>(cfg_.battery_conscious_fraction *
                                                        static_cast<double>(n) + 0.5);
    for (std::size_t i = 0; i < n; ++i) {
      core::BehaviorProfile profile;
      if (i < selfish_count) {
        profile.type = core::BehaviorType::kSelfish;
      } else if (i < selfish_count + malicious_count) {
        profile.type = core::BehaviorType::kMalicious;
      } else if (i < selfish_count + malicious_count + battery_count) {
        profile.type = core::BehaviorType::kBatteryConscious;
      }
      profile.selfish_participation = cfg_.selfish_participation;
      profile.enrich_probability = cfg_.enrich_probability;
      profile.honest_max_tags = cfg_.honest_max_tags;
      profile.malicious_tags = cfg_.malicious_tags;
      profile.battery_threshold = cfg_.battery_threshold;
      profile.battery_participation = cfg_.battery_participation;
      behaviors_[order[i]] = profile;
    }

    behavior_rng.shuffle(order);
    const auto officer_count = static_cast<std::size_t>(cfg_.officer_fraction *
                                                        static_cast<double>(n) + 0.5);
    for (std::size_t i = 0; i < n; ++i) {
      hosts_[order[i]]->set_rank(i < officer_count ? 1 : 2);
    }

    source_class_.assign(n, 1);
    if (cfg_.priority_workload) {
      behavior_rng.shuffle(order);
      for (std::size_t i = 0; i < n; ++i) {
        const double frac = static_cast<double>(i) / static_cast<double>(n);
        source_class_[order[i]] = frac < 0.5 ? 0 : (frac < 0.8 ? 1 : 2);
      }
    }
  }

  for (std::size_t i = 0; i < cfg_.num_nodes; ++i) make_router(i);

  // Direct interests (oracle + ChitChat tables).
  {
    util::Rng interest_rng = master_rng_.fork(kInterestStream);
    for (std::size_t i = 0; i < cfg_.num_nodes; ++i) {
      const auto picks = interest_rng.sample_indices(pool_.size(), cfg_.interests_per_node);
      std::vector<msg::KeywordId> interests;
      interests.reserve(picks.size());
      for (std::size_t p : picks) interests.push_back(pool_[p]);
      oracle_.set_interests(hosts_[i]->id(), interests);
      if (auto* chitchat = routing::ChitChatRouter::of(*hosts_[i]); chitchat != nullptr) {
        chitchat->set_direct_interests(interests, SimTime::zero());
      }
    }
  }

  // Participation gate: selfish radios open 1-in-10 fresh encounters;
  // battery-conscious radios economize once their charge runs low.
  contacts_->set_participation_gate([this](NodeId id) {
    const core::BehaviorProfile& b = behaviors_[id.value()];
    if (b.selfish()) return gate_rng_.chance(b.selfish_participation);
    if (b.battery_conscious() &&
        hosts_[id.value()]->battery().level() < b.battery_threshold) {
      return gate_rng_.chance(b.battery_participation);
    }
    return true;
  });

  contacts_->on_link_up([this](NodeId a, NodeId b, double d) { handle_link_up(a, b, d); });
  contacts_->on_link_down([this](NodeId a, NodeId b) { handle_link_down(a, b); });
  transfers_->on_complete([this](const net::TransferManager::Transfer& t, SimTime d) {
    handle_transfer_complete(t, d);
  });
  transfers_->on_abort([this](const net::TransferManager::Transfer& t) {
    handle_transfer_abort(t);
  });
}

void Scenario::fill_neighbor_hosts(NodeId id, std::vector<Host*>& out) {
  out.clear();
  if (connectivity_ != nullptr) {
    // Mobility-driven runs visit the live adjacency list directly; no
    // per-query NodeId vector is materialized.
    connectivity_->for_each_neighbor(
        id, [&](NodeId n) { out.push_back(hosts_[n.value()].get()); });
    return;
  }
  for (NodeId n : contacts_->neighbors_of(id)) {
    out.push_back(hosts_[n.value()].get());
  }
}

void Scenario::handle_link_up(NodeId a, NodeId b, double distance_m) {
  const util::ScopedTimer timer(routing_pre_ns_);
  const SimTime now = sim_.now();
  trace_.record_up(a, b, now);
  transfers_->link_up(a, b);

  Host& ha = host(a);
  Host& hb = host(b);
  // Pre-contact neighborhoods exclude the new peer; filled into reused
  // scratch so a contact allocates nothing here at steady state.
  auto fill_excluding = [this](NodeId self, NodeId other, std::vector<Host*>& out) {
    fill_neighbor_hosts(self, out);
    std::erase_if(out, [other](Host* h) { return h->id() == other; });
  };
  fill_excluding(a, b, neighbors_a_scratch_);
  fill_excluding(b, a, neighbors_b_scratch_);
  ha.router().pre_exchange(ha, now, neighbors_a_scratch_);
  hb.router().pre_exchange(hb, now, neighbors_b_scratch_);
  ha.router().on_link_up(ha, hb, now, distance_m);
  hb.router().on_link_up(hb, ha, now, distance_m);
  pump(a, b);
}

void Scenario::handle_link_down(NodeId a, NodeId b) {
  const util::ScopedTimer timer(routing_pre_ns_);
  const SimTime now = sim_.now();
  // Per-contact bookkeeping ends with the contact, so it stays bounded by
  // the live link count under churn (see the exchange_state_tracked probe)
  // and each fresh contact starts from the same direction-alternation state.
  link_exchange_.erase(pair_key(a, b));
  transfers_->link_down(a, b);  // aborts any in-flight transfer first
  Host& ha = host(a);
  Host& hb = host(b);
  ha.router().on_link_down(ha, hb, now);
  hb.router().on_link_down(hb, ha, now);
  trace_.record_down(a, b, now);
}

void Scenario::pump(NodeId a, NodeId b) {
  if (!transfers_->link_exists(a, b) || transfers_->link_busy(a, b)) return;
  const std::uint64_t key = pair_key(a, b);
  LinkExchange& link = link_exchange_[key];
  // Skip links whose endpoints' buffers are unchanged since the last pump
  // found nothing to send.
  const std::pair<std::uint64_t, std::uint64_t> revisions{
      host(a).buffer().revision(), host(b).buffer().revision()};
  if (link.idle_revisions == revisions) return;
  const SimTime now = sim_.now();

  Host* first = &host(link.toggle ? a : b);
  Host* second = &host(link.toggle ? b : a);
  for (Host* sender : {first, second}) {
    Host* receiver = sender == first ? second : first;
    const std::uint64_t direction_bit = sender->id() < receiver->id() ? 0 : 1;
    sender->router().plan_into(*sender, *receiver, now, plan_scratch_);
    for (const routing::ForwardPlan& plan : plan_scratch_) {
      const std::uint64_t offer_key =
          (static_cast<std::uint64_t>(plan.message.value()) << 1) | direction_bit;
      // A refused offer is not re-tried within the same contact.
      if (link.refused.count(offer_key)) continue;
      const msg::Message* m = sender->buffer().find(plan.message);
      if (m == nullptr) continue;
      const auto decision = receiver->router().accept(*receiver, *sender, *m, plan, now);
      if (decision != routing::AcceptDecision::kAccept) {
        fanout_.on_refused(sender->id(), receiver->id(), *m, decision);
        link.refused.insert(offer_key);
        continue;
      }
      pending_[key] = PendingTransfer{plan, *m};
      fanout_.on_transfer_started(sender->id(), receiver->id(), *m, plan.role);
      const bool started =
          transfers_->start(sender->id(), receiver->id(), plan.message, m->size_bytes());
      DTNIC_ASSERT(started);
      link.toggle = !link.toggle;
      link.idle_revisions.reset();
      return;
    }
  }
  link.idle_revisions = revisions;  // nothing to send until a buffer changes
}

void Scenario::pump_all_idle() {
  const util::ScopedTimer timer(exchange_ns_);
  for (const auto& [a, b] : contacts_->connected_pairs()) pump(a, b);
}

void Scenario::handle_transfer_complete(const net::TransferManager::Transfer& t,
                                        SimTime duration) {
  const util::ScopedTimer timer(transfer_ns_);
  const std::uint64_t key = pair_key(t.from, t.to);
  auto it = pending_.find(key);
  DTNIC_ASSERT(it != pending_.end());
  PendingTransfer p = std::move(it->second);
  pending_.erase(it);

  Host& sender = host(t.from);
  Host& receiver = host(t.to);
  sender.battery().consume_tx(cfg_.radio, duration);
  receiver.battery().consume_rx(cfg_.radio, duration);

  msg::Message copy = std::move(p.copy);
  copy.record_hop(receiver.id(), sim_.now());
  sender.router().prepare_send(sender, receiver, copy, p.plan, sim_.now());
  sender.router().on_sent(sender, receiver, copy, p.plan, sim_.now());
  if (p.plan.role == routing::TransferRole::kDestination) {
    fanout_.on_delivered(sender.id(), receiver.id(), copy);
  } else {
    fanout_.on_relayed(sender.id(), receiver.id(), copy);
  }
  receiver.router().on_received(receiver, sender, std::move(copy), p.plan, sim_.now());
  pump(t.from, t.to);
}

void Scenario::handle_transfer_abort(const net::TransferManager::Transfer& t) {
  const util::ScopedTimer timer(transfer_ns_);
  pending_.erase(pair_key(t.from, t.to));
  fanout_.on_aborted(t.from, t.to, t.message);
  Host& sender = host(t.from);
  Host& receiver = host(t.to);
  sender.router().on_abort(sender, receiver, t.message, sim_.now());
  receiver.router().on_abort(receiver, sender, t.message, sim_.now());
}

void Scenario::schedule_next_message(std::size_t index) {
  const double rate_per_s = cfg_.messages_per_node_per_hour / 3600.0;
  const double delay_s = workload_rng_[index].exponential(rate_per_s);
  sim_.schedule_in(SimTime::seconds(delay_s), [this, index] {
    create_message(index);
    schedule_next_message(index);
  });
}

void Scenario::create_message(std::size_t index) {
  const util::ScopedTimer timer(workload_ns_);
  Host& source = *hosts_[index];
  util::Rng& rng = workload_rng_[index];
  const SimTime now = sim_.now();

  // Source class drives size/quality/priority (Fig. 5.6 workload; otherwise
  // all sources are "medium" class with uniform quality).
  msg::Priority priority = msg::Priority::kMedium;
  double quality = rng.uniform(0.5, 1.0);
  auto size = cfg_.message_size_bytes;
  if (cfg_.priority_workload) {
    switch (source_class_[index]) {
      case 0:
        priority = msg::Priority::kHigh;
        quality = rng.uniform(0.8, 1.0);
        size = cfg_.message_size_bytes * 3 / 2;
        break;
      case 1:
        priority = msg::Priority::kMedium;
        quality = rng.uniform(0.5, 0.8);
        break;
      default:
        priority = msg::Priority::kLow;
        quality = rng.uniform(0.2, 0.5);
        size = cfg_.message_size_bytes / 2;
        break;
    }
  }
  // Malicious sources generate poor-quality content (§1.3.3).
  if (behaviors_[index].malicious()) quality = rng.uniform(0.1, 0.3);

  msg::Message m(ids_.next(), source.id(), now, size, priority, quality);
  if (cfg_.ttl_hours > 0.0) m.set_ttl(SimTime::hours(cfg_.ttl_hours));

  // The source tags the first `keywords_per_message` facts; the remaining
  // latent keywords are what knowledgeable relays can enrich with.
  const auto picks = rng.sample_indices(
      pool_.size(), cfg_.keywords_per_message + cfg_.latent_extra_keywords);
  std::vector<msg::KeywordId> truth;
  truth.reserve(picks.size());
  for (std::size_t i = 0; i < picks.size(); ++i) {
    truth.push_back(pool_[picks[i]]);
    if (i < static_cast<std::size_t>(cfg_.keywords_per_message)) {
      m.annotate(msg::Annotation{pool_[picks[i]], source.id(), /*truthful=*/true});
    }
  }
  m.set_true_keywords(std::move(truth));

  // Malicious sources also plant irrelevant tags right at creation.
  if (behaviors_[index].malicious() && cfg_.enrichment_enabled &&
      cfg_.scheme == Scheme::kIncentive) {
    core::Enricher enricher(&pool_);
    enricher.enrich_malicious(m, source.id(), behaviors_[index].malicious_tags, rng);
  }

  const msg::MessageId id = m.id();
  source.mark_seen(id);
  auto outcome = source.buffer().add(std::move(m), /*own=*/true);
  if (outcome.result != msg::MessageBuffer::AddResult::kAdded) {
    DTNIC_WARN("scenario") << "node " << source.id() << " buffer full of own messages; "
                           << "creation skipped";
    return;
  }
  for (const msg::Message& evicted : outcome.evicted) {
    fanout_.on_dropped(source.id(), evicted, routing::DropReason::kBufferFull);
  }
  const msg::Message* stored = source.buffer().find(id);
  DTNIC_ASSERT(stored != nullptr);
  fanout_.on_created(*stored);
  source.router().on_originated(source, *stored, now);
  // A fresh message may be immediately forwardable on active contacts.
  for (NodeId neighbor : contacts_->neighbors_of(source.id())) {
    pump(source.id(), neighbor);
  }
}

void Scenario::ttl_sweep() {
  if (cfg_.ttl_hours <= 0.0) return;
  const SimTime now = sim_.now();
  for (auto& h : hosts_) {
    for (const msg::Message& dropped : h->buffer().drop_expired(now)) {
      fanout_.on_dropped(h->id(), dropped, routing::DropReason::kTtlExpired);
    }
  }
}

double Scenario::current_malicious_rating() const {
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (behaviors_[i].malicious()) continue;
    core::IncentiveRouter* router = core::IncentiveRouter::of(*hosts_[i]);
    if (router == nullptr) continue;
    for (std::size_t j = 0; j < hosts_.size(); ++j) {
      if (!behaviors_[j].malicious()) continue;
      const NodeId mal = hosts_[j]->id();
      if (!router->ratings().knows(mal)) continue;
      sum += router->ratings().rating_of(mal);
      ++count;
    }
  }
  if (count == 0) return cfg_.drm.default_rating;
  return sum / static_cast<double>(count);
}

double Scenario::total_tokens() const {
  double total = pi_bank_.total_held();
  for (const auto& h : hosts_) {
    if (const core::IncentiveRouter* r = core::IncentiveRouter::of(*h); r != nullptr) {
      total += r->ledger().balance();
    } else if (const core::PiRouter* pi = core::PiRouter::of(*h); pi != nullptr) {
      total += pi->ledger().balance();
    }
  }
  return total;
}

void Scenario::sample_series() {
  const SimTime now = sim_.now();
  malicious_rating_series_.add(now, current_malicious_rating());
  if ((cfg_.scheme == Scheme::kIncentive || cfg_.scheme == Scheme::kPiIncentive) &&
      !hosts_.empty()) {
    mean_tokens_series_.add(now, total_tokens() / static_cast<double>(hosts_.size()));
  }
}

RunResult Scenario::run() {
  const auto wall_start = std::chrono::steady_clock::now();
  contacts_->start();
  for (std::size_t i = 0; i < hosts_.size(); ++i) schedule_next_message(i);
  sim_.schedule_every(SimTime::seconds(cfg_.scan_interval_s), [this] { pump_all_idle(); });
  if (cfg_.ttl_hours > 0.0) {
    sim_.schedule_every(SimTime::seconds(cfg_.ttl_sweep_interval_s), [this] { ttl_sweep(); });
  }
  sample_series();
  sim_.schedule_every(SimTime::seconds(cfg_.sample_interval_s), [this] { sample_series(); });

  sim_.run_until(SimTime::hours(cfg_.sim_hours));
  sample_series();
  trace_.finalize(sim_.now());

  RunResult result;
  result.scheme = scheme_name(cfg_.scheme);
  result.seed = cfg_.seed;
  result.created = metrics_.created();
  result.delivered = metrics_.delivered_unique();
  result.mdr = metrics_.mdr();
  result.mean_hops = metrics_.mean_delivery_hops();
  result.mean_latency_s = metrics_.mean_delivery_latency_s();
  result.deliveries_total = metrics_.deliveries_total();
  result.created_high = metrics_.created_for(msg::Priority::kHigh);
  result.created_medium = metrics_.created_for(msg::Priority::kMedium);
  result.created_low = metrics_.created_for(msg::Priority::kLow);
  result.delivered_high = metrics_.delivered_for(msg::Priority::kHigh);
  result.delivered_medium = metrics_.delivered_for(msg::Priority::kMedium);
  result.delivered_low = metrics_.delivered_for(msg::Priority::kLow);
  result.mdr_high = metrics_.mdr_for(msg::Priority::kHigh);
  result.mdr_medium = metrics_.mdr_for(msg::Priority::kMedium);
  result.mdr_low = metrics_.mdr_for(msg::Priority::kLow);
  result.traffic = metrics_.traffic();
  result.relay_arrivals = metrics_.relay_arrivals();
  result.contacts = contacts_->contacts_formed();
  result.contacts_suppressed = contacts_->contacts_suppressed();
  result.tokens_paid = metrics_.tokens_paid_total();
  result.payments = metrics_.payments();
  result.refused_no_tokens = metrics_.refused_no_tokens();
  result.refused_untrusted = metrics_.refused_untrusted();
  result.aborted = metrics_.aborted();
  result.dropped_buffer = metrics_.dropped_buffer();
  result.dropped_ttl = metrics_.dropped_ttl();

  if (cfg_.scheme == Scheme::kIncentive || cfg_.scheme == Scheme::kPiIncentive) {
    std::vector<double> balances;
    balances.reserve(hosts_.size());
    for (const auto& h : hosts_) {
      if (const core::IncentiveRouter* r = core::IncentiveRouter::of(*h); r != nullptr) {
        balances.push_back(r->ledger().balance());
      } else if (const core::PiRouter* pi = core::PiRouter::of(*h); pi != nullptr) {
        balances.push_back(pi->ledger().balance());
      }
    }
    double total = 0.0;
    double lo = balances.empty() ? 0.0 : balances.front();
    double hi = lo;
    for (const double b : balances) {
      total += b;
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    }
    result.total_tokens = total + pi_bank_.total_held();
    result.avg_final_tokens = hosts_.empty() ? 0.0 : total / static_cast<double>(hosts_.size());
    result.min_final_tokens = lo;
    result.max_final_tokens = hi;
    result.token_fairness = util::jain_fairness(balances);
  }

  double energy = 0.0;
  for (const auto& h : hosts_) energy += h->battery().consumed_j();
  result.total_energy_j = energy;

  result.timing.routing_pre_ns = routing_pre_ns_;
  result.timing.routing_commit_ns = exchange_ns_;
  result.timing.routing_ns = routing_pre_ns_ + exchange_ns_;
  result.timing.transfer_ns = transfer_ns_;
  result.timing.workload_ns = workload_ns_;
  if (connectivity_ != nullptr) {
    result.timing.scan_ns = connectivity_->scan_ns();
    result.timing.scans = connectivity_->scans();
  }
  result.timing.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           wall_start)
          .count());

  result.malicious_rating = malicious_rating_series_;
  result.mean_tokens = mean_tokens_series_;
  return result;
}

}  // namespace dtnic::scenario
