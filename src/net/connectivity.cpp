#include "net/connectivity.h"

#include <algorithm>

#include "util/assert.h"
#include "util/timing.h"

namespace dtnic::net {

ConnectivityManager::ConnectivityManager(sim::Simulator& sim, const RadioParams& radio,
                                         util::SimTime scan_interval)
    : sim_(sim), radio_(radio), scan_interval_(scan_interval), grid_(radio.range_m) {
  DTNIC_REQUIRE(radio.range_m > 0.0);
  DTNIC_REQUIRE(scan_interval > util::SimTime::zero());
}

void ConnectivityManager::add_node(NodeId id, mobility::MobilityModel* mobility) {
  DTNIC_REQUIRE(id.valid());
  DTNIC_REQUIRE_MSG(mobility != nullptr, "mobility model required");
  DTNIC_REQUIRE_MSG(!node_index_.count(id), "node already registered");
  node_index_.emplace(id, nodes_.size());
  nodes_.push_back(NodeEntry{id, mobility});
}

std::uint64_t ConnectivityManager::pair_key(NodeId a, NodeId b) {
  const auto lo = std::min(a.value(), b.value());
  const auto hi = std::max(a.value(), b.value());
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

void ConnectivityManager::start() {
  DTNIC_REQUIRE_MSG(!scan_task_.valid(), "already started");
  scan_task_ = sim_.schedule_every_from(sim_.now(), scan_interval_, [this] { scan(); });
}

void ConnectivityManager::stop() {
  if (scan_task_.valid()) {
    sim_.cancel(scan_task_);
    scan_task_ = {};
  }
}

void ConnectivityManager::scan() {
  const util::ScopedTimer timer(scan_ns_);
  ++scans_;
  const util::SimTime now = sim_.now();

  refresh_positions(now);
  grid_.pairs_within(radio_.range_m, scan_pairs_);  // sorted by (lo, hi)

  // One linear merge of the previous and current sorted pair lists replaces
  // the per-scan hash-set diff. Fresh encounters fire link_up immediately
  // (in sorted order); vanished pairs are collected and torn down after, so
  // the up-then-down phase structure of a scan is preserved.
  next_pairs_.clear();
  downs_.clear();
  auto prev = pairs_.cbegin();
  const auto prev_end = pairs_.cend();
  for (const SpatialGrid::Pair& p : scan_pairs_) {
    const std::uint64_t key = pair_key(p.a, p.b);
    while (prev != prev_end && prev->key < key) {
      if (prev->state == PairState::kConnected) downs_.push_back(prev->key);
      ++prev;
    }
    if (prev != prev_end && prev->key == key) {  // already connected or suppressed
      next_pairs_.push_back(*prev);
      ++prev;
      continue;
    }
    // Fresh encounter: each endpoint decides whether its radio participates.
    const bool participates = !gate_ || (gate_(p.a) && gate_(p.b));
    if (!participates) {
      next_pairs_.push_back(PairRec{key, PairState::kSuppressed});
      ++contacts_suppressed_;
      continue;
    }
    next_pairs_.push_back(PairRec{key, PairState::kConnected});
    add_adjacency(p.a, p.b);
    add_adjacency(p.b, p.a);
    ++links_;
    ++contacts_formed_;
    if (link_up_) link_up_(p.a, p.b, p.distance_m);
  }
  while (prev != prev_end) {
    if (prev->state == PairState::kConnected) downs_.push_back(prev->key);
    ++prev;
  }
  pairs_.swap(next_pairs_);

  // Tear down pairs that moved out of range (suppressed pairs vanish
  // silently, as before). downs_ inherits the sorted key order.
  for (const std::uint64_t key : downs_) {
    const NodeId a(static_cast<util::NodeId::underlying>(key >> 32));
    const NodeId b(static_cast<util::NodeId::underlying>(key & 0xffffffffULL));
    drop_adjacency(a, b);
    drop_adjacency(b, a);
    --links_;
    if (link_down_) link_down_(a, b);
  }
}

void ConnectivityManager::refresh_positions(util::SimTime now) {
  // Refresh positions: one mobility query per node, cached for the rest of
  // the tick; the grid moves only nodes whose cell changed. Nodes added
  // since the last scan get their grid slot on first sight.
  positions_.resize(nodes_.size());
  const std::size_t tracked = grid_slots_.size();  // nodes already in the grid
  for (std::size_t i = 0; i < tracked; ++i) {
    const util::Vec2 p = nodes_[i].mobility->position_at(now);
    positions_[i] = p;
    grid_.update_slot(grid_slots_[i], p);
  }
  for (std::size_t i = tracked; i < nodes_.size(); ++i) {
    const util::Vec2 p = nodes_[i].mobility->position_at(now);
    positions_[i] = p;
    grid_slots_.push_back(grid_.insert(nodes_[i].id, p));
  }
  positions_time_ = now;
  positions_cached_ = true;
}

void ConnectivityManager::add_adjacency(NodeId node, NodeId neighbor) {
  auto& list = adjacency_[node];
  list.insert(std::upper_bound(list.begin(), list.end(), neighbor), neighbor);
}

void ConnectivityManager::drop_adjacency(NodeId node, NodeId neighbor) {
  const auto it = adjacency_.find(node);
  if (it == adjacency_.end()) return;
  auto& list = it->second;
  const auto pos = std::lower_bound(list.begin(), list.end(), neighbor);
  if (pos != list.end() && *pos == neighbor) list.erase(pos);
  if (list.empty()) adjacency_.erase(it);
}

bool ConnectivityManager::connected(NodeId a, NodeId b) const {
  const auto it = adjacency_.find(a);
  if (it == adjacency_.end()) return false;
  return std::binary_search(it->second.begin(), it->second.end(), b);
}

std::vector<NodeId> ConnectivityManager::neighbors_of(NodeId id) const {
  const auto it = adjacency_.find(id);
  if (it == adjacency_.end()) return {};
  return it->second;  // maintained sorted; no per-call sort
}

std::vector<std::pair<NodeId, NodeId>> ConnectivityManager::connected_pairs() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(links_);
  // pairs_ is sorted by key == lexicographic (lo, hi) order.
  for (const PairRec& rec : pairs_) {
    if (rec.state != PairState::kConnected) continue;
    out.emplace_back(NodeId(static_cast<util::NodeId::underlying>(rec.key >> 32)),
                     NodeId(static_cast<util::NodeId::underlying>(rec.key & 0xffffffffULL)));
  }
  return out;
}

util::Vec2 ConnectivityManager::position_of(NodeId id) {
  const auto it = node_index_.find(id);
  DTNIC_REQUIRE_MSG(it != node_index_.end(), "unknown node");
  if (positions_cached_ && positions_time_ == sim_.now() && it->second < positions_.size()) {
    return positions_[it->second];
  }
  return nodes_[it->second].mobility->position_at(sim_.now());
}

}  // namespace dtnic::net
