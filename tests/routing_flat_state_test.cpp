/// Property test for the flat link-up containers: random interleavings of
/// every InterestTable and RatingStore mutation, checked bit-for-bit after
/// each step against a std::map reference model of the node-map semantics
/// the simulator's published outputs were produced with. Any divergence in a
/// weight, timestamp, rating, generation bump or pruning decision would
/// change every downstream RNG draw, so equality here is exact.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <vector>

#include "core/reputation.h"
#include "routing/chitchat/interest_table.h"
#include "util/rng.h"

namespace dtnic {
namespace {

using msg::KeywordId;
using routing::chitchat::ChitChatParams;
using routing::chitchat::InterestTable;
using util::NodeId;
using util::SimTime;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The node-map InterestTable: one slot per keyword in an ordered map, decay
/// against a membership predicate, growth followed by a separate last-seen
/// refresh pass over the peer's keywords (the link-up sequence).
class RefTable {
 public:
  struct Slot {
    double weight = 0.0;
    bool direct = false;
    double last_seen_s = 0.0;
  };

  explicit RefTable(const ChitChatParams& p) : p_(p) {}

  void add_direct(std::uint32_t k, SimTime now) {
    Slot& slot = slots_[k];
    slot.direct = true;
    slot.weight = std::max(slot.weight, p_.initial_weight);
    slot.last_seen_s = now.sec();
    ++generation_;
  }

  void decay(SimTime now, const std::vector<const RefTable*>& connected) {
    bool changed = false;
    for (auto it = slots_.begin(); it != slots_.end();) {
      Slot& slot = it->second;
      const bool shared = std::any_of(connected.begin(), connected.end(), [&](const RefTable* t) {
        return t->slots_.count(it->first) > 0;
      });
      if (shared) {
        slot.last_seen_s = now.sec();
        ++it;
        continue;
      }
      const double dt = now.sec() - slot.last_seen_s;
      const double divisor = std::max(1.0, p_.decay_beta * dt);
      const double before = slot.weight;
      if (slot.direct) {
        slot.weight = (slot.weight - 0.5) / divisor + 0.5;
      } else {
        slot.weight = slot.weight / divisor;
      }
      changed = changed || slot.weight != before;
      slot.last_seen_s = now.sec();
      if (!slot.direct && slot.weight < p_.prune_epsilon) {
        it = slots_.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
    if (changed) ++generation_;
  }

  void grow_from(const RefTable& peer, SimTime now, double contact_quantum_s) {
    const double quantum = std::min(contact_quantum_s, p_.growth_contact_cap_s);
    bool changed = false;
    for (const auto& [keyword, peer_slot] : peer.slots_) {
      if (peer_slot.weight <= 0.0) continue;
      const auto it = slots_.find(keyword);
      const bool self_has = it != slots_.end();
      const bool self_direct = self_has && it->second.direct;
      int divisor = peer_slot.direct ? 5 : 6;
      if (self_has && self_direct) divisor = peer_slot.direct ? 1 : 2;
      else if (self_has) divisor = peer_slot.direct ? 3 : 4;
      const double delta =
          p_.growth_rate * peer_slot.weight * quantum / static_cast<double>(divisor);
      if (delta <= 0.0) continue;
      Slot& slot = slots_[keyword];
      const double before = slot.weight;
      slot.weight = std::min(p_.max_weight, slot.weight + delta);
      slot.last_seen_s = now.sec();
      changed = changed || !self_has || slot.weight != before;
    }
    if (changed) ++generation_;
    for (const auto& entry : peer.slots_) note_seen(entry.first, now);
  }

  void note_seen(std::uint32_t k, SimTime now) {
    auto it = slots_.find(k);
    if (it != slots_.end()) it->second.last_seen_s = now.sec();
  }

  void restore(std::uint32_t k, double weight, bool direct, SimTime now) {
    slots_[k] = Slot{weight, direct, now.sec()};
    ++generation_;
  }

  [[nodiscard]] const std::map<std::uint32_t, Slot>& slots() const { return slots_; }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

 private:
  ChitChatParams p_;
  std::map<std::uint32_t, Slot> slots_;
  std::uint64_t generation_ = 0;
};

void expect_same(const InterestTable& flat, const RefTable& ref, std::uint32_t max_id,
                 int step) {
  ASSERT_EQ(flat.size(), ref.slots().size()) << "step " << step;
  ASSERT_EQ(flat.generation(), ref.generation()) << "step " << step;
  const auto entries = flat.entries();
  std::size_t i = 0;
  for (const auto& [k, slot] : ref.slots()) {
    ASSERT_EQ(entries[i].keyword, KeywordId(k)) << "step " << step;
    ASSERT_EQ(bits(entries[i].weight), bits(slot.weight)) << "step " << step << " kw " << k;
    ASSERT_EQ(bits(entries[i].last_seen.sec()), bits(slot.last_seen_s)) << "step " << step;
    ASSERT_EQ(entries[i].direct, slot.direct) << "step " << step;
    ++i;
  }
  // for_each agrees with entries(), in the same ascending order.
  i = 0;
  flat.for_each([&](KeywordId k, double w, bool direct) {
    ASSERT_EQ(k, entries[i].keyword);
    ASSERT_EQ(bits(w), bits(entries[i].weight));
    ASSERT_EQ(direct, entries[i].direct);
    ++i;
  });
  for (std::uint32_t k = 0; k <= max_id; ++k) {
    const auto it = ref.slots().find(k);
    ASSERT_EQ(flat.has(KeywordId(k)), it != ref.slots().end()) << "step " << step;
    ASSERT_EQ(bits(flat.weight(KeywordId(k))),
              bits(it != ref.slots().end() ? it->second.weight : 0.0));
  }
  ASSERT_FALSE(flat.has(KeywordId()));
}

class FlatInterestTable : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatInterestTable, MatchesNodeMapModelBitForBit) {
  util::Rng rng(GetParam());
  ChitChatParams p;
  p.decay_beta = rng.uniform(0.005, 0.5);
  p.growth_rate = rng.uniform(0.01, 0.5);
  p.prune_epsilon = rng.uniform(1e-3, 0.05);
  constexpr int kTables = 6;
  std::vector<InterestTable> flat(kTables, InterestTable(p));
  std::vector<RefTable> ref(kTables, RefTable(p));
  // Mostly a small pool; occasionally a far id that grows the index lazily.
  const auto keyword = [&rng]() -> std::uint32_t {
    return rng.chance(0.05) ? static_cast<std::uint32_t>(rng.below(400))
                            : static_cast<std::uint32_t>(rng.below(70));
  };
  std::uint32_t max_id = 0;
  double t = 0.0;
  for (int step = 0; step < 1500; ++step) {
    t += rng.chance(0.2) ? rng.uniform(50.0, 2000.0) : rng.uniform(0.0, 20.0);
    const SimTime now = SimTime::seconds(t);
    const std::size_t a = rng.below(kTables);
    switch (rng.below(6)) {
      case 0: {
        const std::uint32_t k = keyword();
        max_id = std::max(max_id, k);
        flat[a].add_direct(KeywordId(k), now);
        ref[a].add_direct(k, now);
        break;
      }
      case 1:
      case 2: {  // growth against another table, sometimes against itself
        const std::size_t b = rng.chance(0.05) ? a : rng.below(kTables);
        const double quantum = rng.chance(0.1) ? 0.0 : rng.uniform(0.0, 20.0);
        flat[a].grow_from(flat[b], now, quantum);
        ref[a].grow_from(ref[b], now, quantum);
        break;
      }
      case 3: {  // decay against 0-4 connected tables
        std::vector<const InterestTable*> flat_connected;
        std::vector<const RefTable*> ref_connected;
        const std::size_t n = rng.below(5);
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t b = rng.below(kTables);
          flat_connected.push_back(&flat[b]);
          ref_connected.push_back(&ref[b]);
        }
        flat[a].decay_against(now, flat_connected);
        ref[a].decay(now, ref_connected);
        break;
      }
      case 4: {
        const std::uint32_t k = keyword();
        max_id = std::max(max_id, k);
        const double w = rng.chance(0.1) ? 0.0 : rng.uniform(0.0, 1.0);
        const bool direct = rng.chance(0.3);
        flat[a].restore(KeywordId(k), w, direct, now);
        ref[a].restore(k, w, direct, now);
        break;
      }
      default: {
        const std::uint32_t k = keyword();
        flat[a].note_seen(KeywordId(k), now);
        ref[a].note_seen(k, now);
        break;
      }
    }
    for (int i = 0; i < kTables; ++i) {
      expect_same(flat[static_cast<std::size_t>(i)], ref[static_cast<std::size_t>(i)], max_id,
                  step);
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatInterestTable, ::testing::Values(1, 2, 3, 4));

/// The node-map RatingStore with the per-entry link-up merge loop.
class RefStore {
 public:
  explicit RefStore(const core::DrmParams& p) : p_(p) {}

  void add_message_rating(std::uint32_t node, double rating) {
    Record& rec = records_[node];
    rec.sum += rating;
    rec.count += 1;
    rec.value = rec.sum / static_cast<double>(rec.count);
  }

  void merge_remote(std::uint32_t node, double remote_rating) {
    const double remote = std::clamp(remote_rating, 0.0, p_.rating_max);
    auto it = records_.find(node);
    if (it == records_.end()) {
      records_[node].value = remote;
      return;
    }
    it->second.value = (1.0 - p_.alpha) * remote + p_.alpha * it->second.value;
  }

  void merge_from(const RefStore& peer, std::uint32_t skip_a, std::uint32_t skip_b) {
    for (const auto& [node, rec] : peer.records_) {
      if (node == skip_a || node == skip_b) continue;
      merge_remote(node, rec.value);
    }
  }

  struct Record {
    double sum = 0.0;
    std::size_t count = 0;
    double value = 0.0;
  };
  [[nodiscard]] const std::map<std::uint32_t, Record>& records() const { return records_; }

 private:
  core::DrmParams p_;
  std::map<std::uint32_t, Record> records_;
};

class FlatRatingStore : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatRatingStore, MergeFromMatchesPerEntryMergeBitForBit) {
  util::Rng rng(GetParam());
  core::DrmParams p;
  p.alpha = rng.uniform(0.5, 0.95);
  constexpr int kStores = 6;
  constexpr std::uint32_t kNodes = 90;
  std::vector<core::RatingStore> flat(kStores, core::RatingStore(p));
  std::vector<RefStore> ref(kStores, RefStore(p));
  for (int step = 0; step < 2000; ++step) {
    const std::size_t a = rng.below(kStores);
    const auto node = static_cast<std::uint32_t>(rng.below(kNodes));
    switch (rng.below(4)) {
      case 0: {
        const double r = rng.uniform(0.0, p.rating_max);
        flat[a].add_message_rating(NodeId(node), r);
        ref[a].add_message_rating(node, r);
        break;
      }
      case 1: {  // out-of-scale remote opinions are clamped on adoption
        const double r = rng.uniform(-1.0, p.rating_max + 2.0);
        flat[a].merge_remote(NodeId(node), r);
        ref[a].merge_remote(node, r);
        break;
      }
      default: {  // link-up exchange: store index doubles as the node id
        std::size_t b = rng.below(kStores - 1);
        if (b >= a) ++b;
        flat[a].merge_from(flat[b], NodeId(static_cast<std::uint32_t>(a)),
                           NodeId(static_cast<std::uint32_t>(b)));
        ref[a].merge_from(ref[b], static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b));
        break;
      }
    }
    for (std::size_t s = 0; s < kStores; ++s) {
      ASSERT_EQ(flat[s].size(), ref[s].records().size()) << "step " << step;
      auto it = ref[s].records().begin();
      flat[s].for_each([&](NodeId n, double value) {
        ASSERT_EQ(n, NodeId(it->first)) << "step " << step;
        ASSERT_EQ(bits(value), bits(it->second.value)) << "step " << step;
        ++it;
      });
      for (std::uint32_t n = 0; n < kNodes; ++n) {
        const auto rec = ref[s].records().find(n);
        ASSERT_EQ(flat[s].knows(NodeId(n)), rec != ref[s].records().end());
        ASSERT_EQ(bits(flat[s].rating_of(NodeId(n))),
                  bits(rec != ref[s].records().end() ? rec->second.value : p.default_rating));
      }
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatRatingStore, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace dtnic
