#include "routing/chitchat/interest_table.h"

#include <algorithm>
#include <limits>

#include "util/assert.h"

namespace dtnic::routing::chitchat {

InterestTable::Slot& InterestTable::find_or_insert(KeywordId k) {
  if (has(k)) return slot(k);
  DTNIC_REQUIRE(k.valid());
  DTNIC_REQUIRE_MSG(slots_.size() <= std::numeric_limits<std::uint16_t>::max(),
                    "interest table exceeds 65536 keywords");
  const std::size_t id = k.value();
  if (id >= index_.size()) {  // grow both a whole bitmap word at a time
    present_.resize(id / 64 + 1);
    index_.resize(present_.size() * 64);
  }
  present_[id / 64] |= std::uint64_t{1} << (id % 64);
  index_[id] = static_cast<std::uint16_t>(slots_.size());
  Slot& s = slots_.emplace_back();
  s.keyword = k;
  return s;
}

void InterestTable::erase_at(std::size_t pos) {
  const std::size_t id = slots_[pos].keyword.value();
  present_[id / 64] &= ~(std::uint64_t{1} << (id % 64));
  if (pos + 1 != slots_.size()) {
    slots_[pos] = slots_.back();
    index_[slots_[pos].keyword.value()] = static_cast<std::uint16_t>(pos);
  }
  slots_.pop_back();
}

void InterestTable::add_direct(KeywordId k, SimTime now) {
  Slot& s = find_or_insert(k);
  s.direct = true;
  s.weight = std::max(s.weight, params_.initial_weight);
  s.last_seen_s = now.sec();
  ++generation_;
}

double InterestTable::sum_weights(std::span<const KeywordId> keywords) const {
  double sum = 0.0;
  for (KeywordId k : keywords) sum += weight(k);
  return sum;
}

double InterestTable::mean_weight(std::span<const KeywordId> keywords) const {
  if (keywords.empty()) return 0.0;
  return sum_weights(keywords) / static_cast<double>(keywords.size());
}

void InterestTable::decay_against(SimTime now,
                                  std::span<const InterestTable* const> connected) {
  // Which of our keywords does some connected table hold? One OR per word.
  connected_scratch_.assign(present_.size(), 0);
  for (const InterestTable* table : connected) {
    const std::size_t words = std::min(present_.size(), table->present_.size());
    for (std::size_t w = 0; w < words; ++w) connected_scratch_[w] |= table->present_[w];
  }
  bool changed = false;
  for (std::size_t pos = 0; pos < slots_.size();) {
    Slot& s = slots_[pos];
    const std::size_t id = s.keyword.value();
    if (((connected_scratch_[id / 64] >> (id % 64)) & 1u) != 0) {
      // A connected device shares I: the weight holds and T_l refreshes.
      s.last_seen_s = now.sec();
      ++pos;
      continue;
    }
    const double dt = now.sec() - s.last_seen_s;
    // Divisor floored at 1 so decay never amplifies a weight (Algorithm 1
    // divides by β·(T_c − T_l), which would amplify for small gaps).
    const double divisor = std::max(1.0, params_.decay_beta * dt);
    const double before = s.weight;
    if (s.direct) {
      s.weight = (s.weight - 0.5) / divisor + 0.5;
    } else {
      s.weight = s.weight / divisor;
    }
    changed = changed || s.weight != before;
    s.last_seen_s = now.sec();  // decay applied up to `now`
    if (!s.direct && s.weight < params_.prune_epsilon) {
      erase_at(pos);  // the swapped-in last slot is visited next
      changed = true;
    } else {
      ++pos;
    }
  }
  if (changed) ++generation_;
}

int InterestTable::psi(bool self_has, bool self_direct, bool peer_direct) {
  if (self_has && self_direct) return peer_direct ? 1 : 2;
  if (self_has) return peer_direct ? 3 : 4;  // self transient
  return peer_direct ? 5 : 6;                // acquisition
}

void InterestTable::grow_from(const InterestTable& peer, SimTime now, double contact_quantum_s) {
  DTNIC_REQUIRE(contact_quantum_s >= 0.0);
  const double quantum = std::min(contact_quantum_s, params_.growth_contact_cap_s);
  bool changed = false;
  for_each_present(peer.present_, [&](KeywordId k) {
    // Copied: inserting below may reallocate slots_, and peer may be *this.
    const Slot peer_slot = peer.slot(k);
    const bool self_has = has(k);
    double delta = 0.0;
    if (peer_slot.weight > 0.0) {
      const int divisor = psi(self_has, self_has && slot(k).direct, peer_slot.direct);
      delta = params_.growth_rate * peer_slot.weight * quantum / static_cast<double>(divisor);
    }
    if (delta <= 0.0) {
      if (self_has) slot(k).last_seen_s = now.sec();
      return;
    }
    Slot& s = find_or_insert(k);  // inserts a transient slot if absent
    const double before = s.weight;
    s.weight = std::min(params_.max_weight, s.weight + delta);
    s.last_seen_s = now.sec();
    changed = changed || !self_has || s.weight != before;
  });
  if (changed) ++generation_;
}

void InterestTable::restore(KeywordId k, double weight, bool direct, SimTime now) {
  Slot& s = find_or_insert(k);
  s.weight = weight;
  s.direct = direct;
  s.last_seen_s = now.sec();
  ++generation_;
}

std::vector<InterestTable::Entry> InterestTable::entries() const {
  std::vector<Entry> out;
  out.reserve(slots_.size());
  for_each_present(present_, [&](KeywordId k) {
    const Slot& s = slot(k);
    out.push_back(Entry{k, s.weight, s.direct, SimTime::seconds(s.last_seen_s)});
  });
  return out;
}

}  // namespace dtnic::routing::chitchat
