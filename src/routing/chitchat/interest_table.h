#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "msg/message.h"
#include "util/arena.h"
#include "util/sim_time.h"

/// \file interest_table.h
/// ChitChat's Real-time Transient Social Relationship (RTSR) state: every
/// interest keyword carries a weight in [0, 1]. Direct interests are defined
/// by the user (weight starts at 0.5 and decays toward 0.5); transient
/// interests are acquired from encountered devices (decay toward 0). The
/// decay/growth algorithms follow Paper I §2.3; calibration constants and
/// the contact-quantum interpretation are documented in DESIGN.md §5.

namespace dtnic::routing::chitchat {

using msg::KeywordId;
using util::SimTime;

struct ChitChatParams {
  double initial_weight = 0.5;  ///< weight of a freshly defined direct interest
  double max_weight = 1.0;      ///< cap from the growth algorithm
  /// Decay constant β [1/s]. The thesis' worked example uses β=2, which
  /// erases transient interests within seconds; we default to 0.01 so
  /// transient relationships persist on the inter-contact timescale
  /// (DESIGN.md §5.2 records this calibration).
  double decay_beta = 0.01;
  /// Growth rate γ [1/s]: Δ = γ · w_v(I) · quantum / ψ per exchange.
  double growth_rate = 0.02;
  /// Cap on the contact quantum credited per exchange, seconds.
  double growth_contact_cap_s = 10.0;
  /// Transient entries whose weight falls below this are forgotten.
  double prune_epsilon = 1e-3;
  /// Relay handoff needs S_v > S_u + this margin (0 = strict inequality).
  double forward_margin = 0.0;
};

/// Keyword ids are dense (KeywordTable::intern hands out 0..pool-1), so the
/// table is flat: a presence bitmap over keyword ids, a 16-bit
/// keyword→position index, and the slots packed in a vector. Membership,
/// weight lookups and last-seen refreshes are array loads; iteration walks
/// the bitmap and therefore visits keywords in ascending id order. The
/// index grows lazily to the largest id the table has held (DESIGN.md §4).
class InterestTable {
 public:
  explicit InterestTable(const ChitChatParams& params) : params_(params) {}

  /// Define a direct (self-chosen) interest; weight starts at 0.5.
  void add_direct(KeywordId k, SimTime now);

  [[nodiscard]] bool has(KeywordId k) const {
    const std::size_t word = k.value() / 64;
    return word < present_.size() && ((present_[word] >> (k.value() % 64)) & 1u) != 0;
  }
  [[nodiscard]] bool has_direct(KeywordId k) const { return has(k) && slot(k).direct; }
  /// Weight of \p k; 0 if unknown.
  [[nodiscard]] double weight(KeywordId k) const { return has(k) ? slot(k).weight : 0.0; }
  [[nodiscard]] double sum_weights(std::span<const KeywordId> keywords) const;
  /// Mean weight over \p keywords (0 for an empty list).
  [[nodiscard]] double mean_weight(std::span<const KeywordId> keywords) const;
  [[nodiscard]] std::size_t size() const { return slots_.size(); }

  /// Monotone counter bumped whenever a weight changes or a slot appears or
  /// disappears (add_direct / decay_against / grow_from / restore). Strength
  /// caches key on it: while the generation holds, every sum_weights result
  /// is still valid.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// Decay phase (Algorithm 1) against the interest tables of the currently
  /// connected devices: an interest some connected table holds does not
  /// decay and its last-seen timestamp refreshes. An empty span decays
  /// everything.
  void decay_against(SimTime now, std::span<const InterestTable* const> connected);

  /// Growth phase: absorb the peer's (already decayed) interests
  /// (Algorithm 2). \p contact_quantum_s is the capped contact-time credit
  /// for this exchange. Unknown interests are acquired as transient. Every
  /// peer interest this table holds afterwards has its last-seen refreshed
  /// to \p now, grown or not — the peer is connected and shares it.
  void grow_from(const InterestTable& peer, SimTime now, double contact_quantum_s);

  /// Record that a connected device shares interest \p k at \p now.
  void note_seen(KeywordId k, SimTime now) {
    if (has(k)) slot(k).last_seen_s = now.sec();
  }

  /// Reinstate a slot verbatim — weight, directness, last-seen — bypassing
  /// the growth algorithm. Only deserialization uses this (the live
  /// overlay's INTEREST_DIGEST frames reconstruct a remote peer's table);
  /// protocol code must go through add_direct / grow_from.
  void restore(KeywordId k, double weight, bool direct, SimTime now);

  struct Entry {
    KeywordId keyword;
    double weight = 0.0;
    bool direct = false;
    SimTime last_seen;
  };
  /// Snapshot in ascending keyword order.
  [[nodiscard]] std::vector<Entry> entries() const;

  /// Visit every slot as (keyword, weight, direct) in ascending keyword
  /// order, without allocating.
  template <class Visitor>
  void for_each(Visitor&& visit) const {
    for_each_present(present_, [&](KeywordId k) {
      const Slot& s = slot(k);
      visit(k, s.weight, s.direct);
    });
  }

  [[nodiscard]] const ChitChatParams& params() const { return params_; }

 private:
  struct Slot {
    double weight = 0.0;
    double last_seen_s = 0.0;  ///< T_l: last time a device with I was connected
    KeywordId keyword;
    bool direct = false;
  };

  /// Calls \p visit(KeywordId) for every set bit of \p bits, ascending.
  template <class Visit>
  static void for_each_present(std::span<const std::uint64_t> bits, Visit&& visit) {
    for (std::size_t w = 0; w < bits.size(); ++w) {
      for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
        visit(KeywordId(static_cast<KeywordId::underlying>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(word)))));
      }
    }
  }

  [[nodiscard]] const Slot& slot(KeywordId k) const { return slots_[index_[k.value()]]; }
  [[nodiscard]] Slot& slot(KeywordId k) { return slots_[index_[k.value()]]; }
  /// The slot for \p k, appended zeroed if absent.
  Slot& find_or_insert(KeywordId k);
  /// Swap-remove the slot at \p pos.
  void erase_at(std::size_t pos);

  /// ψ of Algorithm 2 for the six direct/transient/absent combinations.
  [[nodiscard]] static int psi(bool self_has, bool self_direct, bool peer_direct);

  ChitChatParams params_;
  // Arena-backed: every node builds a table at setup, and the arena serves
  // these small arrays from free lists instead of the global heap.
  util::arena::PooledVector<std::uint64_t> present_;  ///< bit k: keyword k has a slot
  util::arena::PooledVector<std::uint16_t> index_;    ///< keyword id -> position in slots_
  util::arena::PooledVector<Slot> slots_;
  /// decay_against's OR of the connected tables' bitmaps.
  util::arena::PooledVector<std::uint64_t> connected_scratch_;
  std::uint64_t generation_ = 0;
};

}  // namespace dtnic::routing::chitchat
