#include <gtest/gtest.h>

#include "routing/chitchat/interest_table.h"

#include "util/rng.h"

namespace dtnic::routing::chitchat {
namespace {

using msg::KeywordId;
using util::SimTime;

ChitChatParams fast_params() {
  ChitChatParams p;
  p.decay_beta = 0.1;  // decays on a ~10 s timescale for compact tests
  return p;
}

TEST(InterestTable, DirectInterestStartsAtHalf) {
  InterestTable t(fast_params());
  t.add_direct(KeywordId(1), SimTime::zero());
  EXPECT_DOUBLE_EQ(t.weight(KeywordId(1)), 0.5);
  EXPECT_TRUE(t.has_direct(KeywordId(1)));
  EXPECT_TRUE(t.has(KeywordId(1)));
  EXPECT_FALSE(t.has(KeywordId(2)));
}

TEST(InterestTable, UnknownKeywordWeightZero) {
  InterestTable t(fast_params());
  EXPECT_DOUBLE_EQ(t.weight(KeywordId(42)), 0.0);
}

TEST(InterestTable, SumAndMeanWeights) {
  InterestTable t(fast_params());
  t.add_direct(KeywordId(1), SimTime::zero());
  t.add_direct(KeywordId(2), SimTime::zero());
  const std::vector<KeywordId> keys{KeywordId(1), KeywordId(2), KeywordId(3)};
  EXPECT_DOUBLE_EQ(t.sum_weights(keys), 1.0);
  EXPECT_NEAR(t.mean_weight(keys), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(t.mean_weight({}), 0.0);
}

TEST(InterestTable, DirectDecaysTowardHalf) {
  InterestTable t(fast_params());
  t.add_direct(KeywordId(1), SimTime::zero());
  // Grow it above 0.5 first.
  InterestTable peer(fast_params());
  peer.add_direct(KeywordId(1), SimTime::zero());
  for (int i = 0; i < 50; ++i) t.grow_from(peer, SimTime::zero(), 10.0);
  const double grown = t.weight(KeywordId(1));
  ASSERT_GT(grown, 0.5);
  t.decay_against(SimTime::seconds(100), {});
  const double decayed = t.weight(KeywordId(1));
  EXPECT_LT(decayed, grown);
  EXPECT_GE(decayed, 0.5);  // direct interests never decay below 0.5
}

TEST(InterestTable, TransientDecaysTowardZeroAndIsPruned) {
  InterestTable t(fast_params());
  InterestTable peer(fast_params());
  peer.add_direct(KeywordId(7), SimTime::zero());
  t.grow_from(peer, SimTime::zero(), 10.0);
  ASSERT_TRUE(t.has(KeywordId(7)));
  ASSERT_FALSE(t.has_direct(KeywordId(7)));
  // Long silence: transient interest decays to (near) zero and is forgotten.
  t.decay_against(SimTime::seconds(1000), {});
  t.decay_against(SimTime::seconds(5000), {});
  t.decay_against(SimTime::seconds(50000), {});
  EXPECT_FALSE(t.has(KeywordId(7)));
}

TEST(InterestTable, ConnectedInterestDoesNotDecay) {
  InterestTable t(fast_params());
  t.add_direct(KeywordId(1), SimTime::zero());
  InterestTable peer(fast_params());
  peer.add_direct(KeywordId(1), SimTime::zero());
  t.grow_from(peer, SimTime::zero(), 10.0);
  const double before = t.weight(KeywordId(1));
  const InterestTable* connected[] = {&peer};  // peer still connected
  t.decay_against(SimTime::seconds(500), connected);
  EXPECT_DOUBLE_EQ(t.weight(KeywordId(1)), before);
}

TEST(InterestTable, DecayNeverAmplifies) {
  // Small gaps would divide by < 1 in the raw formula; the floor guards it.
  InterestTable t(fast_params());
  t.add_direct(KeywordId(1), SimTime::zero());
  t.decay_against(SimTime::seconds(0.001), {});
  EXPECT_LE(t.weight(KeywordId(1)), 0.5 + 1e-12);
}

TEST(InterestTable, GrowthCapsAtMax) {
  ChitChatParams p = fast_params();
  p.growth_rate = 10.0;  // absurdly fast growth
  InterestTable t(p);
  t.add_direct(KeywordId(1), SimTime::zero());
  InterestTable peer(p);
  peer.add_direct(KeywordId(1), SimTime::zero());
  for (int i = 0; i < 10; ++i) t.grow_from(peer, SimTime::zero(), 10.0);
  EXPECT_DOUBLE_EQ(t.weight(KeywordId(1)), 1.0);
}

TEST(InterestTable, GrowthAcquiresTransient) {
  InterestTable t(fast_params());
  InterestTable peer(fast_params());
  peer.add_direct(KeywordId(9), SimTime::zero());
  t.grow_from(peer, SimTime::seconds(5), 10.0);
  EXPECT_TRUE(t.has(KeywordId(9)));
  EXPECT_FALSE(t.has_direct(KeywordId(9)));
  EXPECT_GT(t.weight(KeywordId(9)), 0.0);
}

TEST(InterestTable, PsiOrdersGrowthSpeed) {
  // direct/direct (psi=1) grows faster than acquiring transient (psi=5).
  const ChitChatParams p = fast_params();
  InterestTable peer(p);
  peer.add_direct(KeywordId(1), SimTime::zero());

  InterestTable direct_side(p);
  direct_side.add_direct(KeywordId(1), SimTime::zero());
  const double before = direct_side.weight(KeywordId(1));
  direct_side.grow_from(peer, SimTime::zero(), 10.0);
  const double direct_gain = direct_side.weight(KeywordId(1)) - before;

  InterestTable absent_side(p);
  absent_side.grow_from(peer, SimTime::zero(), 10.0);
  const double acquire_gain = absent_side.weight(KeywordId(1));

  EXPECT_GT(direct_gain, acquire_gain);
  EXPECT_NEAR(direct_gain / acquire_gain, 5.0, 1e-9);  // psi 1 vs psi 5
}

TEST(InterestTable, GrowthQuantumIsCapped) {
  const ChitChatParams p = fast_params();  // cap = 10 s
  InterestTable a(p);
  InterestTable b(p);
  InterestTable peer(p);
  peer.add_direct(KeywordId(1), SimTime::zero());
  a.grow_from(peer, SimTime::zero(), 10.0);
  b.grow_from(peer, SimTime::zero(), 10000.0);  // capped to the same quantum
  EXPECT_DOUBLE_EQ(a.weight(KeywordId(1)), b.weight(KeywordId(1)));
}

TEST(InterestTable, EntriesSortedByKeyword) {
  InterestTable t(fast_params());
  t.add_direct(KeywordId(5), SimTime::zero());
  t.add_direct(KeywordId(1), SimTime::zero());
  t.add_direct(KeywordId(3), SimTime::zero());
  const auto entries = t.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].keyword, KeywordId(1));
  EXPECT_EQ(entries[1].keyword, KeywordId(3));
  EXPECT_EQ(entries[2].keyword, KeywordId(5));
  EXPECT_TRUE(entries[0].direct);
}

TEST(InterestTable, NoteSeenRefreshesTimestampOnly) {
  InterestTable t(fast_params());
  t.add_direct(KeywordId(1), SimTime::zero());
  t.note_seen(KeywordId(1), SimTime::seconds(100));
  // Decay right after refresh: dt = 0 -> divisor floored at 1 -> no change.
  t.decay_against(SimTime::seconds(100), {});
  EXPECT_DOUBLE_EQ(t.weight(KeywordId(1)), 0.5);
  t.note_seen(KeywordId(99), SimTime::seconds(1));  // unknown: no-op
  EXPECT_FALSE(t.has(KeywordId(99)));
}

/// Property sweep: weights remain in [0,1] under arbitrary decay/growth mixes.
class WeightBoundsSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WeightBoundsSweep, WeightsStayInUnitInterval) {
  util::Rng rng(GetParam());
  ChitChatParams p;
  p.decay_beta = rng.uniform(0.001, 2.0);
  p.growth_rate = rng.uniform(0.001, 1.0);
  InterestTable a(p);
  InterestTable b(p);
  for (int k = 0; k < 5; ++k) {
    a.add_direct(KeywordId(k), SimTime::zero());
    b.add_direct(KeywordId(k + 3), SimTime::zero());
  }
  double now = 0.0;
  for (int step = 0; step < 300; ++step) {
    now += rng.uniform(0.1, 300.0);
    const auto t = SimTime::seconds(now);
    if (rng.chance(0.5)) a.decay_against(t, {});
    if (rng.chance(0.5)) b.decay_against(t, {});
    if (rng.chance(0.7)) a.grow_from(b, t, rng.uniform(0.0, 20.0));
    if (rng.chance(0.7)) b.grow_from(a, t, rng.uniform(0.0, 20.0));
    for (const auto& e : a.entries()) {
      ASSERT_GE(e.weight, 0.0);
      ASSERT_LE(e.weight, 1.0);
    }
    for (const auto& e : b.entries()) {
      ASSERT_GE(e.weight, 0.0);
      ASSERT_LE(e.weight, 1.0);
    }
  }
  // Direct interests never vanish.
  for (int k = 0; k < 5; ++k) ASSERT_TRUE(a.has_direct(KeywordId(k)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightBoundsSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace dtnic::routing::chitchat
