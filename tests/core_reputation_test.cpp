#include <gtest/gtest.h>

#include "core/enrichment.h"
#include "core/reputation.h"
#include "msg/keyword.h"

namespace dtnic::core {
namespace {

using msg::KeywordId;
using util::NodeId;

DrmParams quiet_drm() {
  DrmParams p;
  p.rating_noise_sd = 0.0;  // deterministic judgements for exact assertions
  p.confidence = 1.0;
  return p;
}

msg::Message tagged_message(NodeId source, int truthful, int false_tags, double quality) {
  msg::Message m(util::MessageId(1), source, util::SimTime::zero(), 1024,
                 msg::Priority::kMedium, quality);
  std::vector<KeywordId> truth;
  KeywordId::underlying next = 0;
  for (int i = 0; i < truthful; ++i) {
    const KeywordId k(next++);
    truth.push_back(k);
    m.annotate({k, source, true});
  }
  for (int i = 0; i < false_tags; ++i) {
    m.annotate({KeywordId(next++), source, false});
  }
  m.set_true_keywords(std::move(truth));
  return m;
}

// --- RatingStore -------------------------------------------------------------------

TEST(RatingStore, DefaultForUnknown) {
  RatingStore store(quiet_drm());
  EXPECT_DOUBLE_EQ(store.rating_of(NodeId(5)), 3.5);
  EXPECT_FALSE(store.knows(NodeId(5)));
  EXPECT_TRUE(store.trusted(NodeId(5)));
}

TEST(RatingStore, FirstHandMeanOfMessageRatings) {
  RatingStore store(quiet_drm());
  store.add_message_rating(NodeId(1), 4.0);
  store.add_message_rating(NodeId(1), 2.0);
  store.add_message_rating(NodeId(1), 3.0);
  EXPECT_DOUBLE_EQ(store.rating_of(NodeId(1)), 3.0);
  EXPECT_TRUE(store.knows(NodeId(1)));
}

TEST(RatingStore, SecondHandAdoptedWhenUnknown) {
  RatingStore store(quiet_drm());
  store.merge_remote(NodeId(2), 1.0);
  EXPECT_DOUBLE_EQ(store.rating_of(NodeId(2)), 1.0);
}

TEST(RatingStore, SecondHandMergeAlphaWeighted) {
  RatingStore store(quiet_drm());  // alpha = 0.6
  store.add_message_rating(NodeId(1), 4.0);
  store.merge_remote(NodeId(1), 1.0);
  // r = (1-0.6)*1.0 + 0.6*4.0 = 2.8
  EXPECT_NEAR(store.rating_of(NodeId(1)), 2.8, 1e-12);
}

TEST(RatingStore, OwnOpinionDominatesMerge) {
  DrmParams p = quiet_drm();
  p.alpha = 0.9;
  RatingStore store(p);
  store.add_message_rating(NodeId(1), 5.0);
  store.merge_remote(NodeId(1), 0.0);
  EXPECT_NEAR(store.rating_of(NodeId(1)), 4.5, 1e-12);
}

TEST(RatingStore, TrustThresholdGate) {
  RatingStore store(quiet_drm());  // threshold 2.0
  store.add_message_rating(NodeId(1), 1.0);
  EXPECT_FALSE(store.trusted(NodeId(1)));
  store.add_message_rating(NodeId(1), 5.0);  // mean 3.0
  EXPECT_TRUE(store.trusted(NodeId(1)));
}

TEST(RatingStore, DisabledDrmTrustsEveryone) {
  DrmParams p = quiet_drm();
  p.enabled = false;
  RatingStore store(p);
  store.add_message_rating(NodeId(1), 0.0);
  EXPECT_TRUE(store.trusted(NodeId(1)));
}

TEST(RatingStore, ForEachVisitsNodesInOrder) {
  RatingStore store(quiet_drm());
  store.add_message_rating(NodeId(5), 4.0);
  store.add_message_rating(NodeId(2), 3.0);
  store.merge_remote(NodeId(9), 1.0);
  std::vector<std::pair<NodeId, double>> seen;
  store.for_each([&seen](NodeId node, double rating) { seen.emplace_back(node, rating); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], std::make_pair(NodeId(2), 3.0));
  EXPECT_EQ(seen[1], std::make_pair(NodeId(5), 4.0));
  EXPECT_EQ(seen[2], std::make_pair(NodeId(9), 1.0));
}

TEST(RatingStore, MergeFromSkipsSelfAndPeer) {
  RatingStore self(quiet_drm());  // alpha = 0.6
  self.add_message_rating(NodeId(3), 4.0);
  RatingStore peer(quiet_drm());
  peer.add_message_rating(NodeId(1), 0.5);  // about the receiver: skipped
  peer.add_message_rating(NodeId(2), 5.0);  // about the peer itself: skipped
  peer.add_message_rating(NodeId(3), 1.0);
  peer.add_message_rating(NodeId(4), 2.0);
  self.merge_from(peer, NodeId(1), NodeId(2));
  EXPECT_FALSE(self.knows(NodeId(1)));
  EXPECT_FALSE(self.knows(NodeId(2)));
  EXPECT_NEAR(self.rating_of(NodeId(3)), 0.4 * 1.0 + 0.6 * 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(self.rating_of(NodeId(4)), 2.0);
  EXPECT_EQ(self.size(), 2u);
}

TEST(RatingStore, RatingBoundsEnforced) {
  RatingStore store(quiet_drm());
  EXPECT_THROW(store.add_message_rating(NodeId(1), 5.5), std::invalid_argument);
  EXPECT_THROW(store.add_message_rating(NodeId(1), -0.1), std::invalid_argument);
  store.merge_remote(NodeId(1), 99.0);  // clamped, not thrown
  EXPECT_LE(store.rating_of(NodeId(1)), 5.0);
}

// --- MessageJudgement -----------------------------------------------------------------

TEST(MessageJudgement, TruthfulFraction) {
  const auto m = tagged_message(NodeId(0), 3, 1, 0.8);
  EXPECT_DOUBLE_EQ(MessageJudgement::truthful_fraction(m, NodeId(0)), 0.75);
  EXPECT_DOUBLE_EQ(MessageJudgement::truthful_fraction(m, NodeId(9)), 1.0);  // no tags
}

TEST(MessageJudgement, SourceRatingBlendsTagsAndQuality) {
  const auto drm = quiet_drm();
  util::Rng rng(1);
  // All truthful tags + quality 0.8: R = 0.5*5 + 0.5*4 = 4.5.
  const auto good = tagged_message(NodeId(0), 3, 0, 0.8);
  EXPECT_NEAR(MessageJudgement::rate_source(good, drm, rng), 4.5, 1e-12);
  // Half truthful + low quality: R = 0.5*2.5 + 0.5*1 = 1.75.
  const auto bad = tagged_message(NodeId(0), 2, 2, 0.2);
  EXPECT_NEAR(MessageJudgement::rate_source(bad, drm, rng), 1.75, 1e-12);
}

TEST(MessageJudgement, ConfidenceScalesTagComponent) {
  DrmParams drm = quiet_drm();
  drm.confidence = 0.5;
  util::Rng rng(1);
  const auto m = tagged_message(NodeId(0), 2, 0, 1.0);
  // R = 0.5*(5*0.5) + 0.5*5 = 3.75.
  EXPECT_NEAR(MessageJudgement::rate_source(m, drm, rng), 3.75, 1e-12);
}

TEST(MessageJudgement, AnnotatorRatedOnOwnTagsOnly) {
  const auto drm = quiet_drm();
  util::Rng rng(1);
  auto m = tagged_message(NodeId(0), 2, 0, 1.0);
  m.annotate({KeywordId(50), NodeId(7), false});
  m.annotate({KeywordId(51), NodeId(7), false});
  EXPECT_NEAR(MessageJudgement::rate_annotator(m, NodeId(7), drm, rng), 0.0, 1e-12);
  // A node that added nothing gets the neutral default.
  EXPECT_DOUBLE_EQ(MessageJudgement::rate_annotator(m, NodeId(8), drm, rng), 3.5);
}

TEST(MessageJudgement, NoiseStaysInBounds) {
  DrmParams drm = quiet_drm();
  drm.rating_noise_sd = 2.0;
  util::Rng rng(42);
  const auto m = tagged_message(NodeId(0), 1, 0, 1.0);
  for (int i = 0; i < 500; ++i) {
    const double r = MessageJudgement::rate_source(m, drm, rng);
    ASSERT_GE(r, 0.0);
    ASSERT_LE(r, 5.0);
  }
}

// --- award_factor ---------------------------------------------------------------------

TEST(AwardFactor, NoPathRatingsUsesDelivererOnly) {
  const auto drm = quiet_drm();
  EXPECT_DOUBLE_EQ(award_factor(drm, {}, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(award_factor(drm, {}, 2.5), 0.5);
}

TEST(AwardFactor, BlendsPathAndDeliverer) {
  const auto drm = quiet_drm();  // alpha 0.6
  std::vector<msg::PathRating> path{{NodeId(1), NodeId(0), 5.0}, {NodeId(2), NodeId(0), 0.0}};
  // path mean = 0.5 normalized; factor = 0.4*0.5 + 0.6*(4/5) = 0.2 + 0.48.
  EXPECT_NEAR(award_factor(drm, path, 4.0), 0.68, 1e-12);
}

TEST(AwardFactor, DisabledDrmPaysFull) {
  DrmParams drm = quiet_drm();
  drm.enabled = false;
  std::vector<msg::PathRating> path{{NodeId(1), NodeId(0), 0.0}};
  EXPECT_DOUBLE_EQ(award_factor(drm, path, 0.0), 1.0);
}

TEST(AwardFactor, AlwaysInUnitInterval) {
  const auto drm = quiet_drm();
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    std::vector<msg::PathRating> path;
    const int n = static_cast<int>(rng.range(0, 6));
    for (int j = 0; j < n; ++j) {
      path.push_back({NodeId(j), NodeId(0), rng.uniform(-1.0, 7.0)});
    }
    const double f = award_factor(drm, path, rng.uniform(-1.0, 7.0));
    ASSERT_GE(f, 0.0);
    ASSERT_LE(f, 1.0);
  }
}

// --- Enricher ----------------------------------------------------------------------------

class EnricherTest : public ::testing::Test {
 protected:
  EnricherTest() {
    pool = keywords.make_pool(50);
  }
  msg::KeywordTable keywords;
  std::vector<KeywordId> pool;
  util::Rng rng{11};
};

TEST_F(EnricherTest, HonestAddsOnlyTruthfulMissingTags) {
  Enricher enricher(&pool);
  msg::Message m(util::MessageId(1), NodeId(0), util::SimTime::zero(), 1024,
                 msg::Priority::kMedium, 0.9);
  m.set_true_keywords({pool[0], pool[1], pool[2]});
  m.annotate({pool[0], NodeId(0), true});  // source tagged one of three
  const int added = enricher.enrich_honest(m, NodeId(4), 5, rng);
  EXPECT_EQ(added, 2);
  for (const auto& a : m.annotations_by(NodeId(4))) {
    EXPECT_TRUE(a.truthful);
    EXPECT_TRUE(m.keyword_is_truthful(a.keyword));
  }
}

TEST_F(EnricherTest, HonestRespectsMaxTags) {
  Enricher enricher(&pool);
  msg::Message m(util::MessageId(1), NodeId(0), util::SimTime::zero(), 1024,
                 msg::Priority::kMedium, 0.9);
  m.set_true_keywords({pool[0], pool[1], pool[2], pool[3]});
  EXPECT_EQ(enricher.enrich_honest(m, NodeId(4), 2, rng), 2);
  EXPECT_EQ(m.annotations().size(), 2u);
}

TEST_F(EnricherTest, HonestNothingToAdd) {
  Enricher enricher(&pool);
  msg::Message m(util::MessageId(1), NodeId(0), util::SimTime::zero(), 1024,
                 msg::Priority::kMedium, 0.9);
  m.set_true_keywords({pool[0]});
  m.annotate({pool[0], NodeId(0), true});
  EXPECT_EQ(enricher.enrich_honest(m, NodeId(4), 3, rng), 0);
}

TEST_F(EnricherTest, MaliciousAddsOnlyIrrelevantTags) {
  Enricher enricher(&pool);
  msg::Message m(util::MessageId(1), NodeId(0), util::SimTime::zero(), 1024,
                 msg::Priority::kMedium, 0.9);
  m.set_true_keywords({pool[0], pool[1]});
  const int added = enricher.enrich_malicious(m, NodeId(6), 3, rng);
  EXPECT_EQ(added, 3);
  for (const auto& a : m.annotations_by(NodeId(6))) {
    EXPECT_FALSE(a.truthful);
    EXPECT_FALSE(m.keyword_is_truthful(a.keyword));
  }
}

TEST_F(EnricherTest, MaliciousWithoutPoolIsNoop) {
  Enricher enricher(nullptr);
  msg::Message m(util::MessageId(1), NodeId(0), util::SimTime::zero(), 1024,
                 msg::Priority::kMedium, 0.9);
  EXPECT_EQ(enricher.enrich_malicious(m, NodeId(6), 3, rng), 0);
}

TEST_F(EnricherTest, ProfileDispatch) {
  Enricher enricher(&pool);
  msg::Message m(util::MessageId(1), NodeId(0), util::SimTime::zero(), 1024,
                 msg::Priority::kMedium, 0.9);
  m.set_true_keywords({pool[0], pool[1], pool[2]});

  BehaviorProfile malicious;
  malicious.type = BehaviorType::kMalicious;
  malicious.malicious_tags = 2;
  EXPECT_EQ(enricher.enrich(m, NodeId(5), malicious, rng), 2);

  BehaviorProfile never_enrich;
  never_enrich.enrich_probability = 0.0;
  EXPECT_EQ(enricher.enrich(m, NodeId(6), never_enrich, rng), 0);

  BehaviorProfile always;
  always.enrich_probability = 1.0;
  always.honest_max_tags = 5;
  EXPECT_EQ(enricher.enrich(m, NodeId(7), always, rng), 3);  // the 3 true keywords
}

TEST(BehaviorProfile, NamesAndPredicates) {
  BehaviorProfile p;
  EXPECT_FALSE(p.selfish());
  EXPECT_FALSE(p.malicious());
  p.type = BehaviorType::kSelfish;
  EXPECT_TRUE(p.selfish());
  EXPECT_STREQ(behavior_name(p.type), "selfish");
  EXPECT_STREQ(behavior_name(BehaviorType::kMalicious), "malicious");
  EXPECT_STREQ(behavior_name(BehaviorType::kCooperative), "cooperative");
}

}  // namespace
}  // namespace dtnic::core
