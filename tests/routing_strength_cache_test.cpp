#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/incentive_router.h"
#include "core/pi_router.h"
#include "routing/chitchat/chitchat_router.h"
#include "routing/epidemic.h"
#include "routing/prophet.h"
#include "test_helpers.h"
#include "util/rng.h"

/// Tests for the exchange hot-path machinery: the memoized interest-strength
/// cache (keyed on message keyword stamp + interest-table generation), the
/// RouterKind tag dispatch behind the ::of() accessors, and the shared
/// immutable message core's copy-on-write semantics.

namespace dtnic {
namespace {

using test::kMB;
using util::SimTime;

msg::KeywordId kw(int k) {
  return msg::KeywordId(static_cast<util::KeywordId::underlying>(k));
}

/// The property the cache must uphold: after ANY interleaving of annotation,
/// decay, growth, direct-interest changes, and buffer churn, the memoized
/// message_strength is bit-identical to a from-scratch sum over the same
/// keyword list — including on immediate re-query (the cache-hit path).
TEST(StrengthCache, MatchesFromScratchRecomputeUnderChurn) {
  util::Rng rng(42);
  routing::StaticInterestOracle oracle;
  routing::chitchat::ChitChatParams params;
  routing::Host host(util::NodeId(0), 64 * kMB);
  auto owned =
      std::make_unique<routing::ChitChatRouter>(oracle, params, SimTime::seconds(5.0));
  routing::ChitChatRouter* router = owned.get();
  host.set_router(std::move(owned));
  router->set_direct_interests({kw(0), kw(3)}, SimTime::zero());

  routing::chitchat::InterestTable peer(params);
  for (int k = 0; k < 8; ++k) peer.add_direct(kw(k), SimTime::zero());

  util::MessageId::underlying next_id = 0;
  double t = 0.0;
  for (int step = 0; step < 400; ++step) {
    t += rng.uniform(0.0, 3.0);
    const auto now = SimTime::seconds(t);
    switch (rng.below(6)) {
      case 0: {  // buffer churn: admit a fresh message with random keywords
        msg::Message m(util::MessageId(next_id++), util::NodeId(0), now, kMB,
                       msg::Priority::kMedium, 0.5);
        const std::size_t tags = 1 + rng.below(4);
        for (std::size_t i = 0; i < tags; ++i) {
          (void)m.annotate(msg::Annotation{kw(static_cast<int>(rng.below(16))),
                                           util::NodeId(0), true});
        }
        (void)host.buffer().add(std::move(m));
        break;
      }
      case 1: {  // enrich a buffered copy in place (stamp must invalidate)
        if (next_id == 0) break;
        msg::Message* m = host.buffer().find_mutable(util::MessageId(rng.below(next_id)));
        if (m != nullptr) {
          (void)m->annotate(msg::Annotation{kw(static_cast<int>(rng.below(16))),
                                            util::NodeId(1), false});
        }
        break;
      }
      case 2:  // buffer churn: evict a random message
        if (next_id > 0) (void)host.buffer().remove(util::MessageId(rng.below(next_id)));
        break;
      case 3:  // decay (generation must advance when weights change)
        router->interests().decay_against(now, {});
        break;
      case 4:  // growth from a peer table
        router->interests().grow_from(peer, now, 5.0);
        break;
      case 5:  // new direct interest
        router->interests().add_direct(kw(static_cast<int>(rng.below(16))), now);
        break;
    }
    host.buffer().for_each([&](const msg::Message& m) {
      const double fresh = router->interests().sum_weights(m.keywords());
      ASSERT_EQ(router->message_strength(m), fresh);
      // Second query takes the cache-hit path; still bit-identical.
      ASSERT_EQ(router->message_strength(m), fresh);
    });
  }
}

TEST(StrengthCache, GenerationTracksWeightChangesOnly) {
  routing::chitchat::ChitChatParams params;
  routing::chitchat::InterestTable table(params);
  const auto g0 = table.generation();
  table.add_direct(kw(1), SimTime::zero());
  EXPECT_GT(table.generation(), g0);

  // Decay at the same instant leaves every weight unchanged (divisor floored
  // at 1): the generation must hold so in-contact queries stay cache-hits.
  const auto g1 = table.generation();
  table.decay_against(SimTime::zero(), {});
  EXPECT_EQ(table.generation(), g1);

  // Decay after time has passed changes weights and must bump.
  table.grow_from(table, SimTime::zero(), 5.0);  // adds nothing new to itself
  table.decay_against(SimTime::seconds(100.0), {});
  EXPECT_GT(table.generation(), g1);

  // Growing from an empty peer changes nothing.
  routing::chitchat::InterestTable empty(params);
  const auto g2 = table.generation();
  table.grow_from(empty, SimTime::seconds(100.0), 5.0);
  EXPECT_EQ(table.generation(), g2);
}

TEST(RouterKindDispatch, OfAccessorsDiscriminateExactly) {
  routing::StaticInterestOracle oracle;
  routing::chitchat::ChitChatParams params;
  core::IncentiveWorld world;
  core::PiEscrowBank bank;

  routing::Host chit(util::NodeId(0), kMB);
  chit.set_router(
      std::make_unique<routing::ChitChatRouter>(oracle, params, SimTime::seconds(5.0)));
  routing::Host inc(util::NodeId(1), kMB);
  inc.set_router(std::make_unique<core::IncentiveRouter>(
      oracle, params, SimTime::seconds(5.0), &world, core::BehaviorProfile{},
      util::Rng(1)));
  routing::Host pi(util::NodeId(2), kMB);
  pi.set_router(std::make_unique<core::PiRouter>(oracle, params, SimTime::seconds(5.0),
                                                 &world, &bank, core::PiParams{}));
  routing::Host epi(util::NodeId(3), kMB);
  epi.set_router(std::make_unique<routing::EpidemicRouter>(oracle));

  // Every ChitChat-derived router is visible through ChitChatRouter::of.
  EXPECT_NE(routing::ChitChatRouter::of(chit), nullptr);
  EXPECT_NE(routing::ChitChatRouter::of(inc), nullptr);
  EXPECT_NE(routing::ChitChatRouter::of(pi), nullptr);
  EXPECT_EQ(routing::ChitChatRouter::of(epi), nullptr);

  // The incentive accessors match only their exact scheme — a PI host must
  // not be mistaken for the destination-pays router or vice versa.
  EXPECT_NE(core::IncentiveRouter::of(inc), nullptr);
  EXPECT_EQ(core::IncentiveRouter::of(chit), nullptr);
  EXPECT_EQ(core::IncentiveRouter::of(pi), nullptr);
  EXPECT_NE(core::PiRouter::of(pi), nullptr);
  EXPECT_EQ(core::PiRouter::of(inc), nullptr);
  EXPECT_EQ(routing::ProphetRouter::of(epi), nullptr);
}

TEST(MessageSharedCore, CopiesDivergeIndependently) {
  msg::Message original(util::MessageId(7), util::NodeId(1), SimTime::seconds(10.0),
                        2 * kMB, msg::Priority::kHigh, 0.9);
  (void)original.annotate(msg::Annotation{kw(1), util::NodeId(1), true});
  original.set_true_keywords({kw(1)});
  // The constructor records the source as hop 0, so the path starts at 1.
  ASSERT_EQ(original.path().size(), 1u);

  msg::Message copy = original;
  ASSERT_EQ(copy.keyword_stamp(), original.keyword_stamp());

  // Per-copy state: annotations, path, and ratings diverge per copy.
  (void)copy.annotate(msg::Annotation{kw(2), util::NodeId(3), false});
  copy.record_hop(util::NodeId(3), SimTime::seconds(20.0));
  copy.add_path_rating(msg::PathRating{util::NodeId(3), util::NodeId(1), 4.0});
  EXPECT_TRUE(copy.has_keyword(kw(2)));
  EXPECT_FALSE(original.has_keyword(kw(2)));
  EXPECT_EQ(original.keywords().size(), 1u);
  EXPECT_EQ(copy.keywords().size(), 2u);
  EXPECT_NE(copy.keyword_stamp(), original.keyword_stamp());
  EXPECT_EQ(original.path().size(), 1u);
  EXPECT_EQ(copy.path().size(), 2u);
  EXPECT_TRUE(original.path_ratings().empty());
  EXPECT_EQ(copy.path_ratings().size(), 1u);

  // Core state: a post-copy setter copy-on-writes, leaving the other copy
  // (and the immutable identity fields) untouched.
  copy.set_mime_type("video/mp4");
  copy.set_location(msg::GeoTag{1.0, 2.0});
  EXPECT_EQ(original.mime_type(), "image/jpeg");
  EXPECT_EQ(copy.mime_type(), "video/mp4");
  EXPECT_FALSE(original.location().has_value());
  EXPECT_EQ(copy.id(), original.id());
  EXPECT_EQ(copy.source(), original.source());
  EXPECT_EQ(copy.size_bytes(), original.size_bytes());
  EXPECT_EQ(copy.true_keywords(), original.true_keywords());
}

}  // namespace
}  // namespace dtnic
