#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/incentive_router.h"
#include "live/live_node.h"
#include "live/udp.h"
#include "obs/trace_replay.h"
#include "obs/trace_sink.h"
#include "scenario/config.h"
#include "stats/metrics.h"
#include "util/sim_time.h"

/// Two in-process LiveNodes over real loopback UDP sockets (ephemeral ports),
/// stepped with a synthetic clock: the same code the dtnic daemon runs, but
/// deterministic and fast. The live-smoke ctest covers the two-process path;
/// this suite covers the protocol logic — discovery, digest exchange,
/// end-to-end delivery with settlement, and link expiry.

namespace dtnic::live {
namespace {

using routing::NodeId;
using util::SimTime;

constexpr double kStep = 0.05;  ///< service cadence (s); << hello interval

LiveNodeConfig base_config(std::uint32_t node) {
  LiveNodeConfig cfg;
  cfg.node = NodeId(node);
  cfg.listen_port = 0;  // ephemeral: tests never collide on ports
  cfg.hello_interval_s = 0.2;
  cfg.peer_timeout_s = 0.7;
  cfg.scenario.scheme = scenario::Scheme::kIncentive;
  cfg.scenario.seed = 42;
  cfg.keywords = {"news", "weather", "sports", "music"};
  return cfg;
}

/// Step both nodes until \p done or the deadline; real sockets need a few
/// service rounds per protocol phase even on loopback.
template <typename Pred>
bool run_until(LiveNode& a, LiveNode& b, SimTime& now, double deadline_s, Pred done) {
  while (now.sec() < deadline_s) {
    a.service(now);
    b.service(now);
    if (done()) return true;
    now = now + SimTime::seconds(kStep);
  }
  return done();
}

TEST(LiveLoopback, DiscoveryBringsBothLinksUp) {
  LiveNode a(base_config(1));
  LiveNode b(base_config(2));
  a.add_seed_peer(NodeId(2), Endpoint{"127.0.0.1", b.local_port()});
  // b has no seed: it learns a's endpoint from the incoming HELLO.

  SimTime now = SimTime::zero();
  ASSERT_TRUE(run_until(a, b, now, 5.0,
                        [&] { return a.link_up(NodeId(2)) && b.link_up(NodeId(1)); }));
  EXPECT_EQ(a.links_up(), 1u);
  EXPECT_EQ(b.links_up(), 1u);
  EXPECT_EQ(a.rejected_frames(), 0u);
  EXPECT_EQ(b.rejected_frames(), 0u);
}

TEST(LiveLoopback, MismatchedKeywordPoolNeverLinks) {
  LiveNode a(base_config(1));
  LiveNodeConfig other = base_config(2);
  other.keywords = {"news", "weather", "sports", "jazz"};  // different pool
  LiveNode b(other);
  ASSERT_NE(a.keyword_pool_hash(), b.keyword_pool_hash());

  a.add_seed_peer(NodeId(2), Endpoint{"127.0.0.1", b.local_port()});
  b.add_seed_peer(NodeId(1), Endpoint{"127.0.0.1", a.local_port()});
  SimTime now = SimTime::zero();
  EXPECT_FALSE(run_until(a, b, now, 1.5,
                         [&] { return a.link_up(NodeId(2)) || b.link_up(NodeId(1)); }));
  // Each side drops the other's incompatible HELLOs and counts them.
  EXPECT_GT(a.rejected_frames(), 0u);
  EXPECT_GT(b.rejected_frames(), 0u);
}

TEST(LiveLoopback, DigestExchangeFeedsOracleAndGrowsInterests) {
  LiveNode a(base_config(1));
  LiveNode b(base_config(2));
  SimTime now = SimTime::zero();
  b.subscribe({"news", "sports"}, now);
  a.add_seed_peer(NodeId(2), Endpoint{"127.0.0.1", b.local_port()});

  ASSERT_TRUE(run_until(a, b, now, 5.0,
                        [&] { return a.link_up(NodeId(2)) && b.link_up(NodeId(1)); }));
  // a's ChitChat table picked up b's direct interests via the RTSR growth
  // phase on the reconstructed digest (weights halved, but present).
  auto* chitchat = routing::ChitChatRouter::of(a.host());
  ASSERT_NE(chitchat, nullptr);
  const msg::KeywordId news = a.keywords().find("news");
  ASSERT_TRUE(news.valid());
  const msg::KeywordId query[] = {news};
  EXPECT_GT(chitchat->interests().sum_weights(query), 0.0);
}

TEST(LiveLoopback, EndToEndDeliveryWithSettlement) {
  LiveNode a(base_config(1));
  LiveNode b(base_config(2));
  SimTime now = SimTime::zero();
  b.subscribe({"news"}, now);
  a.add_seed_peer(NodeId(2), Endpoint{"127.0.0.1", b.local_port()});

  ASSERT_TRUE(run_until(a, b, now, 5.0,
                        [&] { return a.link_up(NodeId(2)) && b.link_up(NodeId(1)); }));

  const double a_tokens_before = a.tokens();
  const double b_tokens_before = b.tokens();
  const msg::MessageId id =
      a.publish({"news", "weather"}, now, 8192, msg::Priority::kHigh, 1.0);
  EXPECT_EQ(id.value(), 1u * 0x100000u + 0u);  // node-namespaced id space

  ASSERT_TRUE(run_until(a, b, now, 10.0,
                        [&] { return b.metrics().delivered_unique() == 1; }));

  // Sender side: one creation, one transfer started, nothing refused.
  EXPECT_EQ(a.metrics().created(), 1u);
  EXPECT_EQ(a.metrics().traffic(), 1u);
  EXPECT_EQ(a.metrics().aborted(), 0u);

  // Receiver side: delivered as destination (b subscribes to "news"),
  // copy stored, tokens paid for the relevant content.
  EXPECT_EQ(b.metrics().delivered_unique(), 1u);
  EXPECT_EQ(b.metrics().relay_arrivals(), 0u);
  EXPECT_NE(b.host().buffer().find(id), nullptr);
  EXPECT_TRUE(b.host().has_seen(id));
  EXPECT_GT(b.metrics().tokens_paid_total(), 0.0);
  EXPECT_LT(b.tokens(), b_tokens_before);

  // The RECEIPT credits the sender (payment may be clipped by b's balance,
  // so compare against the actual paid amount).
  ASSERT_TRUE(run_until(a, b, now, 12.0,
                        [&] { return a.tokens() > a_tokens_before; }));
  EXPECT_DOUBLE_EQ(a.tokens() - a_tokens_before, b.metrics().tokens_paid_total());

  // DRM: b judged the source and updated its rating store.
  EXPECT_GT(b.metrics().reputation_updates(), 0u);

  // No spurious re-offer: the message stays delivered exactly once.
  const double settle_until = now.sec() + 1.0;
  run_until(a, b, now, settle_until, [] { return false; });
  EXPECT_EQ(b.metrics().delivered_unique(), 1u);
  EXPECT_EQ(b.metrics().deliveries_total(), 1u);
}

TEST(LiveLoopback, DuplicateOfferIsRefused) {
  LiveNode a(base_config(1));
  LiveNode b(base_config(2));
  SimTime now = SimTime::zero();
  b.subscribe({"news"}, now);
  a.add_seed_peer(NodeId(2), Endpoint{"127.0.0.1", b.local_port()});
  ASSERT_TRUE(run_until(a, b, now, 5.0,
                        [&] { return a.link_up(NodeId(2)) && b.link_up(NodeId(1)); }));

  a.publish({"news"}, now, 1024, msg::Priority::kMedium, 1.0);
  ASSERT_TRUE(run_until(a, b, now, 10.0,
                        [&] { return b.metrics().delivered_unique() == 1; }));

  // Publish the same content from b's side of the exchange: b already has
  // the id marked seen, so a fresh offer of that id must be refused — which
  // the protocol exercises when links flap. Simulate by tearing the link
  // down (timeout) and re-establishing: the offered-set is per-PeerState,
  // but b's seen-set persists, so re-offers get kDuplicate.
  const double silent_until = now.sec() + 2.0;
  while (now.sec() < silent_until) {  // only b services: a goes silent for b
    b.service(now);
    now = now + SimTime::seconds(kStep);
  }
  EXPECT_FALSE(b.link_up(NodeId(1)));

  ASSERT_TRUE(run_until(a, b, now, now.sec() + 5.0,
                        [&] { return a.link_up(NodeId(2)) && b.link_up(NodeId(1)); }));
  const double resettle_until = now.sec() + 2.0;
  run_until(a, b, now, resettle_until, [] { return false; });
  // Still exactly one delivery; the re-offer (if any) was refused as a
  // duplicate rather than double-delivered.
  EXPECT_EQ(b.metrics().delivered_unique(), 1u);
  EXPECT_EQ(b.metrics().deliveries_total(), 1u);
}

TEST(LiveLoopback, SilentPeerExpiresAndTransfersAbort) {
  LiveNode a(base_config(1));
  LiveNode b(base_config(2));
  SimTime now = SimTime::zero();
  a.add_seed_peer(NodeId(2), Endpoint{"127.0.0.1", b.local_port()});
  ASSERT_TRUE(run_until(a, b, now, 5.0,
                        [&] { return a.link_up(NodeId(2)) && b.link_up(NodeId(1)); }));

  // b stops servicing entirely; a must notice within the timeout.
  const double deadline = now.sec() + 3.0;
  while (now.sec() < deadline && a.link_up(NodeId(2))) {
    a.service(now);
    now = now + SimTime::seconds(kStep);
  }
  EXPECT_FALSE(a.link_up(NodeId(2)));
}

/// A hand-driven peer on a raw socket: completes the HELLO handshake with a
/// LiveNode, then sends whatever frames a test crafts — including ones no
/// well-behaved node would emit.
class ForgedPeer {
 public:
  ForgedPeer(LiveNode& target, std::uint32_t node, std::int32_t rank = 1)
      : target_(target), node_(node), socket_(0) {
    wire::HelloFrame hello;
    hello.node = node_;
    hello.rank = rank;
    hello.keyword_pool_hash = target.keyword_pool_hash();
    send(hello);
  }

  void send(const wire::Frame& f) {
    std::vector<std::uint8_t> bytes;
    wire::encode_frame(f, bytes);
    socket_.send_to(Endpoint{"127.0.0.1", target_.local_port()}, bytes);
  }

  /// Service the target until it reports the link up.
  bool linked(SimTime& now) {
    for (int i = 0; i < 100 && !target_.link_up(node_); ++i) {
      now = now + SimTime::seconds(kStep);
      target_.service(now);
    }
    return target_.link_up(node_);
  }

  /// Send \p f and let the target service it; returns the frames it rejected.
  std::uint64_t deliver(const wire::Frame& f, SimTime& now) {
    const std::uint64_t before = target_.rejected_frames();
    send(f);
    for (int i = 0; i < 8; ++i) {  // loopback is quick but not instant; < peer timeout
      now = now + SimTime::seconds(kStep);
      target_.service(now);
    }
    return target_.rejected_frames() - before;
  }

  /// The first OFFER among the frames the target has sent this peer so far.
  std::optional<wire::OfferFrame> next_offer() {
    while (auto datagram = socket_.receive()) {
      std::span<const std::uint8_t> rest(datagram->bytes);
      while (!rest.empty()) {
        const auto decoded = wire::decode_frame(rest);
        if (!decoded) break;
        rest = rest.subspan(decoded->consumed);
        if (const auto* offer = std::get_if<wire::OfferFrame>(&decoded->frame)) return *offer;
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] NodeId id() const { return node_; }

 private:
  LiveNode& target_;
  NodeId node_;
  UdpSocket socket_;
};

wire::InterestDigestFrame digest_of(NodeId node, std::uint32_t keyword, double weight) {
  wire::InterestDigestFrame f;
  f.node = node;
  f.entries.push_back(wire::InterestEntry{msg::KeywordId(0), 0.5, true});
  f.entries.push_back(wire::InterestEntry{msg::KeywordId(keyword), weight, false});
  return f;
}

TEST(LiveLoopback, OutOfRangeDigestEntriesAreRejected) {
  LiveNode a(base_config(1));
  SimTime now = SimTime::zero();
  ForgedPeer forger(a, 7);
  ASSERT_TRUE(forger.linked(now));
  const auto& table = routing::ChitChatRouter::of(a.host())->interests();
  const std::uint64_t generation = table.generation();

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // A keyword id that would size a dense table to gigabytes, one just past
  // the 4-keyword pool, and weights growth can never produce.
  EXPECT_EQ(forger.deliver(digest_of(forger.id(), 0xFFFFFFFEu, 0.5), now), 1u);
  EXPECT_EQ(forger.deliver(digest_of(forger.id(), 4, 0.5), now), 1u);
  EXPECT_EQ(forger.deliver(digest_of(forger.id(), 1, nan), now), 1u);
  EXPECT_EQ(forger.deliver(digest_of(forger.id(), 1, inf), now), 1u);
  EXPECT_EQ(forger.deliver(digest_of(forger.id(), 1, 1.5), now), 1u);
  EXPECT_EQ(forger.deliver(digest_of(forger.id(), 1, -0.25), now), 1u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.generation(), generation);

  // The same frame shape in range is admitted and feeds the growth phase.
  EXPECT_EQ(forger.deliver(digest_of(forger.id(), 3, 1.0), now), 0u);
  EXPECT_TRUE(table.has(msg::KeywordId(3)));
  EXPECT_TRUE(table.has(msg::KeywordId(0)));
}

TEST(LiveLoopback, NonFiniteGossipRatingsAreRejected) {
  LiveNode a(base_config(1));
  SimTime now = SimTime::zero();
  ForgedPeer forger(a, 7);
  ASSERT_TRUE(forger.linked(now));
  const core::RatingStore& ratings = core::IncentiveRouter::of(a.host())->ratings();

  const auto gossip = [&](double rating) {
    wire::RatingGossipFrame f;
    f.node = forger.id();
    f.entries.push_back(wire::RatingEntry{NodeId(8), 4.0});
    f.entries.push_back(wire::RatingEntry{NodeId(9), rating});
    return f;
  };
  EXPECT_EQ(forger.deliver(gossip(std::numeric_limits<double>::quiet_NaN()), now), 1u);
  EXPECT_EQ(forger.deliver(gossip(-std::numeric_limits<double>::infinity()), now), 1u);
  EXPECT_FALSE(ratings.knows(NodeId(8)));
  EXPECT_FALSE(ratings.knows(NodeId(9)));

  // Finite ratings merge; out-of-scale ones are clamped, as in the simulator.
  EXPECT_EQ(forger.deliver(gossip(99.0), now), 0u);
  EXPECT_DOUBLE_EQ(ratings.rating_of(NodeId(8)), 4.0);
  EXPECT_DOUBLE_EQ(ratings.rating_of(NodeId(9)), ratings.params().rating_max);
}

TEST(LiveLoopback, HelloWithRankBelowOneIsRejected) {
  // Rank 0 would trip the promise computation's precondition and throw out
  // of service() on the first plan against that peer.
  LiveNode a(base_config(1));
  SimTime now = SimTime::zero();
  ForgedPeer forger(a, 7, /*rank=*/0);
  EXPECT_FALSE(forger.linked(now));
  EXPECT_GT(a.rejected_frames(), 0u);
}

TEST(LiveLoopback, ForgedReceiptsCreditAtMostThePlannedBound) {
  const LiveNodeConfig cfg = base_config(1);
  LiveNode a(cfg);
  SimTime now = SimTime::zero();
  ForgedPeer forger(a, 7);
  ASSERT_TRUE(forger.linked(now));
  const msg::MessageId id = a.publish({"news"}, now, 1024, msg::Priority::kHigh, 1.0);
  // A digest with "news" (keyword 0) as a direct interest makes the forger a
  // destination: a plans and offers the message to it.
  ASSERT_EQ(forger.deliver(digest_of(forger.id(), 1, 0.5), now), 0u);
  const std::optional<wire::OfferFrame> offer = forger.next_offer();
  ASSERT_TRUE(offer.has_value());
  ASSERT_EQ(offer->message, id);
  ASSERT_EQ(offer->role, routing::TransferRole::kDestination);
  const double before = a.tokens();

  // Claims no honest receiver can make are dropped whole: nothing credited,
  // and the transfer stays open for the real receipt.
  const auto receipt = [id](routing::TransferRole role, double amount) {
    return wire::ReceiptFrame{id, role, amount};
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(forger.deliver(receipt(routing::TransferRole::kDestination, inf), now), 1u);
  EXPECT_EQ(forger.deliver(receipt(routing::TransferRole::kDestination, nan), now), 1u);
  EXPECT_EQ(forger.deliver(receipt(routing::TransferRole::kDestination, -1.0), now), 1u);
  EXPECT_EQ(forger.deliver(receipt(routing::TransferRole::kRelay, 1.0), now), 1u);
  EXPECT_EQ(a.tokens(), before);

  // An inflated claim credits only what a's own plan bounds: the promise
  // plus the largest tag reward a destination can owe.
  EXPECT_EQ(forger.deliver(receipt(routing::TransferRole::kDestination, 1e9), now), 0u);
  EXPECT_DOUBLE_EQ(a.tokens() - before,
                   offer->promise + cfg.scenario.incentive.tag_reward_cap);
  // The receipt closed the transfer: a replay credits nothing more.
  const double settled = a.tokens();
  EXPECT_EQ(forger.deliver(receipt(routing::TransferRole::kDestination, 1e9), now), 0u);
  EXPECT_EQ(a.tokens(), settled);
}

TEST(LiveLoopback, TraceReplayReproducesLiveCounters) {
  // The acceptance contract: a live run's trace replays into a fresh
  // MetricsCollector with identical counters, exactly like a sim trace.
  std::stringstream trace_a;
  std::stringstream trace_b;

  LiveNode a(base_config(1));
  LiveNode b(base_config(2));
  SimTime now = SimTime::zero();

  obs::TraceOptions options;
  options.seed = 42;
  options.scheme = "incentive";
  options.clock = [&now]() { return now; };
  obs::TraceSink sink_a(trace_a, options);
  obs::TraceSink sink_b(trace_b, options);
  auto handle_a = a.events().add_sink(sink_a);
  auto handle_b = b.events().add_sink(sink_b);

  b.subscribe({"news"}, now);
  a.add_seed_peer(NodeId(2), Endpoint{"127.0.0.1", b.local_port()});
  ASSERT_TRUE(run_until(a, b, now, 5.0,
                        [&] { return a.link_up(NodeId(2)) && b.link_up(NodeId(1)); }));
  a.publish({"news"}, now, 4096, msg::Priority::kHigh, 1.0);
  ASSERT_TRUE(run_until(a, b, now, 10.0,
                        [&] { return b.metrics().delivered_unique() == 1; }));
  const double drain_until = now.sec() + 1.0;
  run_until(a, b, now, drain_until, [] { return false; });
  sink_a.flush();
  sink_b.flush();

  for (auto* pair : {&a, &b}) {
    std::stringstream& trace = pair == &a ? trace_a : trace_b;
    const stats::MetricsCollector& live = pair->metrics();
    stats::MetricsCollector replayed;
    obs::replay_trace(trace, replayed);
    EXPECT_EQ(replayed.created(), live.created());
    EXPECT_EQ(replayed.delivered_unique(), live.delivered_unique());
    EXPECT_EQ(replayed.relay_arrivals(), live.relay_arrivals());
    EXPECT_EQ(replayed.traffic(), live.traffic());
    EXPECT_EQ(replayed.tokens_paid_total(), live.tokens_paid_total());
    EXPECT_EQ(replayed.reputation_updates(), live.reputation_updates());
    EXPECT_EQ(replayed.mean_delivery_latency_s(), live.mean_delivery_latency_s());
  }
}

}  // namespace
}  // namespace dtnic::live
