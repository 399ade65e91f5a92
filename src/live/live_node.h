#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/incentive_router.h"
#include "live/remote_peer.h"
#include "live/udp.h"
#include "msg/keyword.h"
#include "obs/event_fanout.h"
#include "routing/host.h"
#include "routing/oracle.h"
#include "scenario/config.h"
#include "stats/metrics.h"
#include "util/rng.h"
#include "wire/frames.h"

/// \file live_node.h
/// One live overlay node: the simulator's Host + router stack driven by UDP
/// datagrams instead of the scenario's contact events. Single-threaded and
/// explicitly stepped — service(now) performs one receive/timeout/keepalive/
/// transfer round — so the daemon main loop and the in-process loopback
/// tests drive the identical code, the tests with a synthetic clock.
///
/// Peer lifecycle (DESIGN.md "Live overlay"):
///   seed endpoints --HELLO--> link up (proto + keyword-pool hash match)
///   link up: exchange INTEREST_DIGEST + RATING_GOSSIP, then plan OFFERs
///   OFFER -> OFFER_REPLY(accept) -> paced DATA chunks -> RECEIPT
///   keepalive HELLOs; silence past the timeout (or BYE) tears the link down
///
/// The receive side runs at facade level (the paper's operator functions):
/// the sim's Router::on_received needs the sending Host in-process, so the
/// live node instead replays its steps through public APIs — mark_seen,
/// DRM judgement + rating events, ledger settlement via RECEIPT frames, and
/// buffer admission. Enrichment-in-transit is sim-only for now.

namespace dtnic::live {

struct LiveNodeConfig {
  routing::NodeId node;
  std::uint16_t listen_port = 0;  ///< 0 = ephemeral (tests)
  int rank = 1;
  double hello_interval_s = 1.0;
  /// Link torn down after this much HELLO silence.
  double peer_timeout_s = 3.5;
  std::uint64_t buffer_capacity_bytes = 64ull * 1024 * 1024;
  /// DATA chunk payload size; paced at scenario.radio.bitrate_bps.
  std::size_t chunk_bytes = 1024;
  /// Shared protocol parameters (chitchat/incentive/drm/radio + scheme).
  /// Scheme must be a ChitChat-family, bank-free scheme: kChitChat or
  /// kIncentive.
  scenario::ScenarioConfig scenario;
  /// The agreed keyword pool, in id order; its hash gates compatibility.
  std::vector<std::string> keywords;
};

class LiveNode {
 public:
  explicit LiveNode(const LiveNodeConfig& cfg);
  LiveNode(const LiveNode&) = delete;
  LiveNode& operator=(const LiveNode&) = delete;

  /// Static-seed discovery: an endpoint to HELLO at startup.
  void add_seed_peer(routing::NodeId node, const Endpoint& endpoint);

  /// Register the user's keyword interests (oracle + ChitChat directs).
  void subscribe(const std::vector<std::string>& labels, util::SimTime now);

  /// The operator's Annotate function: create + own a tagged message.
  /// Message ids are namespaced per node (node << 20 | seq) so independent
  /// daemons never collide.
  msg::MessageId publish(const std::vector<std::string>& labels, util::SimTime now,
                         std::uint64_t size_bytes, msg::Priority priority, double quality);

  /// One event-loop round at \p now: drain the socket, expire silent links,
  /// send keepalives, advance paced transfers. Monotone \p now values.
  void service(util::SimTime now);

  /// Graceful shutdown: BYE to every live peer.
  void shutdown(util::SimTime now);

  // --- introspection (tests, daemon reporting) -----------------------------
  [[nodiscard]] routing::Host& host() { return host_; }
  [[nodiscard]] stats::MetricsCollector& metrics() { return metrics_; }
  [[nodiscard]] obs::EventFanout& events() { return fanout_; }
  [[nodiscard]] msg::KeywordTable& keywords() { return keywords_; }
  [[nodiscard]] std::uint16_t local_port() const { return socket_.local_port(); }
  /// Last time passed to service()/publish(); the daemon's trace clock.
  [[nodiscard]] util::SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t keyword_pool_hash() const { return pool_hash_; }
  [[nodiscard]] bool link_up(routing::NodeId peer) const;
  [[nodiscard]] std::size_t links_up() const;
  [[nodiscard]] double tokens() const;
  /// Frames received that failed to decode, failed compatibility gating, or
  /// carried out-of-range state (digest keyword ids/weights, NaN ratings,
  /// receipts with a non-finite or negative amount or the wrong role).
  [[nodiscard]] std::uint64_t rejected_frames() const { return rejected_frames_; }

 private:
  struct PeerState {
    RemotePeer peer;
    Endpoint endpoint;
    bool up = false;
    util::SimTime last_heard = util::SimTime::zero();
    util::SimTime next_hello = util::SimTime::zero();
    /// Ids already offered to this peer (no re-offer on later rounds).
    std::unordered_set<msg::MessageId> offered;
    PeerState(routing::NodeId id, const routing::chitchat::ChitChatParams& params,
              const Endpoint& ep)
        : peer(id, params), endpoint(ep) {}
  };

  struct OutgoingTransfer {
    routing::NodeId to;
    routing::ForwardPlan plan;
    std::vector<std::uint8_t> encoded;
    std::uint32_t chunk_count = 0;
    std::uint32_t next_chunk = 0;
    bool accepted = false;
    bool awaiting_receipt = false;
    util::SimTime next_send = util::SimTime::zero();
  };

  struct IncomingTransfer {
    wire::OfferFrame offer;
    std::vector<std::uint8_t> bytes;
    std::uint32_t chunks_seen = 0;
    std::uint32_t chunk_count = 0;
  };

  void send_frame(PeerState& ps, const wire::Frame& f);
  void send_hello(PeerState& ps);
  void link_up_actions(PeerState& ps, util::SimTime now);
  void link_down(PeerState& ps);

  void handle_datagram(const Endpoint& from, std::span<const std::uint8_t> bytes,
                       util::SimTime now);
  void handle_hello(PeerState& ps, const wire::HelloFrame& f, util::SimTime now);
  void handle_digest(PeerState& ps, const wire::InterestDigestFrame& f, util::SimTime now);
  void handle_gossip(PeerState& ps, const wire::RatingGossipFrame& f);
  void handle_offer(PeerState& ps, const wire::OfferFrame& f, util::SimTime now);
  void handle_offer_reply(PeerState& ps, const wire::OfferReplyFrame& f, util::SimTime now);
  void handle_data(PeerState& ps, const wire::DataFrame& f, util::SimTime now);
  void handle_receipt(PeerState& ps, const wire::ReceiptFrame& f);

  /// Plan against the peer's current digest and send fresh OFFERs.
  void plan_and_offer(PeerState& ps, util::SimTime now);
  /// Advance paced DATA sending for accepted transfers.
  void pump_transfers(util::SimTime now);
  /// A fully reassembled copy arrived: judge, settle, store, emit events.
  void deliver_received(PeerState& ps, const wire::OfferFrame& offer, msg::Message m,
                        util::SimTime now);
  /// DRM: rate the source and enriching annotators of a fresh copy.
  void rate_and_record(msg::Message& m);

  [[nodiscard]] PeerState* find_peer(routing::NodeId id);
  [[nodiscard]] PeerState* find_peer_by_endpoint(const Endpoint& ep);

  LiveNodeConfig cfg_;
  msg::KeywordTable keywords_;
  std::vector<msg::KeywordId> pool_;
  std::uint64_t pool_hash_ = 0;
  util::Rng master_rng_;
  routing::StaticInterestOracle oracle_;
  obs::EventFanout fanout_;
  stats::MetricsCollector metrics_;
  obs::SinkHandle metrics_handle_;
  core::IncentiveWorld world_;
  routing::Host host_;
  routing::ChitChatRouter* chitchat_ = nullptr;   ///< owned by host_
  core::IncentiveRouter* incentive_ = nullptr;    ///< non-null iff kIncentive
  UdpSocket socket_;
  util::SimTime now_ = util::SimTime::zero();
  util::SimTime next_plan_ = util::SimTime::zero();
  std::uint32_t next_seq_ = 0;
  std::uint64_t rejected_frames_ = 0;
  std::map<std::uint32_t, std::unique_ptr<PeerState>> peers_;  ///< by node id
  std::map<std::pair<std::uint32_t, std::uint32_t>, OutgoingTransfer> outgoing_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, IncomingTransfer> incoming_;
  std::vector<std::uint8_t> tx_scratch_;
};

}  // namespace dtnic::live
