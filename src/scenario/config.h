#pragma once

#include <cstdint>
#include <string>

#include "core/incentive.h"
#include "core/pi_router.h"
#include "core/reputation.h"
#include "net/radio.h"
#include "routing/chitchat/interest_table.h"
#include "routing/nectar.h"
#include "routing/prophet.h"
#include "util/sim_time.h"

/// \file config.h
/// One struct describes a complete simulation scenario. paper_defaults()
/// reproduces Table 5.1; scaled_defaults() is a density-preserving shrink
/// (fewer nodes in a smaller area, shorter horizon) that the benchmark
/// harness uses so a full figure sweep completes in minutes on one core.

namespace dtnic::scenario {

/// Routing scheme under test.
enum class Scheme {
  kIncentive,     ///< the paper's contribution: ChitChat + incentives + DRM
  kPiIncentive,   ///< PI-style source-pays alternative (thesis §2.1 survey)
  kChitChat,      ///< plain ChitChat (the paper's comparison baseline)
  kEpidemic,
  kDirectDelivery,
  kSprayAndWait,
  kFirstContact,
  kVaccineEpidemic,  ///< epidemic + antipackets (immunity-based variant)
  kProphet,       ///< data-centric PRoPHET adaptation
  kNectar,        ///< meeting-frequency neighborhood index (thesis §1.1)
  kTwoHop,        ///< two-hop relay (thesis §1.1)
};

[[nodiscard]] const char* scheme_name(Scheme s);

/// Node movement model.
enum class MobilityKind {
  kRandomWaypoint,  ///< Table 5.1 / the paper's evaluation
  kRandomWalk,
  kHotspot,         ///< points-of-interest clustering (ablation)
};

[[nodiscard]] const char* mobility_name(MobilityKind k);

struct ScenarioConfig {
  // --- Table 5.1 -----------------------------------------------------------
  std::size_t num_nodes = 500;           ///< Number of Participants
  std::size_t keyword_pool_size = 200;   ///< Pool of Social Interest Keywords
  std::size_t interests_per_node = 20;   ///< No of Defined Social Interests
  net::RadioParams radio{};              ///< 250 kBps, 100 m
  std::uint64_t buffer_capacity_bytes = 250ull * 1024 * 1024;  ///< 250 MB
  std::uint64_t message_size_bytes = 1ull * 1024 * 1024;       ///< 1 MB
  double area_side_m = 2236.0;           ///< ~5 km² square
  double sim_hours = 24.0;               ///< Simulated time
  // relay threshold + initial tokens live in `incentive`

  // --- scheme & algorithm parameters --------------------------------------
  Scheme scheme = Scheme::kIncentive;
  routing::chitchat::ChitChatParams chitchat{};
  core::IncentiveParams incentive{};
  core::DrmParams drm{};
  bool enrichment_enabled = true;
  int spray_copies = 8;  ///< L for the Spray-and-Wait baseline
  core::PiParams pi{};  ///< source-pays alternative's knobs
  routing::ProphetParams prophet{};
  routing::NectarParams nectar{};

  // --- behavior population -------------------------------------------------
  double selfish_fraction = 0.0;    ///< swept in Figs. 5.1–5.3, 5.6
  double malicious_fraction = 0.0;  ///< swept in Fig. 5.4
  /// Fraction of nodes that economize once their battery runs low (the
  /// endogenous-selfishness extension; ablation_battery exercises it).
  double battery_conscious_fraction = 0.0;
  double battery_capacity_j = 20'000.0;  ///< per-node battery
  double battery_threshold = 0.3;        ///< level below which they economize
  double battery_participation = 0.2;    ///< encounter gate when economizing
  double selfish_participation = 0.1;  ///< radio open 1-in-10 encounters
  double enrich_probability = 0.3;     ///< honest relay enrichment chance
  int honest_max_tags = 2;
  int malicious_tags = 3;
  /// Fraction of nodes with role rank 1 ("sergeants"); the rest are rank 2.
  /// Feeds Algorithm 3's R_u < R_v special case.
  double officer_fraction = 0.1;

  // --- workload -------------------------------------------------------------
  /// Mean message creations per node per hour (exponential interarrival).
  double messages_per_node_per_hour = 0.25;
  /// Keywords the source itself tags on a new message.
  int keywords_per_message = 3;
  /// Additional latent-truth keywords the source does NOT tag — facts about
  /// the content only en-route relays can contribute (§1.3.2: "happen to
  /// have supplementary information about the content"). Honest enrichment
  /// draws from these; 0 disables the enrichment headroom.
  int latent_extra_keywords = 2;
  /// Message TTL; <= 0 means unlimited (the paper does not expire messages).
  double ttl_hours = 0.0;
  /// Fig. 5.6 workload: 50% of sources emit high-priority/high-quality
  /// large messages, 30% medium, 20% low. Otherwise all messages are
  /// medium priority with quality uniform in [0.5, 1].
  bool priority_workload = false;

  // --- mobility & kernel ----------------------------------------------------
  /// When non-empty, contacts are replayed from this trace file (one
  /// `up_s down_s node_a node_b [distance_m]` event per line) instead of
  /// being detected from mobility; see net/scripted_contacts.h.
  std::string contact_trace_file;
  MobilityKind mobility = MobilityKind::kRandomWaypoint;
  double min_speed_mps = 0.5;
  double max_speed_mps = 1.5;
  double max_pause_s = 120.0;
  std::size_t hotspot_count = 5;       ///< kHotspot: shared attraction points
  double hotspot_radius_m = 150.0;
  double hotspot_probability = 0.8;
  double scan_interval_s = 5.0;     ///< connectivity scan period
  double ttl_sweep_interval_s = 600.0;
  double sample_interval_s = 1800.0;  ///< metric time-series sampling

  std::uint64_t seed = 1;

  /// Validate invariants; throws std::invalid_argument on nonsense.
  void validate() const;

  /// Table 5.1 exactly.
  [[nodiscard]] static ScenarioConfig paper_defaults();

  /// Density-preserving shrink: \p nodes participants in an area scaled so
  /// nodes-per-km² matches Table 5.1, over \p hours simulated hours.
  [[nodiscard]] static ScenarioConfig scaled_defaults(std::size_t nodes = 150,
                                                      double hours = 6.0);
};

}  // namespace dtnic::scenario
