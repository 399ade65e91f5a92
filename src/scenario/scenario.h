#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/behavior.h"
#include "core/incentive_router.h"
#include "core/pi_router.h"
#include "mobility/mobility_model.h"
#include "msg/id_source.h"
#include "msg/keyword.h"
#include "net/connectivity.h"
#include "net/contact_source.h"
#include "net/contact_trace.h"
#include "net/scripted_contacts.h"
#include "net/transfer.h"
#include "obs/event_fanout.h"
#include "routing/host.h"
#include "routing/oracle.h"
#include "scenario/config.h"
#include "scenario/result.h"
#include "sim/simulator.h"
#include "stats/metrics.h"

/// \file scenario.h
/// Wires every subsystem into one runnable world: mobility + connectivity
/// detect contacts, the contact controller drives the router protocol over
/// bandwidth-limited transfers, the workload generator creates annotated
/// messages, and the metrics collector observes everything. One Scenario is
/// one seeded run; the ExperimentRunner aggregates several.

namespace dtnic::scenario {

class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& config);
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Run to the configured horizon and report.
  RunResult run();

  // --- introspection (tests, examples) -------------------------------------
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] routing::Host& host(routing::NodeId id);
  [[nodiscard]] std::size_t node_count() const { return hosts_.size(); }
  [[nodiscard]] const stats::MetricsCollector& metrics() const { return metrics_; }
  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }
  /// The run's event hub: every Host dispatches here, and the metrics
  /// collector is its first sink. Register observers (trace sinks, per-node
  /// stats) before run(); they see events in registration order.
  [[nodiscard]] obs::EventFanout& events() { return fanout_; }
  [[nodiscard]] const core::BehaviorProfile& behavior_of(routing::NodeId id) const;
  [[nodiscard]] const routing::StaticInterestOracle& oracle() const { return oracle_; }
  [[nodiscard]] msg::KeywordTable& keywords() { return keywords_; }
  [[nodiscard]] const net::ContactTrace& contact_trace() const { return trace_; }
  /// The active contact source (mobility-driven or trace replay).
  [[nodiscard]] net::ContactSource& contacts() { return *contacts_; }
  /// The link/transfer bookkeeping (introspection for leak probes).
  [[nodiscard]] net::TransferManager& transfers() { return *transfers_; }

  /// Leak probe for the per-link exchange bookkeeping: one record per link
  /// the pump has visited, erased on link-down, so this is bounded by the
  /// live link count no matter how many contacts have churned through (the
  /// companion of the TransferManager links_tracked probe).
  [[nodiscard]] std::size_t exchange_state_tracked() const { return link_exchange_.size(); }

  /// Sum of all ledgers right now (token conservation checks).
  [[nodiscard]] double total_tokens() const;

  /// Fig. 5.4 metric: mean rating of malicious nodes across non-malicious
  /// nodes that have formed an opinion; default rating if none has.
  [[nodiscard]] double current_malicious_rating() const;

 private:
  void build();
  void make_router(std::size_t index);

  // Contact controller.
  void handle_link_up(routing::NodeId a, routing::NodeId b, double distance_m);
  void handle_link_down(routing::NodeId a, routing::NodeId b);
  void handle_transfer_complete(const net::TransferManager::Transfer& t,
                                util::SimTime duration);
  void handle_transfer_abort(const net::TransferManager::Transfer& t);
  /// Try to start the next transfer on an idle link; alternates direction.
  void pump(routing::NodeId a, routing::NodeId b);
  /// The exchange tick: pump every connected pair in connected_pairs() order.
  void pump_all_idle();

  // Workload.
  void schedule_next_message(std::size_t index);
  void create_message(std::size_t index);

  // Periodic maintenance.
  void ttl_sweep();
  void sample_series();

  /// Fill \p out with the hosts currently connected to \p id (clears first).
  void fill_neighbor_hosts(routing::NodeId id, std::vector<routing::Host*>& out);
  [[nodiscard]] static std::uint64_t pair_key(routing::NodeId a, routing::NodeId b);

  ScenarioConfig cfg_;
  util::Rng master_rng_;
  util::Rng gate_rng_;
  sim::Simulator sim_;
  msg::KeywordTable keywords_;
  std::vector<msg::KeywordId> pool_;
  msg::MessageIdSource ids_;
  routing::StaticInterestOracle oracle_;
  core::IncentiveWorld world_;
  core::PiEscrowBank pi_bank_;
  /// Declared before hosts_: hosts bind the fan-out by reference at
  /// construction, so it must outlive them.
  obs::EventFanout fanout_;
  stats::MetricsCollector metrics_;
  obs::SinkHandle metrics_sink_;

  std::vector<std::unique_ptr<mobility::MobilityModel>> mobility_;
  std::vector<std::unique_ptr<routing::Host>> hosts_;
  std::vector<core::BehaviorProfile> behaviors_;
  std::vector<util::Rng> workload_rng_;
  /// Fig. 5.6 source class per node: 0 high, 1 medium, 2 low.
  std::vector<int> source_class_;

  std::unique_ptr<net::ContactSource> contacts_;
  /// Non-owning view of contacts_ when mobility-driven (timing readout).
  net::ConnectivityManager* connectivity_ = nullptr;
  std::unique_ptr<net::TransferManager> transfers_;
  net::ContactTrace trace_;

  /// Per-phase wall-clock accumulators (util::ScopedTimer; exclusive).
  /// The routing phase is split into two sub-counters that partition it:
  /// pre (contact handlers: pre-exchange/link-up/down and their inline
  /// pumps) and exchange (the pump_all_idle tick).
  std::uint64_t routing_pre_ns_ = 0;
  std::uint64_t exchange_ns_ = 0;
  std::uint64_t transfer_ns_ = 0;
  std::uint64_t workload_ns_ = 0;

  struct PendingTransfer {
    routing::ForwardPlan plan;
    msg::Message copy;  ///< snapshot taken when the transfer started
  };
  std::unordered_map<std::uint64_t, PendingTransfer> pending_;

  /// What the pump remembers about one link for the rest of its contact.
  struct LinkExchange {
    /// Which endpoint offers first; flips after every started transfer.
    bool toggle = false;
    /// Buffer revisions of both endpoints at the last fruitless pump; the
    /// link is not re-planned until either endpoint's buffer changes.
    std::optional<std::pair<std::uint64_t, std::uint64_t>> idle_revisions;
    /// Offers refused during this contact (message id << 1 | direction bit);
    /// a refused offer is not retried until the next contact.
    std::unordered_set<std::uint64_t> refused;
  };
  /// Keyed by pair_key; an entry ends with its contact (handle_link_down).
  std::unordered_map<std::uint64_t, LinkExchange> link_exchange_;

  /// Contact-controller scratch, reused across contacts so the per-contact
  /// pre-exchange/plan path allocates nothing at steady state.
  std::vector<routing::Host*> neighbors_a_scratch_;
  std::vector<routing::Host*> neighbors_b_scratch_;
  std::vector<routing::ForwardPlan> plan_scratch_;

  stats::TimeSeries malicious_rating_series_;
  stats::TimeSeries mean_tokens_series_;
  bool built_ = false;
};

}  // namespace dtnic::scenario
