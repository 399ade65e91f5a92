#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats/time_series.h"

/// \file result.h
/// Everything a finished run reports; the benchmark harness aggregates these
/// across seeds into the paper's figures.

namespace dtnic::scenario {

/// Wall-clock cost of one run, split by phase (util::ScopedTimer accounting:
/// phases are exclusive, so they partition the run without double-counting
/// nested callbacks). Observability only — never fed back into the
/// simulation and excluded from figure outputs, so paper-figure results stay
/// bit-identical across runs.
struct PhaseTimings {
  std::uint64_t scan_ns = 0;      ///< connectivity scans (contact detection)
  std::uint64_t routing_ns = 0;   ///< link up/down handlers + pump ticks
  /// Routing sub-phases; routing_pre_ns + routing_commit_ns = routing_ns.
  /// pre: contact handlers (pre-exchange, link up/down, their inline pumps).
  /// commit: the exchange tick (pump_all_idle: plan, accept and transfer
  /// start over every connected pair); reported as "exchange".
  std::uint64_t routing_pre_ns = 0;
  /// Always 0: the exchange has no separate planning stage, so its plan_into
  /// calls are booked in routing_commit_ns. Kept for readers that sum plan +
  /// commit (perfbench/harness.cpp).
  std::uint64_t routing_plan_ns = 0;
  std::uint64_t routing_commit_ns = 0;
  std::uint64_t transfer_ns = 0;  ///< transfer completion/abort handling
  std::uint64_t workload_ns = 0;  ///< message creation
  std::uint64_t wall_ns = 0;      ///< whole run() wall clock
  std::uint64_t scans = 0;        ///< connectivity scan ticks executed
};

struct RunResult {
  std::string scheme;
  std::uint64_t seed = 0;

  // Delivery.
  std::size_t created = 0;
  std::size_t delivered = 0;  ///< unique messages delivered to >= 1 destination
  double mdr = 0.0;
  double mean_hops = 0.0;
  double mean_latency_s = 0.0;
  std::uint64_t deliveries_total = 0;

  // Priority-segmented delivery (Fig. 5.6).
  std::size_t created_high = 0, created_medium = 0, created_low = 0;
  std::size_t delivered_high = 0, delivered_medium = 0, delivered_low = 0;
  double mdr_high = 0.0, mdr_medium = 0.0, mdr_low = 0.0;

  // Traffic (Fig. 5.2) and contact dynamics.
  std::uint64_t traffic = 0;  ///< transfers started
  std::uint64_t relay_arrivals = 0;
  std::uint64_t contacts = 0;
  std::uint64_t contacts_suppressed = 0;

  // Incentive economy.
  double avg_final_tokens = 0.0;
  double min_final_tokens = 0.0;
  double max_final_tokens = 0.0;
  /// Jain's fairness index of the final token balances (1 = perfectly even).
  double token_fairness = 1.0;
  double total_tokens = 0.0;  ///< conservation check: == N * initial tokens
  double tokens_paid = 0.0;
  std::uint64_t payments = 0;
  std::uint64_t refused_no_tokens = 0;
  std::uint64_t refused_untrusted = 0;

  // Losses.
  std::uint64_t aborted = 0;
  std::uint64_t dropped_buffer = 0;
  std::uint64_t dropped_ttl = 0;

  // Energy.
  double total_energy_j = 0.0;

  // Per-phase wall-clock cost of this run (not a simulation output).
  PhaseTimings timing;

  /// Artifact I/O failures (trace/report/stats streams that went bad while
  /// this run was being written out). Empty = every artifact is complete.
  /// Observers append "<artifact>: <what failed>" entries; the run manifest
  /// echoes them so a truncated file can never pass for a successful run.
  std::vector<std::string> artifact_errors;

  // Fig. 5.4: average rating of malicious nodes at non-malicious nodes.
  stats::TimeSeries malicious_rating;
  // Mean token balance over time (Fig. 5.3 analysis aid).
  stats::TimeSeries mean_tokens;
};

}  // namespace dtnic::scenario
