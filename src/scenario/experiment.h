#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "scenario/config.h"
#include "scenario/result.h"
#include "util/summary.h"

/// \file experiment.h
/// Multi-seed experiment execution: the paper reports every figure as the
/// average of five simulation runs; AggregateResult carries mean and stddev
/// of each metric across seeds.
///
/// Seeded runs are independent (each Scenario owns its RNG, keyword table
/// and metrics), so ExperimentRunner fans them across the process-wide
/// util::ThreadPool and aggregates in deterministic seed order — the
/// parallel result is bit-identical to the serial one. SweepRunner extends
/// the same idea across a whole sweep: all (point, seed) jobs are submitted
/// as one batch so the pool never idles between sweep points.

namespace dtnic::scenario {

class Scenario;

/// Per-run observability hook. An observer is created on the worker thread
/// that owns the seeded Scenario, registers its sinks on scenario.events()
/// in the factory, and is destroyed (after on_finish) before the Scenario —
/// so each seeded run writes to its own sinks with no cross-thread sharing
/// and no locking.
class RunObserver {
 public:
  virtual ~RunObserver() = default;
  /// Called after run() completes, while the Scenario is still alive. The
  /// result is mutable so observers can surface artifact-write failures
  /// (result.artifact_errors) — a truncated trace or stats file must be
  /// visible in the run's own record, not just on stderr.
  virtual void on_finish(Scenario& scenario, RunResult& result) { (void)scenario; (void)result; }
};

/// Invoked once per seeded run, on the run's worker thread, after the
/// Scenario is built but before run(). May return nullptr for "no observer".
using ObserverFactory =
    std::function<std::unique_ptr<RunObserver>(Scenario& scenario, std::uint64_t seed)>;

struct AggregateResult {
  std::string scheme;
  std::size_t runs = 0;
  util::RunningStats mdr;
  util::RunningStats traffic;
  util::RunningStats created;
  util::RunningStats delivered;
  util::RunningStats mdr_high;
  util::RunningStats mdr_medium;
  util::RunningStats mdr_low;
  util::RunningStats avg_final_tokens;
  util::RunningStats refused_no_tokens;
  util::RunningStats refused_untrusted;
  util::RunningStats mean_latency_s;
  util::RunningStats mean_hops;
  /// Per-phase wall-clock cost across seeds, in milliseconds (observability
  /// only: never part of figure outputs).
  util::RunningStats scan_ms;
  util::RunningStats routing_ms;
  /// Routing sub-phases (see PhaseTimings): pre-exchange handlers and the
  /// exchange tick (routing_commit_ns).
  util::RunningStats routing_pre_ms;
  util::RunningStats routing_commit_ms;
  util::RunningStats transfer_ms;
  util::RunningStats workload_ms;
  util::RunningStats wall_ms;
  std::vector<RunResult> raw;  ///< per-seed results (time series live here)
};

class ExperimentRunner {
 public:
  /// Number of seeds per configuration; the paper uses five runs.
  explicit ExperimentRunner(std::size_t seeds = 5, std::uint64_t base_seed = 1);

  /// Run one configuration across all seeds (seed = base, base+1, ...),
  /// fanned out over util::ThreadPool::shared(). Aggregation happens in
  /// seed order, so the result is bit-identical to run_serial(). The
  /// optional factory attaches per-run observers (trace sinks, per-node
  /// stats); each run's observer lives on that run's worker thread.
  [[nodiscard]] AggregateResult run(ScenarioConfig config,
                                    const ObserverFactory& factory = {}) const;

  /// Reference implementation: the same seeds, one after another on the
  /// calling thread. Kept as the determinism baseline for tests.
  [[nodiscard]] AggregateResult run_serial(ScenarioConfig config,
                                           const ObserverFactory& factory = {}) const;

  /// Run a single seeded configuration.
  [[nodiscard]] static RunResult run_once(ScenarioConfig config,
                                          const ObserverFactory& factory = {});

  /// Fold per-seed results (already in seed order) into an aggregate.
  [[nodiscard]] static AggregateResult aggregate(std::string scheme,
                                                 std::vector<RunResult> runs);

  /// Fig. 5.4 helper: average the malicious-rating series across seeds over
  /// the union of all runs' sample times. Runs that have no sample at (or
  /// before) a grid time contribute their series' initial value.
  [[nodiscard]] static std::vector<std::pair<double, double>> mean_series(
      const std::vector<RunResult>& runs);

  [[nodiscard]] std::size_t seeds() const { return seeds_; }
  [[nodiscard]] std::uint64_t base_seed() const { return base_seed_; }

 private:
  std::size_t seeds_;
  std::uint64_t base_seed_;
};

/// Parallelizes a whole sweep (points x seeds) as one job set on the shared
/// pool. Results come back in input order, each aggregated in seed order,
/// so a sweep produces exactly what point-by-point ExperimentRunner::run
/// calls would — just without serializing across sweep points.
class SweepRunner {
 public:
  explicit SweepRunner(std::size_t seeds = 5, std::uint64_t base_seed = 1);

  /// Run every configuration across all seeds; result i corresponds to
  /// points[i].
  [[nodiscard]] std::vector<AggregateResult> run_all(
      const std::vector<ScenarioConfig>& points) const;

  [[nodiscard]] std::size_t seeds() const { return seeds_; }

 private:
  std::size_t seeds_;
  std::uint64_t base_seed_;
};

}  // namespace dtnic::scenario
