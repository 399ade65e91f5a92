#include "scenario/experiment.h"

#include <algorithm>
#include <future>

#include "scenario/scenario.h"
#include "util/assert.h"
#include "util/thread_pool.h"

namespace dtnic::scenario {

namespace {

/// Submit one job per seed (seed = base, base+1, ...) for \p config. The
/// factory is shared read-only across jobs; each job invokes it on its own
/// worker thread to build a run-private observer.
std::vector<std::future<RunResult>> submit_seeds(util::ThreadPool& pool,
                                                 const ScenarioConfig& config,
                                                 std::size_t seeds,
                                                 std::uint64_t base_seed,
                                                 const ObserverFactory& factory = {}) {
  std::vector<std::future<RunResult>> futures;
  futures.reserve(seeds);
  for (std::size_t i = 0; i < seeds; ++i) {
    ScenarioConfig seeded = config;
    seeded.seed = base_seed + i;
    futures.push_back(pool.submit([seeded = std::move(seeded), factory] {
      return ExperimentRunner::run_once(seeded, factory);
    }));
  }
  return futures;
}

std::vector<RunResult> collect(std::vector<std::future<RunResult>>& futures) {
  std::vector<RunResult> runs;
  runs.reserve(futures.size());
  for (auto& f : futures) runs.push_back(f.get());  // rethrows task exceptions
  return runs;
}

}  // namespace

ExperimentRunner::ExperimentRunner(std::size_t seeds, std::uint64_t base_seed)
    : seeds_(seeds), base_seed_(base_seed) {
  DTNIC_REQUIRE_MSG(seeds >= 1, "need at least one seed");
}

RunResult ExperimentRunner::run_once(ScenarioConfig config, const ObserverFactory& factory) {
  Scenario scenario(config);
  std::unique_ptr<RunObserver> observer;
  if (factory) observer = factory(scenario, config.seed);
  RunResult result = scenario.run();
  if (observer) observer->on_finish(scenario, result);
  // The observer (and any sinks it registered) dies before the Scenario.
  observer.reset();
  return result;
}

AggregateResult ExperimentRunner::aggregate(std::string scheme, std::vector<RunResult> runs) {
  AggregateResult agg;
  agg.scheme = std::move(scheme);
  for (RunResult& r : runs) {
    agg.mdr.add(r.mdr);
    agg.traffic.add(static_cast<double>(r.traffic));
    agg.created.add(static_cast<double>(r.created));
    agg.delivered.add(static_cast<double>(r.delivered));
    agg.mdr_high.add(r.mdr_high);
    agg.mdr_medium.add(r.mdr_medium);
    agg.mdr_low.add(r.mdr_low);
    agg.avg_final_tokens.add(r.avg_final_tokens);
    agg.refused_no_tokens.add(static_cast<double>(r.refused_no_tokens));
    agg.refused_untrusted.add(static_cast<double>(r.refused_untrusted));
    agg.mean_latency_s.add(r.mean_latency_s);
    agg.mean_hops.add(r.mean_hops);
    constexpr double kMs = 1e-6;
    agg.scan_ms.add(static_cast<double>(r.timing.scan_ns) * kMs);
    agg.routing_ms.add(static_cast<double>(r.timing.routing_ns) * kMs);
    agg.routing_pre_ms.add(static_cast<double>(r.timing.routing_pre_ns) * kMs);
    agg.routing_commit_ms.add(static_cast<double>(r.timing.routing_commit_ns) * kMs);
    agg.transfer_ms.add(static_cast<double>(r.timing.transfer_ns) * kMs);
    agg.workload_ms.add(static_cast<double>(r.timing.workload_ns) * kMs);
    agg.wall_ms.add(static_cast<double>(r.timing.wall_ns) * kMs);
    agg.raw.push_back(std::move(r));
    ++agg.runs;
  }
  return agg;
}

AggregateResult ExperimentRunner::run(ScenarioConfig config,
                                      const ObserverFactory& factory) const {
  auto futures = submit_seeds(util::ThreadPool::shared(), config, seeds_, base_seed_, factory);
  std::vector<RunResult> runs = collect(futures);
  return aggregate(scheme_name(config.scheme), std::move(runs));
}

AggregateResult ExperimentRunner::run_serial(ScenarioConfig config,
                                             const ObserverFactory& factory) const {
  std::vector<RunResult> runs;
  runs.reserve(seeds_);
  for (std::size_t i = 0; i < seeds_; ++i) {
    config.seed = base_seed_ + i;
    runs.push_back(run_once(config, factory));
  }
  return aggregate(scheme_name(config.scheme), std::move(runs));
}

std::vector<std::pair<double, double>> ExperimentRunner::mean_series(
    const std::vector<RunResult>& runs) {
  std::vector<std::pair<double, double>> out;
  if (runs.empty()) return out;
  // Union grid: a run with a staggered (or empty) sample schedule still has
  // its times represented, and contributes its step value everywhere else.
  std::vector<util::SimTime> grid;
  for (const RunResult& r : runs) {
    for (const stats::Sample& s : r.malicious_rating.samples()) grid.push_back(s.time);
  }
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  out.reserve(grid.size());
  for (const util::SimTime t : grid) {
    double sum = 0.0;
    for (const RunResult& r : runs) {
      sum += r.malicious_rating.value_at(t);
    }
    out.emplace_back(t.sec(), sum / static_cast<double>(runs.size()));
  }
  return out;
}

SweepRunner::SweepRunner(std::size_t seeds, std::uint64_t base_seed)
    : seeds_(seeds), base_seed_(base_seed) {
  DTNIC_REQUIRE_MSG(seeds >= 1, "need at least one seed");
}

std::vector<AggregateResult> SweepRunner::run_all(
    const std::vector<ScenarioConfig>& points) const {
  util::ThreadPool& pool = util::ThreadPool::shared();
  // One flat batch of points x seeds jobs keeps every worker busy across
  // sweep-point boundaries (sweep points rarely divide the worker count).
  std::vector<std::future<RunResult>> futures;
  futures.reserve(points.size() * seeds_);
  for (const ScenarioConfig& point : points) {
    auto batch = submit_seeds(pool, point, seeds_, base_seed_);
    for (auto& f : batch) futures.push_back(std::move(f));
  }
  std::vector<AggregateResult> out;
  out.reserve(points.size());
  std::size_t next = 0;
  for (const ScenarioConfig& point : points) {
    std::vector<RunResult> runs;
    runs.reserve(seeds_);
    for (std::size_t i = 0; i < seeds_; ++i) runs.push_back(futures[next++].get());
    out.push_back(ExperimentRunner::aggregate(scheme_name(point.scheme), std::move(runs)));
  }
  return out;
}

}  // namespace dtnic::scenario
