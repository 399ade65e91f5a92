#pragma once

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "scenario/config.h"
#include "scenario/experiment.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/thread_pool.h"

/// \file bench_common.h
/// Shared harness for the figure/table reproduction binaries.
///
/// Every binary runs at a density-preserving reduced scale by default so the
/// whole `bench/` directory completes in minutes on one core; the shapes of
/// the paper's results (who wins, crossovers, monotonicity) are preserved.
/// Set DTNIC_SCALE=paper (or pass --nodes/--hours/--seeds) to run the exact
/// Table 5.1 configuration with five seeds, as the paper does.
///
/// Seeded runs execute on the shared worker pool (sweep points x seeds as
/// one job set); results are aggregated in seed order, so the output is
/// identical to a serial sweep regardless of --threads / DTNIC_THREADS.

namespace dtnic::bench {

struct BenchScale {
  std::size_t nodes = 80;
  double hours = 4.0;
  std::size_t seeds = 3;
  bool paper = false;
};

/// Resolve scale from DTNIC_SCALE and optional CLI flags; a --threads flag
/// (default: DTNIC_THREADS env or hardware concurrency) sizes the shared
/// worker pool the experiment runners fan out on.
inline BenchScale resolve_scale(util::Cli& cli, int argc, const char* const* argv,
                                const std::string& program) {
  cli.add_flag("nodes", "0", "participants (0 = scale default)");
  cli.add_flag("hours", "0.0", "simulated hours (0 = scale default)");
  cli.add_flag("seeds", "0", "simulation runs to average (0 = scale default)");
  cli.add_flag("threads", "0", "worker threads (0 = DTNIC_THREADS or hardware)");
  cli.parse_or_exit(argc, argv, program);
  BenchScale scale;
  if (const char* env = std::getenv("DTNIC_SCALE"); env && std::string(env) == "paper") {
    scale.nodes = 500;
    scale.hours = 24.0;
    scale.seeds = 5;
    scale.paper = true;
  }
  if (cli.get_int("nodes") > 0) scale.nodes = static_cast<std::size_t>(cli.get_int("nodes"));
  if (cli.get_double("hours") > 0) scale.hours = cli.get_double("hours");
  if (cli.get_int("seeds") > 0) scale.seeds = static_cast<std::size_t>(cli.get_int("seeds"));
  if (cli.get_int("threads") > 0) {
    util::ThreadPool::set_shared_threads(static_cast<std::size_t>(cli.get_int("threads")));
  }
  return scale;
}

/// Base configuration at the resolved scale with the bench workload rate.
inline scenario::ScenarioConfig base_config(const BenchScale& scale) {
  scenario::ScenarioConfig cfg =
      scenario::ScenarioConfig::scaled_defaults(scale.nodes, scale.hours);
  // The thesis does not state the generation rate; 0.5 msg/node/h makes the
  // token economy bind within the 24 h horizon at paper scale (EXPERIMENTS.md).
  cfg.messages_per_node_per_hour = 0.5;
  if (!scale.paper) {
    // The token economy is volume-relative: 200 tokens against the paper's
    // 24 h x 500 node message volume. At reduced scale the allowance shrinks
    // proportionally so exhaustion dynamics (Figs. 5.1-5.3) are preserved.
    const double volume_ratio = (static_cast<double>(scale.nodes) * scale.hours) /
                                (500.0 * 24.0);
    // The floor keeps the allowance from binding so hard at low selfishness
    // that it dominates the selfish-fraction effect (EXPERIMENTS.md, F5.1).
    cfg.incentive.initial_tokens = std::max(12.0, 200.0 * volume_ratio);
  }
  return cfg;
}

inline void print_header(const std::string& title, const BenchScale& scale) {
  std::cout << "== " << title << " ==\n"
            << "scale: " << scale.nodes << " nodes, " << scale.hours << " h, "
            << scale.seeds << " seed(s), " << util::ThreadPool::shared().size()
            << " worker thread(s)"
            << (scale.paper ? " [paper scale, Table 5.1]" : " [reduced scale]") << "\n\n";
}

}  // namespace dtnic::bench
