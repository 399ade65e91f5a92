/// Reproduces Figure 5.5: MDR vs number of users in a FIXED area (the paper
/// holds 5 km² and grows the population 500 -> 1500). Density rises with the
/// user count. Paper shape: both schemes' MDR grows with density, and the
/// gap between Incentive and ChitChat narrows, almost vanishing at 3x users
/// (more alternative paths per message).
///
/// Beyond the figure itself, --mega extends the sweep into the 10^5-node
/// regime: one short-horizon 100k-node point per scheme. Use --mega-nodes to
/// vary the population.

#include <chrono>
#include <cmath>
#include <iostream>

#include "bench_common.h"

namespace {

/// One population point at fixed Table 5.1 density, short horizon, single
/// seed — the regime where a tick touches 10^5 nodes.
void run_mega_point(std::size_t nodes) {
  using namespace dtnic;
  scenario::ScenarioConfig cfg = scenario::ScenarioConfig::scaled_defaults(
      nodes, /*sim_hours=*/0.05);  // 3 simulated minutes: ~180 full scans
  cfg.messages_per_node_per_hour = 0.5;
  cfg.sample_interval_s = 60.0;

  util::Table table({"scheme", "MDR", "contacts", "wall s"});
  for (const auto scheme : {scenario::Scheme::kIncentive, scenario::Scheme::kChitChat}) {
    cfg.scheme = scheme;
    const auto start = std::chrono::steady_clock::now();
    const scenario::ExperimentRunner runner(/*seeds=*/1);
    const auto agg = runner.run_serial(cfg);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    table.add_row({scenario::scheme_name(scheme),
                   util::Table::cell(agg.mdr.mean(), 3),
                   std::to_string(agg.raw.front().contacts),
                   util::Table::cell(wall_s, 1)});
  }
  std::cout << "\n-- mega point: " << nodes << " nodes, 0.05 h --\n";
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dtnic;
  util::Cli cli;
  cli.add_flag("mega", "false", "also run a 10^5-node point");
  cli.add_flag("mega-nodes", "100000", "population of the --mega point");
  const bench::BenchScale scale = bench::resolve_scale(cli, argc, argv, argv[0]);
  bench::print_header("Figure 5.5: MDR vs number of users (fixed area)", scale);

  const scenario::SweepRunner sweep(scale.seeds);
  scenario::ScenarioConfig base = bench::base_config(scale);
  if (!scale.paper) {
    // Tripling the population in a fixed area is quadratically expensive;
    // start from a smaller world so the 3x point stays tractable.
    base.num_nodes = std::max<std::size_t>(40, scale.nodes / 2);
    base.sim_hours = std::min(3.0, scale.hours);
    base.messages_per_node_per_hour = 0.25;
    // Keep the 1x point at Table 5.1 density (100 nodes per km²).
    base.area_side_m = std::sqrt(static_cast<double>(base.num_nodes) /
                                 (500.0 / (2236.0 * 2236.0)));
  }

  std::vector<scenario::ScenarioConfig> points;
  for (const double mult : {1.0, 2.0, 3.0}) {  // paper: 500, 1000, 1500
    scenario::ScenarioConfig cfg = base;
    cfg.num_nodes = static_cast<std::size_t>(static_cast<double>(base.num_nodes) * mult);
    // area stays fixed at the base scale: density grows, as in the paper.
    cfg.scheme = scenario::Scheme::kIncentive;
    points.push_back(cfg);
    cfg.scheme = scenario::Scheme::kChitChat;
    points.push_back(cfg);
  }
  const auto results = sweep.run_all(points);

  util::Table table({"users", "MDR incentive", "MDR chitchat", "gap"});
  for (std::size_t i = 0; i < points.size(); i += 2) {
    const auto& incentive = results[i];
    const auto& chitchat = results[i + 1];
    table.add_row({std::to_string(points[i].num_nodes),
                   util::Table::cell(incentive.mdr.mean(), 3),
                   util::Table::cell(chitchat.mdr.mean(), 3),
                   util::Table::cell(chitchat.mdr.mean() - incentive.mdr.mean(), 3)});
  }
  table.print(std::cout);
  std::cout << "\nexpected shape: MDR rises with density for both schemes; the\n"
               "chitchat-minus-incentive gap shrinks toward zero.\n";

  if (cli.get_bool("mega")) {
    run_mega_point(static_cast<std::size_t>(cli.get_int("mega-nodes")));
  }
  return 0;
}
