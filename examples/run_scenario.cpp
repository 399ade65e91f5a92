/// Config-driven experiment runner: replays any scenario described in a
/// ONE-style `key = value` file (see examples/configs/) and prints the run
/// report — the workflow a downstream user follows to test their own
/// parameter ranges without recompiling.
///
///   ./run_scenario --config examples/configs/selfish_sweep.cfg
///   ./run_scenario --config ... --set selfish_fraction=0.4 --seeds 5
///   ./run_scenario --trace-out run.jsonl --node-stats-out nodes.csv \
///                  --manifest-out manifest.json
///
/// Seeds run in parallel on the shared worker pool (--threads or
/// DTNIC_THREADS to size it); the aggregate is identical to a serial run.
/// With several seeds, per-run artifacts get a `.seed<N>` suffix before the
/// extension — each run writes to its own files, so no locking is needed.

#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "obs/node_stats.h"
#include "obs/run_manifest.h"
#include "obs/trace_sink.h"
#include "scenario/config_io.h"
#include "scenario/experiment.h"
#include "scenario/report.h"
#include "scenario/scenario.h"
#include "util/cli.h"
#include "util/num_format.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace dtnic;

/// `out/trace.jsonl` + seed 7 -> `out/trace.seed7.jsonl`; used only when a
/// run fans out over several seeds so artifacts never collide.
std::string seed_path(const std::string& path, std::uint64_t seed) {
  const auto slash = path.find_last_of('/');
  const auto dot = path.find_last_of('.');
  std::string suffix = ".seed" + std::to_string(seed);
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + suffix;
  }
  return path.substr(0, dot) + suffix + path.substr(dot);
}

scenario::ReportFormat parse_format(const std::string& name) {
  if (name == "table") return scenario::ReportFormat::kTable;
  if (name == "csv") return scenario::ReportFormat::kCsv;
  if (name == "json") return scenario::ReportFormat::kJson;
  throw std::runtime_error("unknown --report-format '" + name + "' (table|csv|json)");
}

/// Per-run observability sinks, built by the observer factory on the run's
/// worker thread. Sinks register on the scenario's fan-out and the handles
/// release them when the observer dies (before the Scenario, per the
/// ExperimentRunner contract).
class CliObserver final : public scenario::RunObserver {
 public:
  CliObserver(scenario::Scenario& s, std::uint64_t seed, const std::string& trace_path,
              std::uint32_t trace_sample, std::string node_stats_path)
      : node_stats_path_(std::move(node_stats_path)) {
    if (!trace_path.empty()) {
      obs::TraceOptions opt;
      opt.clock = [&sim = s.simulator()] { return sim.now(); };
      opt.seed = seed;
      opt.scheme = scenario::scheme_name(s.config().scheme);
      opt.sample_every = trace_sample;
      trace_ = obs::open_trace_file(trace_path, std::move(opt));
      trace_handle_ = s.events().add_sink(*trace_);
    }
    if (!node_stats_path_.empty()) {
      nodes_ = std::make_unique<obs::NodeStatsCollector>();
      nodes_handle_ = s.events().add_sink(*nodes_);
    }
  }

  void on_finish(scenario::Scenario&, scenario::RunResult& result) override {
    if (trace_) {
      trace_->flush();
      if (!trace_->ok()) {
        result.artifact_errors.push_back("trace: write failed (truncated output)");
      }
    }
    if (!nodes_) return;
    std::ofstream os(node_stats_path_);
    if (!os) {
      result.artifact_errors.push_back("node_stats: cannot open " + node_stats_path_);
      return;
    }
    const bool json = node_stats_path_.size() >= 5 &&
                      node_stats_path_.compare(node_stats_path_.size() - 5, 5, ".json") == 0;
    if (json) {
      nodes_->write_json(os);
    } else {
      nodes_->write_csv(os);
    }
    os.flush();
    if (!os.good()) {
      result.artifact_errors.push_back("node_stats: write failed (truncated output)");
    }
  }

 private:
  std::unique_ptr<obs::TraceSink> trace_;
  obs::SinkHandle trace_handle_;
  std::unique_ptr<obs::NodeStatsCollector> nodes_;
  obs::SinkHandle nodes_handle_;
  std::string node_stats_path_;
};

void write_manifest_file(const std::string& path, const scenario::ScenarioConfig& cfg,
                         std::size_t seeds, const scenario::AggregateResult& agg,
                         const std::string& trace_path, const std::string& node_stats_path) {
  obs::RunManifest m;
  m.tool = "run_scenario";
  m.scheme = scenario::scheme_name(cfg.scheme);
  for (std::size_t i = 0; i < seeds; ++i) m.seeds.push_back(cfg.seed + i);
  m.git_revision = obs::git_describe();
  m.config_text = scenario::to_config_text(cfg);
  m.metrics = {
      {"mdr", agg.mdr.mean()},
      {"mdr_stddev", agg.mdr.stddev()},
      {"created", agg.created.mean()},
      {"delivered", agg.delivered.mean()},
      {"traffic", agg.traffic.mean()},
      {"mean_latency_s", agg.mean_latency_s.mean()},
      {"mean_hops", agg.mean_hops.mean()},
      {"avg_final_tokens", agg.avg_final_tokens.mean()},
      {"refused_no_tokens", agg.refused_no_tokens.mean()},
      {"refused_untrusted", agg.refused_untrusted.mean()},
  };
  m.timings_ms = {
      {"scan", agg.scan_ms.mean()},
      {"routing", agg.routing_ms.mean()},
      {"routing_pre", agg.routing_pre_ms.mean()},
      {"routing_plan", agg.routing_plan_ms.mean()},
      {"routing_commit", agg.routing_commit_ms.mean()},
      {"transfer", agg.transfer_ms.mean()},
      {"workload", agg.workload_ms.mean()},
      {"wall", agg.wall_ms.mean()},
  };
  if (!trace_path.empty()) m.artifacts.emplace_back("trace", trace_path);
  if (!node_stats_path.empty()) m.artifacts.emplace_back("node_stats", node_stats_path);
  for (const scenario::RunResult& r : agg.raw) {
    for (const std::string& err : r.artifact_errors) {
      m.artifact_errors.push_back("seed " + std::to_string(r.seed) + " " + err);
    }
  }
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write manifest to " + path);
  obs::write_manifest(os, m);
}

/// Aggregate (mean/stddev) rendering in the requested format; the table and
/// CSV forms share one util::Table, JSON is a flat `dtnic.report.v1` object.
void print_aggregate(std::ostream& os, scenario::ReportFormat fmt,
                     const scenario::AggregateResult& agg) {
  if (fmt == scenario::ReportFormat::kJson) {
    std::string buf = "{\"schema\":\"dtnic.report.v1\",\"kind\":\"aggregate\",\"scheme\":\"";
    buf += agg.scheme;
    buf += "\",\"runs\":";
    util::append_u64(buf, agg.runs);
    auto pair = [&buf](const char* name, const util::RunningStats& s) {
      buf += ",\"";
      buf += name;
      buf += "\":{\"mean\":";
      util::append_double(buf, s.mean());
      buf += ",\"stddev\":";
      util::append_double(buf, s.stddev());
      buf += "}";
    };
    pair("created", agg.created);
    pair("delivered", agg.delivered);
    pair("mdr", agg.mdr);
    pair("traffic", agg.traffic);
    pair("mean_latency_s", agg.mean_latency_s);
    pair("mean_hops", agg.mean_hops);
    pair("avg_final_tokens", agg.avg_final_tokens);
    pair("refused_no_tokens", agg.refused_no_tokens);
    pair("refused_untrusted", agg.refused_untrusted);
    buf += "}\n";
    os << buf;
    return;
  }
  util::Table table({"metric", "mean", "stddev"});
  auto row = [&table](const std::string& name, const util::RunningStats& s, int precision) {
    table.add_row({name, util::Table::cell(s.mean(), precision),
                   util::Table::cell(s.stddev(), precision)});
  };
  row("created", agg.created, 1);
  row("delivered", agg.delivered, 1);
  row("MDR", agg.mdr, 4);
  row("traffic (transfers)", agg.traffic, 1);
  row("mean latency (s)", agg.mean_latency_s, 1);
  row("mean hops", agg.mean_hops, 2);
  row("final tokens per node", agg.avg_final_tokens, 2);
  row("refused: no tokens", agg.refused_no_tokens, 1);
  row("refused: untrusted", agg.refused_untrusted, 1);
  if (fmt == scenario::ReportFormat::kCsv) {
    table.print_csv(os);
  } else {
    table.print(os);
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("config", "", "path to a scenario .cfg file (empty = Table 5.1 defaults)");
  cli.add_flag("set", "", "inline override, e.g. --set selfish_fraction=0.3");
  cli.add_flag("seeds", "3", "simulation runs to average");
  cli.add_flag("threads", "0", "worker threads (0 = DTNIC_THREADS or hardware)");
  cli.add_flag("print-config", "false", "dump the effective configuration and exit");
  cli.add_flag("timing", "false", "print a per-phase wall-clock breakdown after the report");
  cli.add_flag("report-format", "table", "aggregate report format: table, csv, or json");
  cli.add_flag("trace-out", "",
               "write a dtnic.trace.v1 JSONL event trace here (`.seed<N>` inserted "
               "per seed when --seeds > 1)");
  cli.add_flag("trace-sample", "1", "keep 1 in N trace records per event type");
  cli.add_flag("node-stats-out", "",
               "write per-node counters here (.json for JSON, anything else CSV)");
  cli.add_flag("manifest-out", "", "write a dtnic.manifest.v1 reproducibility manifest here");
  cli.parse_or_exit(argc, argv, argv[0]);
  if (cli.get_int("threads") > 0) {
    util::ThreadPool::set_shared_threads(static_cast<std::size_t>(cli.get_int("threads")));
  }

  scenario::ScenarioConfig cfg = scenario::ScenarioConfig::paper_defaults();
  scenario::ReportFormat fmt = scenario::ReportFormat::kTable;
  try {
    if (!cli.get("config").empty()) {
      cfg = scenario::apply_config(cfg, util::Config::load_file(cli.get("config")));
    }
    if (!cli.get("set").empty()) {
      cfg = scenario::apply_config(cfg, util::Config::parse(cli.get("set")));
    }
    fmt = parse_format(cli.get("report-format"));
    if (cli.get_int("trace-sample") < 1) {
      throw std::runtime_error("--trace-sample must be >= 1");
    }
  } catch (const std::exception& e) {
    std::cerr << "configuration error: " << e.what() << "\n";
    return 1;
  }

  if (cli.get_bool("print-config")) {
    std::cout << scenario::to_config_text(cfg);
    return 0;
  }

  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));
  // Machine-readable formats keep stdout clean; the preamble moves to stderr.
  std::ostream& chatter = fmt == scenario::ReportFormat::kTable ? std::cout : std::cerr;
  chatter << "running '" << scenario::scheme_name(cfg.scheme) << "' on " << cfg.num_nodes
          << " nodes for " << cfg.sim_hours << " h (" << seeds << " seed(s), "
          << util::ThreadPool::shared().size() << " worker thread(s))...\n\n";

  const std::string trace_out = cli.get("trace-out");
  const std::string node_stats_out = cli.get("node-stats-out");
  const auto trace_sample = static_cast<std::uint32_t>(cli.get_int("trace-sample"));

  scenario::ObserverFactory factory;
  if (!trace_out.empty() || !node_stats_out.empty()) {
    factory = [=](scenario::Scenario& s,
                  std::uint64_t seed) -> std::unique_ptr<scenario::RunObserver> {
      const bool multi = seeds > 1;
      const std::string trace =
          trace_out.empty() ? trace_out : (multi ? seed_path(trace_out, seed) : trace_out);
      const std::string nodes = node_stats_out.empty()
                                    ? node_stats_out
                                    : (multi ? seed_path(node_stats_out, seed) : node_stats_out);
      return std::make_unique<CliObserver>(s, seed, trace, trace_sample, nodes);
    };
  }

  const scenario::ExperimentRunner runner(seeds);
  scenario::AggregateResult agg;
  try {
    agg = runner.run(cfg, factory);
  } catch (const std::exception& e) {
    std::cerr << "run failed: " << e.what() << "\n";
    return 1;
  }

  print_aggregate(std::cout, fmt, agg);

  bool artifact_failure = false;
  for (const scenario::RunResult& r : agg.raw) {
    for (const std::string& err : r.artifact_errors) {
      std::cerr << "artifact error (seed " << r.seed << "): " << err << "\n";
      artifact_failure = true;
    }
  }

  if (!cli.get("manifest-out").empty()) {
    try {
      write_manifest_file(cli.get("manifest-out"), cfg, seeds, agg, trace_out, node_stats_out);
    } catch (const std::exception& e) {
      std::cerr << "manifest error: " << e.what() << "\n";
      return 1;
    }
  }

  if (cli.get_bool("timing")) {
    chatter << "\nper-phase wall-clock (mean across " << agg.runs << " seed(s), ms):\n";
    util::Table timing({"phase", "mean ms", "stddev"});
    auto trow = [&timing](const std::string& name, const util::RunningStats& s) {
      timing.add_row(
          {name, util::Table::cell(s.mean(), 2), util::Table::cell(s.stddev(), 2)});
    };
    trow("contact scan", agg.scan_ms);
    trow("routing", agg.routing_ms);
    trow("  pre-exchange", agg.routing_pre_ms);
    trow("  plan", agg.routing_plan_ms);
    trow("  commit", agg.routing_commit_ms);
    trow("transfer", agg.transfer_ms);
    trow("workload", agg.workload_ms);
    trow("wall", agg.wall_ms);
    timing.print(chatter);
    if (!agg.raw.empty()) {
      chatter << "\nseed " << agg.raw.front().seed << " breakdown:\n";
      scenario::Reporter(chatter, scenario::ReportFormat::kTable)
          .timing_report(agg.raw.front().timing);
    }
  }
  // A truncated artifact is a failed run even though the simulation itself
  // finished; the manifest (if any) records the same errors.
  return artifact_failure ? 1 : 0;
}
