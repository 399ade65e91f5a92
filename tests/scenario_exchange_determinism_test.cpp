#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "msg/id_source.h"
#include "msg/message.h"
#include "obs/trace_sink.h"
#include "scenario/report.h"
#include "scenario/scenario.h"
#include "util/sim_time.h"

/// Staged-vs-serial bit-identity for the parallel exchange phase (DESIGN.md
/// "Parallel exchange phase"): pump_all_idle with any exchange_threads value
/// must produce byte-identical traces, reports, and link-event order to the
/// fully serial pump. exchange_threads == 1 runs the original serial loop,
/// so comparing 1 against {2, 4, 8, auto} proves the staged plan/commit
/// replay reproduces the serial exchange exactly.
///
/// This file is also compiled into dtnic_stress_tests: under TSan
/// (`ctest -L tsan-stress`) the multi-threaded plan stage of every run here
/// doubles as the contention check for the per-host lock sets.

namespace dtnic::scenario {

/// Test-only backdoor into the staged pump, used to force the
/// revision-mismatch re-plan path that cannot occur naturally within a tick
/// (commit never mutates buffers between the stages).
struct ScenarioTestPeer {
  static void plan(Scenario& s) { s.plan_staged(); }
  static void commit(Scenario& s) { s.commit_staged(); }
  static std::size_t staged_links(const Scenario& s) { return s.staged_pairs_.size(); }
};

namespace {

using util::SimTime;

struct RunArtifacts {
  RunResult result;
  std::string trace;
  std::string report;
};

/// One seeded, churny fig51-style run (mixed behaviors, fast movement so
/// links form and break constantly) with a full trace and a JSON report
/// captured in memory.
RunArtifacts run_exchange_scenario(std::size_t exchange_threads, Scheme scheme) {
  ScenarioConfig cfg = ScenarioConfig::scaled_defaults(40, 0.5);
  cfg.scheme = scheme;
  cfg.selfish_fraction = 0.2;
  cfg.malicious_fraction = 0.1;
  cfg.sample_interval_s = 300.0;
  cfg.max_speed_mps = 8.0;  // link churn: contacts break mid-conversation
  cfg.exchange_threads = exchange_threads;

  Scenario s(cfg);
  std::ostringstream trace_os;
  obs::TraceOptions opt;
  opt.clock = [&sim = s.simulator()] { return sim.now(); };
  opt.seed = cfg.seed;
  opt.scheme = scheme_name(scheme);
  obs::TraceSink sink(trace_os, std::move(opt));
  const obs::SinkHandle handle = s.events().add_sink(sink);

  RunArtifacts out;
  out.result = s.run();
  sink.flush();
  out.trace = trace_os.str();

  std::ostringstream report_os;
  Reporter reporter(report_os, ReportFormat::kJson);
  reporter.run_report(out.result);
  out.report = report_os.str();
  return out;
}

TEST(ScenarioExchange, ReportsAndTracesByteIdenticalAcrossExchangeThreads) {
  for (const Scheme scheme : {Scheme::kIncentive, Scheme::kChitChat}) {
    const RunArtifacts serial = run_exchange_scenario(1, scheme);
    ASSERT_GT(serial.result.created, 0u);
    ASSERT_GT(serial.trace.size(), 100u);
    for (const std::size_t threads : {2u, 4u, 8u}) {
      const RunArtifacts staged = run_exchange_scenario(threads, scheme);
      EXPECT_EQ(staged.trace, serial.trace) << "exchange_threads=" << threads;
      EXPECT_EQ(staged.report, serial.report) << "exchange_threads=" << threads;
      EXPECT_EQ(staged.result.mdr, serial.result.mdr);
      EXPECT_EQ(staged.result.traffic, serial.result.traffic);
      EXPECT_EQ(staged.result.contacts, serial.result.contacts);
      EXPECT_EQ(staged.result.tokens_paid, serial.result.tokens_paid);
      EXPECT_EQ(staged.result.avg_final_tokens, serial.result.avg_final_tokens);
      // Nothing mutates buffers between plan and commit in a normal run, so
      // the revision-validation fallback must never fire.
      EXPECT_EQ(staged.result.timing.exchange_replans, 0u);
    }
  }
}

TEST(ScenarioExchange, AutoExchangeThreadCountRunsAndStaysConsistent) {
  // exchange_threads = 0 resolves to the hardware thread count; whatever
  // that is on the host, the output contract is the same.
  const RunArtifacts serial = run_exchange_scenario(1, Scheme::kIncentive);
  const RunArtifacts any = run_exchange_scenario(0, Scheme::kIncentive);
  EXPECT_EQ(any.trace, serial.trace);
  EXPECT_EQ(any.report, serial.report);
}

TEST(ScenarioExchange, PerLinkBookkeepingDoesNotLeakUnderChurn) {
  ScenarioConfig cfg = ScenarioConfig::scaled_defaults(40, 0.5);
  cfg.scheme = Scheme::kIncentive;
  cfg.max_speed_mps = 8.0;
  cfg.exchange_threads = 4;
  Scenario s(cfg);
  const RunResult result = s.run();
  // The run must have churned through far more contacts than links that are
  // still up at the end — otherwise this probes nothing.
  const std::size_t live_links = s.transfers().links_tracked();
  ASSERT_GT(result.contacts, live_links + 50);
  // Leak probe (companion of the TransferManager links_tracked checks):
  // toggle / refused / idle-memo entries are erased on link-down, so at most
  // one entry per map can exist per live link. Before the link_toggle_
  // link-down erase, this sat at one entry per pair ever contacted.
  EXPECT_LE(s.exchange_state_tracked(), 3 * live_links);
}

TEST(ScenarioExchange, RevisionMismatchFallsBackToSerialReplan) {
  ScenarioConfig cfg = ScenarioConfig::scaled_defaults(30, 0.5);
  cfg.scheme = Scheme::kIncentive;
  cfg.exchange_threads = 4;
  Scenario s(cfg);

  // Bring links up without any workload: the contact handlers pump empty
  // buffers, so no transfer is in flight and every connected pair stages.
  s.contacts().start();
  double t = 30.0;
  s.simulator().run_until(SimTime::seconds(t));
  ScenarioTestPeer::plan(s);
  while (ScenarioTestPeer::staged_links(s) == 0 && t < 600.0) {
    t += 30.0;
    s.simulator().run_until(SimTime::seconds(t));
    ScenarioTestPeer::plan(s);
  }
  ASSERT_GT(ScenarioTestPeer::staged_links(s), 0u);

  // Tamper between plan and commit: bump every buffer revision, so every
  // staged (non-gated) link fails commit's revision validation and must be
  // re-planned through the serial pump.
  msg::MessageIdSource ids;
  const SimTime now = s.simulator().now();
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    routing::Host& h = s.host(routing::NodeId(static_cast<std::uint32_t>(i)));
    msg::Message m(ids.next(), h.id(), now, 1024, msg::Priority::kMedium, 0.9);
    h.mark_seen(m.id());
    h.buffer().add(std::move(m), /*own=*/true);
  }
  EXPECT_EQ(s.exchange_replans(), 0u);
  ScenarioTestPeer::commit(s);
  EXPECT_GT(s.exchange_replans(), 0u);
}

}  // namespace
}  // namespace dtnic::scenario
