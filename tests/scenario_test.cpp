#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>

#include "scenario/experiment.h"
#include "scenario/scenario.h"

namespace dtnic::scenario {
namespace {

/// Compact configuration: ~40 nodes for 1.5 simulated hours runs in well
/// under a second, yet produces hundreds of contacts and transfers.
ScenarioConfig small(Scheme scheme, std::uint64_t seed = 1) {
  ScenarioConfig cfg = ScenarioConfig::scaled_defaults(40, 1.5);
  cfg.scheme = scheme;
  cfg.seed = seed;
  cfg.messages_per_node_per_hour = 0.6;
  return cfg;
}

TEST(ScenarioConfig, PaperDefaultsMatchTable51) {
  const auto cfg = ScenarioConfig::paper_defaults();
  EXPECT_EQ(cfg.num_nodes, 500u);
  EXPECT_EQ(cfg.keyword_pool_size, 200u);
  EXPECT_EQ(cfg.interests_per_node, 20u);
  EXPECT_DOUBLE_EQ(cfg.radio.bitrate_bps, 250000.0);
  EXPECT_DOUBLE_EQ(cfg.radio.range_m, 100.0);
  EXPECT_EQ(cfg.buffer_capacity_bytes, 250ull * 1024 * 1024);
  EXPECT_EQ(cfg.message_size_bytes, 1024ull * 1024);
  EXPECT_NEAR(cfg.area_side_m * cfg.area_side_m, 5.0e6, 0.01e6);  // 5 km²
  EXPECT_DOUBLE_EQ(cfg.sim_hours, 24.0);
  EXPECT_DOUBLE_EQ(cfg.incentive.relay_threshold, 0.8);
  EXPECT_DOUBLE_EQ(cfg.incentive.initial_tokens, 200.0);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ScenarioConfig, ScaledDefaultsPreserveDensity) {
  const auto paper = ScenarioConfig::paper_defaults();
  const auto scaled = ScenarioConfig::scaled_defaults(125, 6.0);
  const double paper_density =
      static_cast<double>(paper.num_nodes) / (paper.area_side_m * paper.area_side_m);
  const double scaled_density =
      static_cast<double>(scaled.num_nodes) / (scaled.area_side_m * scaled.area_side_m);
  EXPECT_NEAR(scaled_density / paper_density, 1.0, 1e-6);
}

TEST(ScenarioConfig, ValidationCatchesNonsense) {
  auto cfg = ScenarioConfig::paper_defaults();
  cfg.selfish_fraction = 1.2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ScenarioConfig::paper_defaults();
  cfg.selfish_fraction = 0.7;
  cfg.malicious_fraction = 0.7;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ScenarioConfig::paper_defaults();
  cfg.interests_per_node = 500;  // > pool
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ScenarioConfig::paper_defaults();
  cfg.message_size_bytes = cfg.buffer_capacity_bytes + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = ScenarioConfig::paper_defaults();
  cfg.drm.alpha = 0.4;  // paper requires alpha > 0.5
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // The fractions and intervals the run reads; each error names its field.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct BadValue {
    double ScenarioConfig::*field;
    const char* name;
    double value;
  };
  const BadValue bad[] = {
      {&ScenarioConfig::officer_fraction, "officer_fraction", -1.0},
      {&ScenarioConfig::officer_fraction, "officer_fraction", nan},
      {&ScenarioConfig::selfish_participation, "selfish_participation", 7.0},
      {&ScenarioConfig::enrich_probability, "enrich_probability", 1.5},
      {&ScenarioConfig::battery_threshold, "battery_threshold", nan},
      {&ScenarioConfig::battery_participation, "battery_participation", -0.1},
      {&ScenarioConfig::sample_interval_s, "sample_interval_s", 0.0},
      {&ScenarioConfig::sample_interval_s, "sample_interval_s", inf},
      {&ScenarioConfig::ttl_sweep_interval_s, "ttl_sweep_interval_s", -60.0},
      {&ScenarioConfig::ttl_sweep_interval_s, "ttl_sweep_interval_s", nan},
  };
  for (const BadValue& b : bad) {
    cfg = ScenarioConfig::paper_defaults();
    cfg.*b.field = b.value;
    try {
      cfg.validate();
      ADD_FAILURE() << b.name << " = " << b.value << " passed validation";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(b.name), std::string::npos) << e.what();
    }
  }
  // The closed bounds of each fraction are valid.
  for (const double edge : {0.0, 1.0}) {
    cfg = ScenarioConfig::paper_defaults();
    cfg.officer_fraction = edge;
    cfg.selfish_participation = edge;
    cfg.enrich_probability = edge;
    cfg.battery_threshold = edge;
    cfg.battery_participation = edge;
    EXPECT_NO_THROW(cfg.validate());
  }
}

TEST(SchemeNames, AllNamed) {
  EXPECT_STREQ(scheme_name(Scheme::kIncentive), "incentive");
  EXPECT_STREQ(scheme_name(Scheme::kChitChat), "chitchat");
  EXPECT_STREQ(scheme_name(Scheme::kEpidemic), "epidemic");
  EXPECT_STREQ(scheme_name(Scheme::kDirectDelivery), "direct");
  EXPECT_STREQ(scheme_name(Scheme::kSprayAndWait), "spray-and-wait");
  EXPECT_STREQ(scheme_name(Scheme::kFirstContact), "first-contact");
}

TEST(Scenario, RunsAndDeliversMessages) {
  Scenario s(small(Scheme::kIncentive));
  const RunResult r = s.run();
  EXPECT_GT(r.created, 10u);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_GT(r.mdr, 0.0);
  EXPECT_LE(r.mdr, 1.0);
  EXPECT_GT(r.traffic, r.delivered);
  EXPECT_GT(r.contacts, 0u);
}

TEST(Scenario, DeterministicForSameSeed) {
  const RunResult a = ExperimentRunner::run_once(small(Scheme::kIncentive, 42));
  const RunResult b = ExperimentRunner::run_once(small(Scheme::kIncentive, 42));
  EXPECT_EQ(a.created, b.created);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.traffic, b.traffic);
  EXPECT_EQ(a.contacts, b.contacts);
  EXPECT_DOUBLE_EQ(a.tokens_paid, b.tokens_paid);
  EXPECT_DOUBLE_EQ(a.avg_final_tokens, b.avg_final_tokens);
}

TEST(Scenario, DifferentSeedsDiffer) {
  const RunResult a = ExperimentRunner::run_once(small(Scheme::kIncentive, 1));
  const RunResult b = ExperimentRunner::run_once(small(Scheme::kIncentive, 2));
  // Virtually impossible to coincide exactly on all of these.
  EXPECT_TRUE(a.traffic != b.traffic || a.contacts != b.contacts ||
              a.created != b.created);
}

TEST(Scenario, TokenConservationInvariant) {
  auto cfg = small(Scheme::kIncentive, 3);
  cfg.selfish_fraction = 0.2;
  cfg.malicious_fraction = 0.1;
  Scenario s(cfg);
  const RunResult r = s.run();
  const double expected =
      static_cast<double>(cfg.num_nodes) * cfg.incentive.initial_tokens;
  EXPECT_NEAR(r.total_tokens, expected, 1e-6);
  EXPECT_NEAR(s.total_tokens(), expected, 1e-6);
  EXPECT_GT(r.tokens_paid, 0.0);
}

TEST(Scenario, NonIncentiveSchemesPayNothing) {
  const RunResult r = ExperimentRunner::run_once(small(Scheme::kChitChat));
  EXPECT_DOUBLE_EQ(r.tokens_paid, 0.0);
  EXPECT_EQ(r.payments, 0u);
  EXPECT_EQ(r.refused_no_tokens, 0u);
}

TEST(Scenario, EpidemicDominatesDirectDelivery) {
  const RunResult epi = ExperimentRunner::run_once(small(Scheme::kEpidemic, 5));
  const RunResult direct = ExperimentRunner::run_once(small(Scheme::kDirectDelivery, 5));
  EXPECT_GE(epi.mdr, direct.mdr);
  EXPECT_GT(epi.traffic, direct.traffic);
}

TEST(Scenario, SelfishNodesSuppressContacts) {
  auto honest = small(Scheme::kIncentive, 7);
  auto selfish = honest;
  selfish.selfish_fraction = 0.5;
  const RunResult r_honest = ExperimentRunner::run_once(honest);
  const RunResult r_selfish = ExperimentRunner::run_once(selfish);
  EXPECT_EQ(r_honest.contacts_suppressed, 0u);
  EXPECT_GT(r_selfish.contacts_suppressed, 0u);
  EXPECT_LT(r_selfish.contacts, r_honest.contacts);
  EXPECT_LE(r_selfish.mdr, r_honest.mdr);
}

TEST(Scenario, MaliciousNodesGetRecognized) {
  auto cfg = small(Scheme::kIncentive, 11);
  cfg.malicious_fraction = 0.2;
  Scenario s(cfg);
  const RunResult r = s.run();
  ASSERT_GE(r.malicious_rating.size(), 2u);
  // Ratings start at the default and fall as the DRM detects tag pollution.
  EXPECT_DOUBLE_EQ(r.malicious_rating.first_value(), cfg.drm.default_rating);
  EXPECT_LT(r.malicious_rating.last_value(), cfg.drm.default_rating - 1.0);
}

TEST(Scenario, SampledSeriesMonotoneTime) {
  auto cfg = small(Scheme::kIncentive, 13);
  cfg.malicious_fraction = 0.1;
  Scenario s(cfg);
  const RunResult r = s.run();
  const auto& samples = r.malicious_rating.samples();
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].time, samples[i - 1].time);
  }
  EXPECT_FALSE(r.mean_tokens.empty());
}

TEST(Scenario, PriorityWorkloadSegmentsDeliveries) {
  auto cfg = small(Scheme::kIncentive, 17);
  cfg.priority_workload = true;
  cfg.messages_per_node_per_hour = 1.0;
  const RunResult r = ExperimentRunner::run_once(cfg);
  EXPECT_GT(r.created_high, 0u);
  EXPECT_GT(r.created_medium, 0u);
  EXPECT_GT(r.created_low, 0u);
  // Roughly 50/30/20 split of sources.
  EXPECT_GT(r.created_high, r.created_low);
}

TEST(Scenario, TtlExpiryDropsMessages) {
  auto cfg = small(Scheme::kEpidemic, 19);
  cfg.ttl_hours = 0.05;  // 3 minutes: most copies expire
  cfg.ttl_sweep_interval_s = 60.0;
  const RunResult r = ExperimentRunner::run_once(cfg);
  EXPECT_GT(r.dropped_ttl, 0u);
}

TEST(Scenario, HostAccessorsAndBehaviors) {
  auto cfg = small(Scheme::kIncentive, 23);
  cfg.selfish_fraction = 0.25;
  Scenario s(cfg);
  EXPECT_EQ(s.node_count(), cfg.num_nodes);
  std::size_t selfish = 0;
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    const auto id = util::NodeId(static_cast<util::NodeId::underlying>(i));
    EXPECT_EQ(s.host(id).id(), id);
    if (s.behavior_of(id).selfish()) ++selfish;
  }
  EXPECT_EQ(selfish, 10u);  // 25% of 40
  EXPECT_THROW((void)s.host(util::NodeId(999)), std::invalid_argument);
}

TEST(Scenario, EnergyAccountingPositive) {
  const RunResult r = ExperimentRunner::run_once(small(Scheme::kIncentive, 29));
  EXPECT_GT(r.total_energy_j, 0.0);
}

TEST(Scenario, PerLinkBookkeepingDoesNotLeakUnderChurn) {
  ScenarioConfig cfg = ScenarioConfig::scaled_defaults(40, 0.5);
  cfg.scheme = Scheme::kIncentive;
  cfg.max_speed_mps = 8.0;  // link churn: contacts break mid-conversation
  Scenario s(cfg);
  const RunResult result = s.run();
  // The run must have churned through far more contacts than links that are
  // still up at the end — otherwise this probes nothing.
  const std::size_t live_links = s.transfers().links_tracked();
  ASSERT_GT(result.contacts, live_links + 50);
  // Leak probe (companion of the TransferManager links_tracked checks): the
  // pump keeps one record per link and link-down erases it, so at most one
  // can exist per live link.
  EXPECT_LE(s.exchange_state_tracked(), live_links);
}

// --- ExperimentRunner -----------------------------------------------------------------

TEST(ExperimentRunner, AggregatesAcrossSeeds) {
  ExperimentRunner runner(3, 100);
  const AggregateResult agg = runner.run(small(Scheme::kIncentive));
  EXPECT_EQ(agg.runs, 3u);
  EXPECT_EQ(agg.raw.size(), 3u);
  EXPECT_EQ(agg.mdr.count(), 3u);
  EXPECT_GT(agg.mdr.mean(), 0.0);
  EXPECT_EQ(agg.raw[0].seed, 100u);
  EXPECT_EQ(agg.raw[2].seed, 102u);
  EXPECT_EQ(agg.scheme, "incentive");
}

TEST(ExperimentRunner, MeanSeriesCoversUnionOfSampleTimes) {
  ExperimentRunner runner(2, 1);
  auto cfg = small(Scheme::kIncentive);
  cfg.malicious_fraction = 0.1;
  const AggregateResult agg = runner.run(cfg);
  const auto series = ExperimentRunner::mean_series(agg.raw);
  ASSERT_FALSE(series.empty());
  // The grid is the sorted union of every run's sample times (deduplicated),
  // so no run's samples can outnumber it and every run's times appear.
  std::set<double> union_times;
  for (const RunResult& r : agg.raw) {
    for (const auto& s : r.malicious_rating.samples()) union_times.insert(s.time.sec());
  }
  EXPECT_EQ(series.size(), union_times.size());
  double prev = -1.0;
  for (const auto& [t, v] : series) {
    EXPECT_TRUE(union_times.count(t));
    EXPECT_GT(t, prev);  // strictly increasing grid
    prev = t;
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 5.0);
  }
}

TEST(ExperimentRunner, ZeroSeedsRejected) {
  EXPECT_THROW(ExperimentRunner(0), std::invalid_argument);
}

}  // namespace
}  // namespace dtnic::scenario
