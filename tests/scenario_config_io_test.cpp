#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "scenario/config_io.h"
#include "scenario/experiment.h"
#include "scenario/report.h"
#include "scenario/scenario.h"

namespace dtnic::scenario {
namespace {

TEST(ConfigIo, AppliesOverrides) {
  const auto kv = util::Config::parse(
      "nodes = 42\n"
      "sim_hours = 2.5\n"
      "scheme = epidemic\n"
      "selfish_fraction = 0.3\n"
      "incentive.initial_tokens = 37.5\n"
      "drm.enabled = false\n"
      "radio.range_m = 80\n");
  const ScenarioConfig cfg = apply_config(ScenarioConfig::paper_defaults(), kv);
  EXPECT_EQ(cfg.num_nodes, 42u);
  EXPECT_DOUBLE_EQ(cfg.sim_hours, 2.5);
  EXPECT_EQ(cfg.scheme, Scheme::kEpidemic);
  EXPECT_DOUBLE_EQ(cfg.selfish_fraction, 0.3);
  EXPECT_DOUBLE_EQ(cfg.incentive.initial_tokens, 37.5);
  EXPECT_FALSE(cfg.drm.enabled);
  EXPECT_DOUBLE_EQ(cfg.radio.range_m, 80.0);
  // Untouched fields keep Table 5.1 values.
  EXPECT_EQ(cfg.keyword_pool_size, 200u);
}

TEST(ConfigIo, UnknownKeyThrows) {
  const auto kv = util::Config::parse("nodez = 42\n");
  EXPECT_THROW((void)apply_config(ScenarioConfig::paper_defaults(), kv),
               std::invalid_argument);
}

TEST(ConfigIo, InvalidValueThrows) {
  EXPECT_THROW((void)apply_config(ScenarioConfig::paper_defaults(),
                                  util::Config::parse("nodes = many\n")),
               std::invalid_argument);
  EXPECT_THROW((void)apply_config(ScenarioConfig::paper_defaults(),
                                  util::Config::parse("scheme = teleport\n")),
               std::invalid_argument);
  // Values that parse but violate invariants fail validation.
  EXPECT_THROW((void)apply_config(ScenarioConfig::paper_defaults(),
                                  util::Config::parse("selfish_fraction = 2.0\n")),
               std::invalid_argument);
}

TEST(ConfigIo, UnknownKeySuggestsClosestMatch) {
  // A near-miss key gets a "did you mean" hint with the real key name...
  try {
    (void)apply_config(ScenarioConfig::paper_defaults(), util::Config::parse("nodez = 42\n"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nodez"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean 'nodes'"), std::string::npos) << what;
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
  }
  // ...while a key nothing like any real one gets no misleading hint.
  try {
    (void)apply_config(ScenarioConfig::paper_defaults(),
                       util::Config::parse("zzqqxxyy = 1\n"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("did you mean"), std::string::npos) << what;
  }
}

TEST(ConfigIo, BadValueReportsKeyAndLine) {
  const auto kv = util::Config::parse(
      "nodes = 42\n"
      "# comment lines still count toward line numbers\n"
      "sim_hours = 2,5\n");
  try {
    (void)apply_config(ScenarioConfig::paper_defaults(), kv);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sim_hours"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("2,5"), std::string::npos) << what;
  }
}

TEST(ConfigIo, ProgrammaticSetHasNoLineNumber) {
  util::Config kv;
  kv.set("nodes", "many");
  try {
    (void)apply_config(ScenarioConfig::paper_defaults(), kv);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nodes"), std::string::npos) << what;
    EXPECT_EQ(what.find("line"), std::string::npos) << what;  // not from a file
  }
}

TEST(ConfigIo, ShardThreadsIsAnUnknownKey) {
  // The contact scan and the exchange each have a single serial path; the
  // keys of their removed thread knobs (assembled here so the removed names
  // appear nowhere in the tree) are rejected like any unknown key, from a
  // config file and from --set alike.
  for (const std::string key : {std::string("shard") + "_threads",
                                 std::string("exchange") + "_threads"}) {
    const std::pair<std::string, const char*> cases[] = {
        {"nodes = 42\n" + key + " = 4\n", "line 2"},
        {"nodes = 42; " + key + " = 1", "line 1"},
    };
    for (const auto& [text, line] : cases) {
      try {
        (void)apply_config(ScenarioConfig::paper_defaults(), util::Config::parse(text));
        FAIL() << "expected std::invalid_argument for " << text;
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown scenario config key: '" + key + "'"), std::string::npos)
            << what;
        EXPECT_NE(what.find(line), std::string::npos) << what;
      }
    }
    EXPECT_EQ(to_config_text(ScenarioConfig::paper_defaults()).find(key), std::string::npos);
  }
}

TEST(ConfigIo, RoundTripsExactly) {
  ScenarioConfig cfg = ScenarioConfig::scaled_defaults(77, 3.5);
  cfg.scheme = Scheme::kSprayAndWait;
  cfg.selfish_fraction = 0.25;
  cfg.incentive.max_incentive = 7.5;
  cfg.drm.alpha = 0.7;
  cfg.priority_workload = true;
  cfg.seed = 123;
  const std::string text = to_config_text(cfg);
  const ScenarioConfig back =
      apply_config(ScenarioConfig::paper_defaults(), util::Config::parse(text));
  EXPECT_EQ(to_config_text(back), text);
  EXPECT_EQ(back.scheme, cfg.scheme);
  EXPECT_EQ(back.num_nodes, cfg.num_nodes);
  EXPECT_DOUBLE_EQ(back.drm.alpha, 0.7);
}

TEST(ConfigIo, ParseSchemeCoversAll) {
  EXPECT_EQ(parse_scheme("incentive"), Scheme::kIncentive);
  EXPECT_EQ(parse_scheme("chitchat"), Scheme::kChitChat);
  EXPECT_EQ(parse_scheme("epidemic"), Scheme::kEpidemic);
  EXPECT_EQ(parse_scheme("direct"), Scheme::kDirectDelivery);
  EXPECT_EQ(parse_scheme("spray-and-wait"), Scheme::kSprayAndWait);
  EXPECT_EQ(parse_scheme("first-contact"), Scheme::kFirstContact);
  EXPECT_EQ(parse_scheme("prophet"), Scheme::kProphet);
  EXPECT_EQ(parse_scheme("nectar"), Scheme::kNectar);
  EXPECT_EQ(parse_scheme("two-hop"), Scheme::kTwoHop);
  EXPECT_THROW((void)parse_scheme("bogus"), std::invalid_argument);
}

// --- New schemes run end-to-end -----------------------------------------------

class NewSchemeSmoke : public ::testing::TestWithParam<Scheme> {};

TEST_P(NewSchemeSmoke, RunsAndDelivers) {
  ScenarioConfig cfg = ScenarioConfig::scaled_defaults(40, 2.0);
  cfg.scheme = GetParam();
  cfg.seed = 5;
  cfg.messages_per_node_per_hour = 1.0;
  const RunResult r = ExperimentRunner::run_once(cfg);
  EXPECT_GT(r.created, 0u);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_EQ(r.scheme, scheme_name(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Schemes, NewSchemeSmoke,
                         ::testing::Values(Scheme::kProphet, Scheme::kNectar,
                                           Scheme::kTwoHop));

// --- Reports -----------------------------------------------------------------

TEST(Report, RunReportContainsKeyMetrics) {
  ScenarioConfig cfg = ScenarioConfig::scaled_defaults(30, 1.0);
  cfg.seed = 2;
  const RunResult r = ExperimentRunner::run_once(cfg);
  std::ostringstream os;
  write_run_report(os, r);
  const std::string out = os.str();
  EXPECT_NE(out.find("MDR"), std::string::npos);
  EXPECT_NE(out.find("incentive"), std::string::npos);
  EXPECT_NE(out.find("tokens paid"), std::string::npos);
}

TEST(Report, ComparisonTableOneRowPerResult) {
  ScenarioConfig cfg = ScenarioConfig::scaled_defaults(25, 1.0);
  std::vector<RunResult> results;
  for (const Scheme s : {Scheme::kChitChat, Scheme::kEpidemic}) {
    cfg.scheme = s;
    results.push_back(ExperimentRunner::run_once(cfg));
  }
  EXPECT_EQ(comparison_table(results).rows(), 2u);
}

TEST(Report, SeriesCsv) {
  stats::TimeSeries series;
  series.add(util::SimTime::seconds(0), 3.5);
  series.add(util::SimTime::seconds(60), 2.25);
  std::ostringstream os;
  write_series_csv(os, series, "rating");
  EXPECT_EQ(os.str(), "time_s,rating\n0,3.5\n60,2.25\n");
}

TEST(Report, ContactSummaryFromTrace) {
  net::ContactTrace trace;
  using util::NodeId;
  using util::SimTime;
  trace.record_up(NodeId(0), NodeId(1), SimTime::seconds(0));
  trace.record_down(NodeId(0), NodeId(1), SimTime::seconds(10));
  trace.record_up(NodeId(0), NodeId(1), SimTime::seconds(110));  // gap 100 s
  trace.record_down(NodeId(0), NodeId(1), SimTime::seconds(130));
  trace.record_up(NodeId(2), NodeId(3), SimTime::seconds(50));
  trace.record_down(NodeId(2), NodeId(3), SimTime::seconds(80));
  trace.finalize(SimTime::seconds(200));
  const ContactSummary s = summarize_contacts(trace);
  EXPECT_EQ(s.contacts, 3u);
  EXPECT_DOUBLE_EQ(s.total_contact_time_s, 60.0);
  EXPECT_DOUBLE_EQ(s.mean_duration_s, 20.0);
  EXPECT_DOUBLE_EQ(s.median_duration_s, 20.0);
  EXPECT_DOUBLE_EQ(s.mean_intercontact_s, 100.0);
  std::ostringstream os;
  write_contact_summary(os, s);
  EXPECT_NE(os.str().find("inter-contact"), std::string::npos);
}

TEST(Report, EmptyTraceSummary) {
  net::ContactTrace trace;
  trace.finalize(util::SimTime::seconds(10));
  const ContactSummary s = summarize_contacts(trace);
  EXPECT_EQ(s.contacts, 0u);
  EXPECT_DOUBLE_EQ(s.mean_intercontact_s, 0.0);
}

}  // namespace
}  // namespace dtnic::scenario
