#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/config.h"
#include "util/table.h"

namespace dtnic::util {
namespace {

// --- Config -------------------------------------------------------------------

TEST(Config, ParsesKeyValueLines) {
  const auto cfg = Config::parse("a = 1\nb= hello world \n # comment\nc =true\n");
  EXPECT_EQ(cfg.get_int("a", 0), 1);
  EXPECT_EQ(cfg.get_string("b", ""), "hello world");
  EXPECT_TRUE(cfg.get_bool("c", false));
}

TEST(Config, InlineComments) {
  const auto cfg = Config::parse("speed = 2.5 # m/s\n");
  EXPECT_DOUBLE_EQ(cfg.get_double("speed", 0.0), 2.5);
}

TEST(Config, DefaultsWhenMissing) {
  const Config cfg;
  EXPECT_EQ(cfg.get_int("nope", 9), 9);
  EXPECT_EQ(cfg.get_string("nope", "x"), "x");
  EXPECT_FALSE(cfg.has("nope"));
  EXPECT_FALSE(cfg.get("nope").has_value());
}

TEST(Config, MalformedLineThrowsWithLineNumber) {
  try {
    (void)Config::parse("good = 1\nbad line\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Config, EmptyKeyThrows) {
  EXPECT_THROW((void)Config::parse(" = 5\n"), std::invalid_argument);
}

TEST(Config, BadTypedValueThrows) {
  const auto cfg = Config::parse("x = notanumber\n");
  EXPECT_THROW((void)cfg.get_int("x", 0), std::invalid_argument);
}

TEST(Config, SemicolonSeparatedInlineEntries) {
  const auto cfg = Config::parse("a = 1; b = two ; c=3 # trailing; comment = ignored\n");
  EXPECT_EQ(cfg.get_int("a", 0), 1);
  EXPECT_EQ(cfg.get_string("b", ""), "two");
  EXPECT_EQ(cfg.get_int("c", 0), 3);
  EXPECT_FALSE(cfg.has("comment"));
  EXPECT_EQ(cfg.entries().size(), 3u);
}

TEST(Config, MergeOverlays) {
  auto base = Config::parse("a = 1\nb = 2\n");
  const auto overlay = Config::parse("b = 3\nc = 4\n");
  base.merge(overlay);
  EXPECT_EQ(base.get_int("a", 0), 1);
  EXPECT_EQ(base.get_int("b", 0), 3);
  EXPECT_EQ(base.get_int("c", 0), 4);
}

TEST(Config, DuplicateKeyInOneTextThrows) {
  // One file or one --set string must not silently keep only the last value.
  try {
    (void)Config::parse("a = 1\nb = 2\n# comment\na = 3\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'a'"), std::string::npos) << what;
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
  }
  EXPECT_THROW((void)Config::parse("a=1;a=2"), std::invalid_argument);
  // Overlaying a second text stays last-wins.
  auto base = Config::parse("a = 1\n");
  base.merge(Config::parse("a = 2\n"));
  EXPECT_EQ(base.get_int("a", 0), 2);
}

TEST(Config, LoadFileMissingThrows) {
  EXPECT_THROW((void)Config::load_file("/nonexistent/path/cfg.txt"), std::runtime_error);
}

// --- Cli ------------------------------------------------------------------------

TEST(Cli, ParsesEqualsAndSpaceForms) {
  Cli cli;
  cli.add_flag("nodes", "100", "node count");
  cli.add_flag("hours", "6", "sim hours");
  const char* argv[] = {"prog", "--nodes=250", "--hours", "12"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_int("nodes"), 250);
  EXPECT_EQ(cli.get_int("hours"), 12);
  EXPECT_TRUE(cli.was_set("nodes"));
}

TEST(Cli, DefaultsApply) {
  Cli cli;
  cli.add_flag("x", "3.5", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("x"), 3.5);
  EXPECT_FALSE(cli.was_set("x"));
}

TEST(Cli, BareBooleanFlag) {
  Cli cli;
  cli.add_flag("verbose", "false", "");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, UnknownFlagThrows) {
  Cli cli;
  cli.add_flag("x", "1", "");
  const char* argv[] = {"prog", "--y=2"};
  EXPECT_THROW((void)cli.parse(2, argv), std::invalid_argument);
}

TEST(Cli, PositionalArgumentThrows) {
  Cli cli;
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW((void)cli.parse(2, argv), std::invalid_argument);
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli;
  cli.add_flag("x", "1", "the x");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_NE(cli.usage("prog").find("--x"), std::string::npos);
}

TEST(Cli, RepeatedFlagThrows) {
  // The second --set used to overwrite the first silently.
  Cli cli;
  cli.add_flag("set", "", "");
  const char* argv[] = {"prog", "--set", "a=1", "--set=b=2"};
  try {
    (void)cli.parse(4, argv);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--set"), std::string::npos) << what;
    EXPECT_NE(what.find("';'"), std::string::npos) << what;
  }
}

TEST(Cli, BareValueFlagThrows) {
  // A bare value flag used to parse as "true"; only booleans may stand bare.
  Cli cli;
  cli.add_flag("threads", "0", "");
  cli.add_flag("verbose", "false", "");
  const char* last[] = {"prog", "--threads"};
  EXPECT_THROW((void)cli.parse(2, last), std::invalid_argument);
  const char* before_flag[] = {"prog", "--threads", "--verbose"};
  EXPECT_THROW((void)cli.parse(3, before_flag), std::invalid_argument);
}

TEST(Cli, ValuesMustParseAsTheDefaultsType) {
  const auto parse_one = [](const char* default_value, const char* arg) {
    Cli cli;
    cli.add_flag("x", default_value, "");
    const char* argv[] = {"prog", arg};
    return cli.parse(2, argv);
  };
  EXPECT_THROW((void)parse_one("0", "--x=abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_one("0", "--x=2.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_one("0.5", "--x=1.5x"), std::invalid_argument);
  EXPECT_THROW((void)parse_one("false", "--x=maybe"), std::invalid_argument);
  EXPECT_TRUE(parse_one("0", "--x=-3"));
  EXPECT_TRUE(parse_one("0.5", "--x=2"));
  EXPECT_TRUE(parse_one("false", "--x=on"));
  EXPECT_TRUE(parse_one("table", "--x=anything"));
}

TEST(Cli, ParseOrExitReportsMisuseWithExitCodeTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto run = [](std::vector<const char*> argv) {
    Cli cli;
    cli.add_flag("nodes", "0", "node count");
    argv.insert(argv.begin(), "prog");
    cli.parse_or_exit(static_cast<int>(argv.size()), argv.data(), "prog");
    std::exit(7);  // parse succeeded: the program would run on
  };
  EXPECT_EXIT(run({"--nodes", "abc"}), ::testing::ExitedWithCode(2), "--nodes.*usage: prog");
  EXPECT_EXIT(run({"--bogus"}), ::testing::ExitedWithCode(2), "unknown flag");
  EXPECT_EXIT(run({"--help"}), ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(run({"--nodes", "3"}), ::testing::ExitedWithCode(7), "");
}

TEST(Cli, DuplicateFlagDeclarationThrows) {
  Cli cli;
  cli.add_flag("x", "1", "");
  EXPECT_THROW(cli.add_flag("x", "2", ""), std::invalid_argument);
}

// --- Table ------------------------------------------------------------------------

TEST(Table, AlignedOutputContainsHeadersAndRows) {
  Table t({"name", "value"});
  t.add_row({"mdr", Table::cell(0.75, 2)});
  t.add_row({"traffic", Table::cell(std::size_t{1234})});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("0.75"), std::string::npos);
  EXPECT_NE(out.find("1234"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.add_row({"x,y", "he said \"hi\""});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
  EXPECT_NE(os.str().find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(Table::cell(1.23456, 2), "1.23");
  EXPECT_EQ(Table::cell(std::size_t{42}), "42");
  EXPECT_EQ(Table::cell(static_cast<long long>(-3)), "-3");
}

}  // namespace
}  // namespace dtnic::util
