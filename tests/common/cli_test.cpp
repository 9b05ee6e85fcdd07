#include "common/cli.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace memu::cli {
namespace {

Args parse_line(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "tool");
  return parse(static_cast<int>(argv.size()), argv.data(), {"measure"},
               {"threads", "out"});
}

TEST(CliParse, SplitsSwitchesValuesAndPositionals) {
  const Args a =
      parse_line({"run", "--threads", "2", "--measure", "x.json", "--out", ""});
  EXPECT_EQ(a.positional, (std::vector<std::string>{"run", "x.json"}));
  EXPECT_EQ(a.num("threads", 9), 2u);
  EXPECT_TRUE(a.has("measure"));
  EXPECT_EQ(a.opt("out"), "");
  EXPECT_EQ(a.str("missing", "fallback"), "fallback");
}

TEST(CliParse, RejectsMisuseNamingTheFlag) {
  // Each of these used to run silently: a misspelled flag was ignored, a
  // trailing value flag became "", and a repeat kept one of the values.
  const std::vector<std::pair<std::vector<const char*>, std::string>> bad = {
      {{"--thread", "1"}, "unknown flag --thread"},
      {{"--threads"}, "--threads needs a value"},
      {{"--threads", "1", "--threads", "2"}, "--threads is given twice"},
      {{"--measure=1"}, "unknown flag --measure=1"},
  };
  for (const auto& [argv, message] : bad) {
    try {
      parse_line(argv);
      ADD_FAILURE() << "accepted " << message;
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
}

TEST(ParseCount, AcceptsPlainDecimals) {
  EXPECT_EQ(parse_count("0", "--k"), 0u);
  EXPECT_EQ(parse_count("12", "--max-states"), 12u);
  EXPECT_EQ(parse_count("18446744073709551615", "--seed"), UINT64_MAX);
}

TEST(ParseCount, RejectsMalformedCountsNamingTheFlag) {
  // Each of these used to slip through std::stoull: "-1" wrapped to
  // 2^64 - 1, "12abc" read as 12, and "x" failed as a bare "stoull".
  for (const char* text :
       {"-1", "12abc", "x", "", "18446744073709551616", " 7", "+3"}) {
    try {
      parse_count(text, "--threads");
      ADD_FAILURE() << "accepted '" << text << "'";
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace memu::cli
