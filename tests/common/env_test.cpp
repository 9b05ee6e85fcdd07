#include "common/env.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace memu::env {
namespace {

TEST(ParseCount, AcceptsPlainDecimals) {
  EXPECT_EQ(parse_count("0", "--k"), 0u);
  EXPECT_EQ(parse_count("12", "--block"), 12u);
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

TEST(EnvU64, SharesTheCountGrammarAndRequiresPositive) {
  ::setenv(kFuzzWalks, "12", 1);
  EXPECT_EQ(u64(kFuzzWalks), 12u);
  for (const char* text : {"12abc", "-1", "0"}) {
    ::setenv(kFuzzWalks, text, 1);
    EXPECT_THROW(u64(kFuzzWalks), ContractError) << text;
  }
  ::setenv(kFuzzWalks, "", 1);  // empty counts as unset
  EXPECT_EQ(u64(kFuzzWalks), std::nullopt);
  ::unsetenv(kFuzzWalks);
  EXPECT_EQ(u64_or(kFuzzWalks, 7), 7u);
}

}  // namespace
}  // namespace memu::env
