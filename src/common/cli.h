// The one command-line parser behind `memu` and the console benches.
//
// Each subcommand names its flags up front: `switches` take no value,
// `values` take the next argument. Anything else spelled "--name" is an
// error, as is a value flag in the last position or a flag given twice; all
// three throw ContractError naming the flag, so a misspelled `--thread 1`
// fails loudly instead of running with the default. Arguments without "--"
// are positional. Count values go through parse_count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"

namespace memu::cli {

// A decimal count: ASCII digits only, no sign, no whitespace, no suffix,
// and no wrap past 2^64 - 1. Anything else throws ContractError naming
// `what` (a flag like "--threads" or a positional like "N"), so "-1",
// "12abc" and "" fail loudly everywhere.
inline std::uint64_t parse_count(const std::string& text, const char* what) {
  MEMU_CHECK_MSG(!text.empty(), what << " is empty");
  std::uint64_t v = 0;
  for (const char c : text) {
    MEMU_CHECK_MSG(c >= '0' && c <= '9',
                   what << "='" << text << "' is not a decimal count");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    MEMU_CHECK_MSG(v <= (UINT64_MAX - digit) / 10,
                   what << "='" << text << "' overflows");
    v = v * 10 + digit;
  }
  return v;
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  bool has(const std::string& f) const { return flags.contains(f); }
  std::size_t num(const std::string& f, std::size_t fallback) const {
    const auto it = flags.find(f);
    if (it == flags.end()) return fallback;
    return parse_count(it->second, ("--" + f).c_str());
  }
  std::string str(const std::string& f, const std::string& fallback) const {
    const auto it = flags.find(f);
    return it == flags.end() ? fallback : it->second;
  }
  std::optional<std::string> opt(const std::string& f) const {
    const auto it = flags.find(f);
    if (it == flags.end()) return std::nullopt;
    return it->second;
  }
};

// Parses argv[1..argc); argv[0] is the program (or subcommand) name.
inline Args parse(int argc, const char* const* argv,
                  const std::vector<std::string_view>& switches,
                  const std::vector<std::string_view>& values) {
  const auto named = [](const std::vector<std::string_view>& names,
                        const std::string& key) {
    return std::find(names.begin(), names.end(), key) != names.end();
  };
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s.rfind("--", 0) != 0) {
      a.positional.push_back(s);
      continue;
    }
    const std::string key = s.substr(2);
    std::string value = "1";
    if (named(values, key)) {
      MEMU_CHECK_MSG(i + 1 < argc, s << " needs a value");
      value = argv[++i];
    } else {
      MEMU_CHECK_MSG(named(switches, key), "unknown flag " << s);
    }
    MEMU_CHECK_MSG(a.flags.emplace(key, std::move(value)).second,
                   s << " is given twice");
  }
  return a;
}

}  // namespace memu::cli
