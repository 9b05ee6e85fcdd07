// The algorithm registry against the families it names: each entry builds
// what the family's own make_system builds, keeps the consistency property
// it promises, and its value-phase predicate marks the parked writer.
#include "algo/registry.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "algo/abd/system.h"
#include "algo/cas/system.h"
#include "algo/gossip/gossip.h"
#include "algo/ldr/ldr.h"
#include "algo/strip/strip.h"
#include "common/check.h"
#include "consistency/checker.h"
#include "workload/driver.h"
#include "workload/park.h"

namespace memu::algo {
namespace {

using DirectBuild = std::function<Deployment(const Spec&)>;

template <class System>
Deployment ids_of(System sys) {
  return {std::move(sys.world), sys.servers, sys.writers, sys.readers};
}

template <class Options>
Options common_options(const Spec& s) {
  Options o;
  o.n_servers = s.n_servers;
  o.f = s.f;
  o.n_readers = s.n_readers;
  o.value_size = s.value_size;
  return o;
}

// Each family built the long way, through its own Options and make_system.
const std::map<std::string, DirectBuild>& direct_builds() {
  static const std::map<std::string, DirectBuild> table = {
      {"abd",
       [](const Spec& s) {
         auto o = common_options<abd::Options>(s);
         o.n_writers = s.n_writers;
         return ids_of(abd::make_system(o));
       }},
      {"abd-swmr",
       [](const Spec& s) {
         auto o = common_options<abd::Options>(s);
         o.single_writer = true;
         return ids_of(abd::make_system(o));
       }},
      {"abd-regular",
       [](const Spec& s) {
         auto o = common_options<abd::Options>(s);
         o.n_writers = s.n_writers;
         o.read_write_back = false;
         return ids_of(abd::make_system(o));
       }},
      {"cas",
       [](const Spec& s) {
         auto o = common_options<cas::Options>(s);
         o.n_writers = s.n_writers;
         o.k = s.k;
         return ids_of(cas::make_system(o));
       }},
      {"casgc",
       [](const Spec& s) {
         auto o = common_options<cas::Options>(s);
         o.n_writers = s.n_writers;
         o.k = s.k;
         o.delta = s.delta.value_or(1);
         return ids_of(cas::make_system(o));
       }},
      {"cas-hash",
       [](const Spec& s) {
         auto o = common_options<cas::Options>(s);
         o.n_writers = s.n_writers;
         o.k = s.k;
         o.hash_phase = true;
         return ids_of(cas::make_system(o));
       }},
      {"gossip",
       [](const Spec& s) {
         gossip::System sys =
             gossip::make_system(common_options<gossip::Options>(s));
         return Deployment{std::move(sys.world), sys.servers, {sys.writer},
                           sys.readers};
       }},
      {"ldr",
       [](const Spec& s) {
         auto o = common_options<ldr::Options>(s);
         o.n_writers = s.n_writers;
         return ids_of(ldr::make_system(o));
       }},
      {"strip",
       [](const Spec& s) {
         auto o = common_options<strip::Options>(s);
         o.n_writers = s.n_writers;
         o.delta = s.delta;
         return ids_of(strip::make_system(o));
       }},
  };
  return table;
}

std::vector<std::string> registered_names() {
  std::vector<std::string> out;
  for (const Family& fam : families()) out.emplace_back(fam.name);
  return out;
}

TEST(Registry, EveryFamilyHasADirectBuild) {
  const std::vector<std::string> names = registered_names();
  EXPECT_EQ(names.size(), direct_builds().size());
  for (const std::string& name : names)
    EXPECT_TRUE(direct_builds().contains(name)) << name;
}

TEST(Registry, FindReturnsNullForAnUnknownName) {
  EXPECT_EQ(find("paxos"), nullptr);
  EXPECT_EQ(find("abd")->name, "abd");
}

class RegistryFamily : public ::testing::TestWithParam<std::string> {
 protected:
  const Family& fam() const { return family(GetParam()); }
};

TEST_P(RegistryFamily, BuildMatchesDirectBuild) {
  const Spec spec{.n_servers = 5, .f = 1, .n_writers = 2, .n_readers = 2,
                  .value_size = 60, .delta = 2};
  Deployment got = fam().build(spec);
  Deployment want = direct_builds().at(GetParam())(spec);
  EXPECT_EQ(got.world.canonical_encoding(), want.world.canonical_encoding());
  EXPECT_EQ(got.servers, want.servers);
  EXPECT_EQ(got.writers, want.writers);
  EXPECT_EQ(got.readers, want.readers);
  // A family that does not read n_writers deploys one writer.
  EXPECT_EQ(got.writers.size(), fam().reads_field(kWriters) ? 2u : 1u);

  // Options that only show once the protocol runs (write-back reads, the
  // hash phase, garbage collection) must match too.
  workload::Options opt;
  opt.writes_per_writer = 3;
  opt.reads_per_reader = 3;
  opt.value_size = 60;
  const auto got_run = workload::run(got.world, got.writers, got.readers, opt);
  const auto want_run =
      workload::run(want.world, want.writers, want.readers, opt);
  EXPECT_EQ(got_run.steps, want_run.steps);
  EXPECT_EQ(got.world.canonical_encoding(), want.world.canonical_encoding());
}

TEST_P(RegistryFamily, PromisesWhatTheFamilyGuarantees) {
  // ALGORITHMS.md: gossip, LDR and one-phase ABD reads are regular only.
  const bool regular_only = GetParam() == "abd-regular" ||
                            GetParam() == "gossip" || GetParam() == "ldr";
  EXPECT_EQ(fam().promises,
            regular_only ? CheckKind::kRegularSwsr : CheckKind::kAtomic);
}

TEST_P(RegistryFamily, ShortRunKeepsThePromisedProperty) {
  // One writer: the SWSR-regular checker assumes it.
  Deployment sys = fam().build(
      {.n_servers = 5, .f = 1, .n_writers = 1, .n_readers = 2,
       .value_size = 60});
  workload::Options opt;
  opt.writes_per_writer = 3;
  opt.reads_per_reader = 3;
  opt.value_size = 60;
  opt.seed = 7;
  const auto res = workload::run(sys.world, sys.writers, sys.readers, opt);
  ASSERT_TRUE(res.completed);
  const CheckResult verdict =
      run_check(fam().promises, res.history, enum_value(0, 60));
  EXPECT_TRUE(verdict.ok) << check_kind_name(fam().promises) << ": "
                          << verdict.violation;
}

TEST_P(RegistryFamily, ValuePhasePredicateMarksTheParkedWriter) {
  Deployment sys = fam().build(
      {.n_servers = 5, .f = 1, .n_writers = 1, .value_size = 60});
  if (fam().in_value_phase == nullptr) {
    // No single writer phase holds the value messages: nowhere to park.
    EXPECT_THROW(workload::park_active_writes(sys, fam(), 1, 60),
                 ContractError);
    return;
  }
  const NodeId writer = sys.writers[0];
  EXPECT_FALSE(fam().in_value_phase(sys.world, writer));
  workload::park_active_writes(sys, fam(), 1, 60);
  EXPECT_TRUE(sys.world.is_frozen(writer));
  EXPECT_TRUE(fam().in_value_phase(sys.world, writer));
}

INSTANTIATE_TEST_SUITE_P(
    Registry, RegistryFamily, ::testing::ValuesIn(registered_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace memu::algo
