// NodeSet and SmallVec: the flat containers process state and the World
// keep. Both have an inline part and a heap part, and both must behave the
// same on either side of the boundary.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/nodeset.h"
#include "common/small_vec.h"

namespace memu {
namespace {

std::vector<std::uint32_t> members(const NodeSet& s) {
  std::vector<std::uint32_t> out;
  for (const NodeId id : s) out.push_back(id.value);
  return out;
}

TEST(NodeSet, IteratesAscendingAcrossInlineAndSpilledWords) {
  NodeSet s;
  EXPECT_TRUE(members(s).empty());
  for (const std::uint32_t id : {200u, 3u, 70u, 63u, 64u, 0u})
    EXPECT_TRUE(s.insert(NodeId{id}));
  EXPECT_FALSE(s.insert(NodeId{70}));
  EXPECT_EQ(s.size(), 6u);
  EXPECT_EQ(members(s), (std::vector<std::uint32_t>{0, 3, 63, 64, 70, 200}));
  EXPECT_TRUE(s.contains(NodeId{64}));
  EXPECT_FALSE(s.contains(NodeId{65}));
  EXPECT_FALSE(s.contains(NodeId{100000}));

  const NodeSet copy = s;
  EXPECT_EQ(copy, s);
  EXPECT_TRUE(s.erase(NodeId{200}));
  EXPECT_FALSE(s.erase(NodeId{200}));
  EXPECT_FALSE(copy == s);
  EXPECT_EQ(members(s), (std::vector<std::uint32_t>{0, 3, 63, 64, 70}));

  // A cleared set equals a fresh one, spilled capacity or not.
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s, NodeSet{});
  EXPECT_TRUE(members(s).empty());
}

TEST(SmallVec, KeepsOrderAndOwnershipAcrossTheSpill) {
  // Shared pointers count live copies, so a leaked or doubly destroyed
  // element shows up in use_count().
  const auto token = std::make_shared<int>(7);
  SmallVec<std::pair<int, std::shared_ptr<int>>, 2> v;
  for (int i : {4, 0, 2, 3, 1}) {
    auto at = v.begin();
    while (at != v.end() && at->first < i) ++at;
    v.insert(at, {i, token});
  }
  ASSERT_EQ(v.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(v[i].first, static_cast<int>(i));
  EXPECT_EQ(token.use_count(), 6);

  auto copy = v;
  EXPECT_EQ(token.use_count(), 11);
  v.erase(v.begin() + 1, v.begin() + 3);  // drops 1 and 2
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].first, 0);
  EXPECT_EQ(v[1].first, 3);
  EXPECT_EQ(v[2].first, 4);
  EXPECT_EQ(token.use_count(), 9);

  auto moved = std::move(copy);
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(moved.size(), 5u);
  moved = v;  // copy-assign over a spilled vector
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_EQ(token.use_count(), 7);

  SmallVec<std::pair<int, std::shared_ptr<int>>, 2> inline_only;
  inline_only.push_back({9, token});
  moved = std::move(inline_only);  // move-assign from inline storage
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].first, 9);
  EXPECT_EQ(token.use_count(), 5);
  v.clear();
  moved.clear();
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace memu
