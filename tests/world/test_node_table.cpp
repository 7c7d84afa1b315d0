#include "world/node_table.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "mobility/mobility.hpp"
#include "world/shard_plan.hpp"

namespace d2dhb::world {
namespace {

TEST(NodeTable, StartsEmpty) {
  NodeTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.id_limit(), 0u);
  EXPECT_FALSE(table.contains(NodeId{1}));
  EXPECT_TRUE(table.ids().empty());
  table.audit();
}

TEST(NodeTable, RegistersWithDefaultColumns) {
  NodeTable table;
  mobility::StaticMobility still{{3.0, 4.0}};
  table.add(NodeId{5}, &still);
  EXPECT_TRUE(table.contains(NodeId{5}));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.position_of(NodeId{5}, TimePoint{}).x, 3.0);
  EXPECT_EQ(table.cell_of(NodeId{5}), kNoCell);
  EXPECT_EQ(table.d2d_slot(NodeId{5}), kNoD2dSlot);
  EXPECT_EQ(table.shard_of(NodeId{5}), 0u);
  table.audit();
}

TEST(NodeTable, ColumnsRoundTrip) {
  NodeTable table;
  mobility::StaticMobility still{{0.0, 0.0}};
  table.add(NodeId{1}, &still);
  table.set_cell(NodeId{1}, 3);
  table.set_d2d_slot(NodeId{1}, 0);
  table.set_shard(NodeId{1}, 2);
  EXPECT_EQ(table.cell_of(NodeId{1}), 3u);
  EXPECT_EQ(table.d2d_slot(NodeId{1}), 0u);
  EXPECT_EQ(table.shard_of(NodeId{1}), 2u);
  table.audit();
}

TEST(NodeTable, ReAddKeepsColumns) {
  NodeTable table;
  mobility::StaticMobility a{{0.0, 0.0}};
  mobility::StaticMobility b{{9.0, 9.0}};
  table.add(NodeId{2}, &a);
  table.set_cell(NodeId{2}, 4);
  // Re-registering swaps the position source but keeps accrued state.
  table.add(NodeId{2}, &b);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.position_of(NodeId{2}, TimePoint{}).x, 9.0);
  EXPECT_EQ(table.cell_of(NodeId{2}), 4u);
  table.audit();
}

TEST(NodeTable, IdsAscendRegardlessOfInsertionOrder) {
  NodeTable table;
  mobility::StaticMobility still{{0.0, 0.0}};
  table.add(NodeId{7}, &still);
  table.add(NodeId{2}, &still);
  table.add(NodeId{4}, &still);
  const auto ids = table.ids();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], NodeId{2});
  EXPECT_EQ(ids[1], NodeId{4});
  EXPECT_EQ(ids[2], NodeId{7});
}

TEST(NodeTable, RejectsInvalidAccess) {
  NodeTable table;
  mobility::StaticMobility still{{0.0, 0.0}};
  EXPECT_THROW(table.add(NodeId{}, &still), std::invalid_argument);
  EXPECT_THROW(table.add(NodeId{1}, nullptr), std::invalid_argument);
  table.add(NodeId{1}, &still);
  EXPECT_THROW(table.cell_of(NodeId{9}), std::out_of_range);
  EXPECT_THROW((void)table.mobility_of(NodeId{9}), std::out_of_range);
}

TEST(NodeTable, AuditRejectsDuplicateD2dSlots) {
  NodeTable table;
  mobility::StaticMobility still{{0.0, 0.0}};
  table.add(NodeId{1}, &still);
  table.add(NodeId{2}, &still);
  table.set_d2d_slot(NodeId{1}, 4);
  table.set_d2d_slot(NodeId{2}, 4);
  EXPECT_THROW(table.audit(), std::logic_error);
  table.set_d2d_slot(NodeId{2}, 5);
  table.audit();
}

TEST(ShardPlan, StripsPartitionTheAreaAndClamp) {
  const ShardPlan plan{4, 0.0, 100.0};
  EXPECT_EQ(plan.shard_for({0.0, 50.0}), 0u);
  EXPECT_EQ(plan.shard_for({24.9, 0.0}), 0u);
  EXPECT_EQ(plan.shard_for({25.0, 0.0}), 1u);
  EXPECT_EQ(plan.shard_for({99.9, 0.0}), 3u);
  // Out-of-area positions clamp to the border strips (mobile phones
  // may drift past the nominal area).
  EXPECT_EQ(plan.shard_for({-5.0, 0.0}), 0u);
  EXPECT_EQ(plan.shard_for({140.0, 0.0}), 3u);
}

TEST(ShardPlan, DegenerateConfigsMapEverythingToShardZero) {
  EXPECT_EQ((ShardPlan{1, 0.0, 100.0}.shard_for({80.0, 0.0})), 0u);
  EXPECT_EQ((ShardPlan{4, 0.0, 0.0}.shard_for({80.0, 0.0})), 0u);
  EXPECT_EQ((ShardPlan{}.shard_for({80.0, 0.0})), 0u);
}

}  // namespace
}  // namespace d2dhb::world
