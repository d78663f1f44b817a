#include <gtest/gtest.h>

#include "platform/scheduler.hpp"

namespace esg::platform {
namespace {

PlacementContext ctx_with(profile::Config config, InvokerId pred, InvokerId home) {
  PlacementContext ctx;
  ctx.app = AppId(0);
  ctx.stage = 1;
  ctx.function = FunctionId(0);
  ctx.config = config;
  ctx.predecessor_invoker = pred;
  ctx.home_invoker = home;
  ctx.now_ms = 0.0;
  return ctx;
}

TEST(LocalityFirstPlace, PredecessorWins) {
  cluster::Cluster c(4);
  const auto chosen = locality_first_place(
      ctx_with({1, 2, 1}, InvokerId(3), InvokerId(1)), c);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, InvokerId(3));
}

TEST(LocalityFirstPlace, HomeWhenNoPredecessor) {
  cluster::Cluster c(4);
  const auto chosen =
      locality_first_place(ctx_with({1, 2, 1}, InvokerId{}, InvokerId(1)), c);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, InvokerId(1));
}

TEST(LocalityFirstPlace, ColdFallbackPicksEmptiest) {
  cluster::Cluster c(3);
  c.invoker(InvokerId(0)).allocate(16, 7);  // pred/home candidates busy
  c.invoker(InvokerId(1)).allocate(8, 3);
  // Invoker 2 is fully free -> most available resources.
  const auto chosen = locality_first_place(
      ctx_with({1, 2, 1}, InvokerId(0), InvokerId(0)), c);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, InvokerId(2));
}

TEST(LocalityFirstPlace, NulloptWhenNothingFits) {
  cluster::Cluster c(2);
  for (auto& inv : c.invokers()) inv.allocate(16, 7);
  EXPECT_FALSE(
      locality_first_place(ctx_with({1, 1, 1}, InvokerId{}, InvokerId(0)), c)
          .has_value());
}

TEST(LocalityFirstPlace, IgnoresAWarmContainerElsewhere) {
  cluster::Cluster c(4);
  // Predecessor and home both full; invoker 2 is warm but busier than 0.
  c.invoker(InvokerId(3)).allocate(16, 7);
  c.invoker(InvokerId(1)).allocate(16, 7);
  c.invoker(InvokerId(2)).allocate(4, 2);
  c.invoker(InvokerId(2)).add_warm(FunctionId(0), 0.0);
  const PlacementContext ctx = ctx_with({1, 2, 1}, InvokerId(3), InvokerId(1));
  // The warm step is the controller's: place() decides only where a new
  // container goes.
  EXPECT_EQ(locality_first_place(ctx, c), InvokerId(0));
  EXPECT_EQ(warm_place(ctx, c, true), InvokerId(2));
}

// warm_place is the controller's warm step, run with `local` set by the
// strategy's prefers_locality(); every row asks it both ways.

TEST(WarmPlace, LocalPrefersPredecessorThenHome) {
  cluster::Cluster c(4);
  for (const std::uint32_t id : {1u, 2u, 3u}) {
    c.invoker(InvokerId(id)).add_warm(FunctionId(0), 0.0);
  }
  const PlacementContext ctx = ctx_with({1, 2, 1}, InvokerId(3), InvokerId(2));
  EXPECT_EQ(warm_place(ctx, c, true), InvokerId(3));
  EXPECT_EQ(warm_place(ctx_with({1, 2, 1}, InvokerId{}, InvokerId(2)), c, true),
            InvokerId(2));
  // Without locality, the lowest-id warm invoker that fits.
  EXPECT_EQ(warm_place(ctx, c, false), InvokerId(1));
}

TEST(WarmPlace, WarmInvokerWhenLocalOnesAreFull) {
  cluster::Cluster c(4);
  // Predecessor and home both full.
  c.invoker(InvokerId(3)).allocate(16, 7);
  c.invoker(InvokerId(1)).allocate(16, 7);
  c.invoker(InvokerId(2)).add_warm(FunctionId(0), 0.0);
  const PlacementContext ctx = ctx_with({1, 2, 1}, InvokerId(3), InvokerId(1));
  for (const bool local : {true, false}) {
    EXPECT_EQ(warm_place(ctx, c, local), InvokerId(2)) << "local " << local;
  }
}

TEST(WarmPlace, SkipsWarmInvokerThatCannotFit) {
  cluster::Cluster c(2);
  c.invoker(InvokerId(0)).allocate(16, 7);
  c.invoker(InvokerId(1)).allocate(16, 6);  // one vGPU left, no vCPU
  c.invoker(InvokerId(1)).add_warm(FunctionId(0), 0.0);
  const PlacementContext ctx = ctx_with({2, 4, 1}, InvokerId{}, InvokerId(1));
  for (const bool local : {true, false}) {
    EXPECT_FALSE(warm_place(ctx, c, local).has_value()) << "local " << local;
  }
}

TEST(WarmPlace, SkipsTheExcludedInvoker) {
  cluster::Cluster c(3);
  c.invoker(InvokerId(1)).add_warm(FunctionId(0), 0.0);
  c.invoker(InvokerId(2)).add_warm(FunctionId(0), 0.0);
  PlacementContext ctx = ctx_with({1, 2, 1}, InvokerId(1), InvokerId(0));
  ctx.excluded_invoker = InvokerId(1);
  for (const bool local : {true, false}) {
    EXPECT_EQ(warm_place(ctx, c, local), InvokerId(2)) << "local " << local;
  }
}

TEST(WarmPlace, NulloptWithoutAWarmContainer) {
  cluster::Cluster c(2);
  c.invoker(InvokerId(1)).add_warm(FunctionId(1), 0.0);  // another function
  const PlacementContext ctx = ctx_with({1, 2, 1}, InvokerId(1), InvokerId(0));
  for (const bool local : {true, false}) {
    EXPECT_FALSE(warm_place(ctx, c, local).has_value()) << "local " << local;
  }
}

}  // namespace
}  // namespace esg::platform
