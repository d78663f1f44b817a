#include "prewarm/prewarm_manager.hpp"

#include <gtest/gtest.h>

#include "profile/function_spec.hpp"

namespace esg::prewarm {
namespace {

using profile::Function;

struct World {
  sim::Simulator sim;
  cluster::Cluster cluster{2};
  profile::ProfileSet profiles = profile::ProfileSet::builtin();
};

const FunctionId kFn = profile::id_of(Function::kSuperResolution);  // cold 3503 ms

TEST(PrewarmManager, NoPredictionAfterSingleInvocation) {
  World w;
  PrewarmManager mgr(w.sim, w.cluster, w.profiles);
  mgr.on_invocation(AppId(0), kFn, InvokerId(0), 0.0);
  w.sim.run();
  EXPECT_EQ(mgr.prewarms_issued(), 0u);
  EXPECT_FALSE(w.cluster.invoker(InvokerId(0)).has_warm(kFn, 10'000.0));
}

TEST(PrewarmManager, WarmsContainerBeforePredictedInvocation) {
  World w;
  PrewarmManager mgr(w.sim, w.cluster, w.profiles);
  // Two invocations 5000 ms apart -> EWMA interval 5000 ms; next predicted
  // at 10000 ms; warming starts at 10000 - 3503 = 6497 ms.
  mgr.on_invocation(AppId(0), kFn, InvokerId(0), 0.0);
  w.sim.run_until(5'000.0);
  mgr.on_invocation(AppId(0), kFn, InvokerId(0), 5'000.0);
  w.sim.run();
  EXPECT_EQ(mgr.prewarms_issued(), 1u);
  EXPECT_TRUE(w.cluster.invoker(InvokerId(0)).has_warm(kFn, 10'001.0));
  EXPECT_GE(w.sim.now(), 6'497.0 + 3'503.0 - 1e-9);
}

TEST(PrewarmManager, SkipsWhenContainerAlreadyWarm) {
  World w;
  PrewarmManager mgr(w.sim, w.cluster, w.profiles);
  w.cluster.invoker(InvokerId(0)).add_warm(kFn, 0.0);  // already warm
  mgr.on_invocation(AppId(0), kFn, InvokerId(0), 0.0);
  w.sim.run_until(5'000.0);
  mgr.on_invocation(AppId(0), kFn, InvokerId(0), 5'000.0);
  w.sim.run();
  // Demand (one container) is already covered: nothing gets warmed.
  EXPECT_EQ(mgr.prewarms_issued(), 0u);
  EXPECT_TRUE(w.cluster.invoker(InvokerId(0)).has_warm(kFn, 5'001.0));
}

TEST(PrewarmManager, ExpiredContainerNoLongerCoversDemand) {
  World w;
  std::size_t expired = 0;
  w.cluster.set_warm_span_callback(
      [&expired](InvokerId, FunctionId, TimeMs, TimeMs, cluster::WarmEnd end) {
        if (end == cluster::WarmEnd::kExpired) ++expired;
      });
  PrewarmManager mgr(w.sim, w.cluster, w.profiles);
  // Warm until 4000 ms, so the keep-alive window has run out by the second
  // invocation at 5000 ms: demand (one container) is uncovered again.
  w.cluster.invoker(InvokerId(0)).add_warm(kFn, 0.0, /*keep_alive=*/4'000.0);
  mgr.on_invocation(AppId(0), kFn, InvokerId(0), 0.0);
  w.sim.run_until(5'000.0);
  mgr.on_invocation(AppId(0), kFn, InvokerId(0), 5'000.0);
  EXPECT_EQ(expired, 1u);
  w.sim.run();
  EXPECT_EQ(mgr.prewarms_issued(), 1u);
  EXPECT_EQ(mgr.prewarms_skipped(), 0u);
  EXPECT_TRUE(w.cluster.invoker(InvokerId(0)).has_warm(kFn, 10'001.0));
}

TEST(PrewarmManager, ShortIntervalFiresImmediately) {
  World w;
  PrewarmManager mgr(w.sim, w.cluster, w.profiles);
  // Interval (100 ms) is far below the cold start (3503 ms): warming starts
  // right away rather than at a negative offset.
  mgr.on_invocation(AppId(0), kFn, InvokerId(1), 0.0);
  w.sim.run_until(100.0);
  mgr.on_invocation(AppId(0), kFn, InvokerId(1), 100.0);
  w.sim.run();
  EXPECT_EQ(mgr.prewarms_issued(), 1u);
  EXPECT_TRUE(w.cluster.invoker(InvokerId(1)).has_warm(kFn, 100.0 + 3'503.0 + 1.0));
}

TEST(PrewarmManager, StreamsAreIndependentPerAppFunction) {
  World w;
  PrewarmManager mgr(w.sim, w.cluster, w.profiles);
  // App 0 invokes twice (enough for a prediction); app 1 only once.
  mgr.on_invocation(AppId(0), kFn, InvokerId(0), 0.0);
  w.sim.run_until(1'000.0);
  mgr.on_invocation(AppId(0), kFn, InvokerId(0), 1'000.0);
  mgr.on_invocation(AppId(1), kFn, InvokerId(1), 1'000.0);
  w.sim.run();
  EXPECT_EQ(mgr.prewarms_issued(), 1u);
  EXPECT_FALSE(w.cluster.invoker(InvokerId(1)).has_warm(kFn, 60'000.0));
}

TEST(PrewarmManager, OnlyOneOutstandingPrewarmPerStream) {
  World w;
  PrewarmManager mgr(w.sim, w.cluster, w.profiles);
  mgr.on_invocation(AppId(0), kFn, InvokerId(0), 0.0);
  w.sim.run_until(500.0);
  mgr.on_invocation(AppId(0), kFn, InvokerId(0), 500.0);
  // A third invocation before the outstanding prewarm fires must not stack
  // a second one.
  mgr.on_invocation(AppId(0), kFn, InvokerId(0), 500.0);
  w.sim.run();
  EXPECT_LE(mgr.prewarms_issued() + mgr.prewarms_skipped(), 1u);
}

}  // namespace
}  // namespace esg::prewarm
