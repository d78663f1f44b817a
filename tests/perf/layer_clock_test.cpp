// The layer clock (DESIGN.md §13): scopes hand the outer layer back on every
// exit path, the slots add up to the clock's window to the nanosecond, a
// scope with no clock running touches nothing, and each thread times only
// its own layers.
#include "perf/layer_clock.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace esg::perf {
namespace {

/// Spins until the steady clock has moved on by at least `us`.
void busy(int us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

std::uint64_t self(const LayerTimes& times, Layer layer) {
  return times.self_ns[static_cast<std::size_t>(layer)];
}

std::uint64_t slot_sum(const LayerTimes& times) {
  return std::accumulate(times.self_ns.begin(), times.self_ns.end(),
                         std::uint64_t{0});
}

TEST(LayerClock, StartsInSetupAndRunsOnlyWhileAlive) {
  EXPECT_EQ(LayerClock::running(), nullptr);
  {
    LayerClock clock;
    EXPECT_EQ(LayerClock::running(), &clock);
    EXPECT_EQ(clock.current(), Layer::kSetup);
  }
  EXPECT_EQ(LayerClock::running(), nullptr);
}

TEST(LayerClock, OneClockPerThread) {
  LayerClock clock;
  EXPECT_THROW(LayerClock second, std::logic_error);
  EXPECT_EQ(LayerClock::running(), &clock);
}

TEST(LayerClock, NestedScopeGivesTheOuterLayerBack) {
  LayerClock clock;
  {
    const LayerScope scan(Layer::kScan);
    EXPECT_EQ(clock.current(), Layer::kScan);
    {
      const LayerScope plan(Layer::kPlan);
      EXPECT_EQ(clock.current(), Layer::kPlan);
      busy(200);
    }
    EXPECT_EQ(clock.current(), Layer::kScan);
  }
  EXPECT_EQ(clock.current(), Layer::kSetup);
  const LayerTimes times = clock.read();
  EXPECT_GE(self(times, Layer::kPlan), 200'000u);
  EXPECT_EQ(self(times, Layer::kDispatch), 0u);
}

TEST(LayerClock, ScopeGivesTheOuterLayerBackOnAThrow) {
  LayerClock clock;
  const LayerScope engine(Layer::kEngine);
  try {
    const LayerScope dispatch(Layer::kDispatch);
    const LayerScope prewarm(Layer::kPrewarm);
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(clock.current(), Layer::kEngine);
}

TEST(LayerClock, ScopeMovedOnStillRestoresWhereItBegan) {
  LayerClock clock;
  {
    LayerScope run(Layer::kSetup);
    run.switch_to(Layer::kEngine);
    EXPECT_EQ(clock.current(), Layer::kEngine);
    {
      const LayerScope sinks(Layer::kSinks);
    }
    EXPECT_EQ(clock.current(), Layer::kEngine);
  }
  EXPECT_EQ(clock.current(), Layer::kSetup);
}

TEST(LayerClock, SlotsSumExactlyToTheWindow) {
  LayerClock clock;
  for (int round = 0; round < 50; ++round) {
    const LayerScope scan(Layer::kScan);
    busy(5);
    {
      const LayerScope plan(Layer::kPlan);
      busy(5);
    }
    const LayerScope place(Layer::kPlace);
  }
  const LayerTimes first = clock.read();
  EXPECT_GT(first.window_ns, 0u);
  EXPECT_EQ(slot_sum(first), first.window_ns);

  busy(50);
  const LayerTimes second = clock.read();
  EXPECT_EQ(slot_sum(second), second.window_ns);
  EXPECT_GE(second.window_ns, first.window_ns + 50'000u);
  // The open interval went to the layer current at the read.
  EXPECT_GE(self(second, Layer::kSetup), self(first, Layer::kSetup) + 50'000u);
}

TEST(LayerClock, WithoutAClockAScopeChangesNothing) {
  ASSERT_EQ(LayerClock::running(), nullptr);
  {
    LayerScope scan(Layer::kScan);
    scan.switch_to(Layer::kPlan);
    EXPECT_EQ(LayerClock::running(), nullptr);
  }
  // A clock started afterwards inherits nothing from the scope.
  LayerClock clock;
  EXPECT_EQ(clock.current(), Layer::kSetup);
  const LayerTimes times = clock.read();
  EXPECT_EQ(self(times, Layer::kScan), 0u);
  EXPECT_EQ(self(times, Layer::kPlan), 0u);
}

TEST(LayerClock, ThreadsKeepTheirOwnTables) {
  // Each thread runs its own clock and spends its time in its own layer;
  // neither table may show the other thread's layer.
  const auto run = [](Layer layer, LayerTimes& out) {
    LayerClock clock;
    {
      const LayerScope scope(layer);
      busy(2'000);
    }
    out = clock.read();
  };
  LayerTimes plan_times;
  LayerTimes place_times;
  std::thread a(run, Layer::kPlan, std::ref(plan_times));
  std::thread b(run, Layer::kPlace, std::ref(place_times));
  a.join();
  b.join();
  EXPECT_EQ(LayerClock::running(), nullptr);

  EXPECT_GE(self(plan_times, Layer::kPlan), 2'000'000u);
  EXPECT_EQ(self(plan_times, Layer::kPlace), 0u);
  EXPECT_EQ(slot_sum(plan_times), plan_times.window_ns);
  EXPECT_GE(self(place_times, Layer::kPlace), 2'000'000u);
  EXPECT_EQ(self(place_times, Layer::kPlan), 0u);
  EXPECT_EQ(slot_sum(place_times), place_times.window_ns);
}

}  // namespace
}  // namespace esg::perf
