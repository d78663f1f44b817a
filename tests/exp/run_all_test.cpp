// Parallel scenario runner tests (DESIGN.md §15): cross-product
// construction, slot order for any thread count, each scenario run exactly
// once, per-run exception isolation, and the determinism contract —
// identical results for any --jobs count.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/run_all.hpp"

namespace esg::exp {
namespace {

Scenario small_scenario() {
  Scenario s;
  s.horizon_ms = 800.0;
  s.nodes = 4;
  return s;
}

TEST(CrossProduct, SchedulerMajorOrder) {
  const std::array<SchedulerKind, 2> kinds = {SchedulerKind::kEsg,
                                              SchedulerKind::kInfless};
  const std::array<std::uint64_t, 3> seeds = {7, 8, 9};
  const auto runs = cross_product(small_scenario(), kinds, seeds);
  ASSERT_EQ(runs.size(), 6u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].scheduler, kinds[i / 3]);
    EXPECT_EQ(runs[i].seed, seeds[i % 3]);
    EXPECT_EQ(runs[i].nodes, 4u);
  }
}

TEST(CrossProduct, StripsFileBackedTracing) {
  Scenario base = small_scenario();
  base.trace.trace_path = "/tmp/never_written.json";
  base.trace.stats_path = "/tmp/never_written.jsonl";
  const std::array<SchedulerKind, 1> kinds = {SchedulerKind::kEsg};
  const std::array<std::uint64_t, 1> seeds = {42};
  const auto runs = cross_product(base, kinds, seeds);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs[0].trace.enabled());
}

// A stand-in for run_scenario that records, per seed, how often and on
// which thread it ran. Seeds index the tables, so scenarios use seeds
// 0..kMaxRuns-1. Odd seeds throw when `throw_on_odd` is set.
constexpr std::size_t kMaxRuns = 256;
std::array<std::atomic<int>, kMaxRuns> runs_of_seed;
std::array<std::thread::id, kMaxRuns> thread_of_seed;
std::atomic<bool> throw_on_odd{false};

RunOutput record_run(const Scenario& scenario) {
  runs_of_seed[scenario.seed].fetch_add(1);
  thread_of_seed[scenario.seed] = std::this_thread::get_id();
  if (throw_on_odd && scenario.seed % 2 == 1) {
    throw std::invalid_argument("odd seed " + std::to_string(scenario.seed));
  }
  RunOutput out;
  out.simulated_end_ms = static_cast<double>(scenario.seed);
  return out;
}

class RunAll : public ::testing::Test {
 protected:
  void SetUp() override {
    for (auto& runs : runs_of_seed) runs = 0;
    thread_of_seed.fill(std::thread::id());
    throw_on_odd = false;
  }

  static std::vector<Scenario> seeded(std::size_t count) {
    std::vector<Scenario> scenarios(count, small_scenario());
    for (std::size_t i = 0; i < count; ++i) scenarios[i].seed = i;
    return scenarios;
  }
};

TEST_F(RunAll, SlotOrderHoldsForAnyJobCount) {
  const auto scenarios = seeded(40);
  for (const unsigned jobs : {0u, 1u, 4u, 64u}) {
    const auto results = run_all(scenarios, jobs, record_run);
    ASSERT_EQ(results.size(), scenarios.size()) << "jobs " << jobs;
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_FALSE(results[i].error) << "jobs " << jobs << " slot " << i;
      EXPECT_EQ(results[i].output.simulated_end_ms, static_cast<double>(i))
          << "jobs " << jobs << " slot " << i;
    }
  }
}

TEST_F(RunAll, SingleJobStillCompletes) {
  const auto scenarios = seeded(100);
  const auto results = run_all(scenarios, 1, record_run);
  ASSERT_EQ(results.size(), scenarios.size());
  double sum = 0.0;
  for (const RunResult& result : results) {
    EXPECT_FALSE(result.error);
    sum += result.output.simulated_end_ms;
  }
  EXPECT_EQ(sum, 4950.0);
  // One worker thread ran every scenario, and it was not the caller.
  for (std::size_t seed = 0; seed < scenarios.size(); ++seed) {
    EXPECT_EQ(runs_of_seed[seed], 1) << "seed " << seed;
    EXPECT_EQ(thread_of_seed[seed], thread_of_seed[0]) << "seed " << seed;
  }
  EXPECT_NE(thread_of_seed[0], std::this_thread::get_id());
}

TEST_F(RunAll, ZeroJobsMeansHardwareConcurrency) {
  const auto scenarios = seeded(64);
  const auto results = run_all(scenarios, 0, record_run);
  ASSERT_EQ(results.size(), scenarios.size());
  for (std::size_t seed = 0; seed < scenarios.size(); ++seed) {
    EXPECT_FALSE(results[seed].error) << "slot " << seed;
    EXPECT_EQ(runs_of_seed[seed], 1) << "seed " << seed;
  }
  const std::set<std::thread::id> threads(thread_of_seed.begin(),
                                          thread_of_seed.begin() + 64);
  EXPECT_GE(threads.size(), 1u);
  EXPECT_LE(threads.size(),
            std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u);
}

TEST_F(RunAll, RunsEachScenarioExactlyOnce) {
  const auto scenarios = seeded(kMaxRuns);
  const auto results = run_all(scenarios, 4, record_run);
  ASSERT_EQ(results.size(), kMaxRuns);
  for (std::size_t seed = 0; seed < kMaxRuns; ++seed) {
    EXPECT_EQ(runs_of_seed[seed], 1) << "seed " << seed;
  }
}

TEST_F(RunAll, UsesAtMostJobsThreadsAndNeverTheCaller) {
  const auto scenarios = seeded(64);
  for (const unsigned jobs : {1u, 3u}) {
    (void)run_all(scenarios, jobs, record_run);
    const std::set<std::thread::id> threads(thread_of_seed.begin(),
                                            thread_of_seed.begin() + 64);
    EXPECT_LE(threads.size(), jobs);
    EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u);
  }
  // More jobs than scenarios: one thread per scenario at most.
  (void)run_all(seeded(2), 16, record_run);
  EXPECT_LE(std::set<std::thread::id>(thread_of_seed.begin(),
                                      thread_of_seed.begin() + 2)
                .size(),
            2u);
}

TEST_F(RunAll, EmptyListRunsNothing) {
  EXPECT_TRUE(run_all({}, 4, record_run).empty());
  for (const auto& runs : runs_of_seed) EXPECT_EQ(runs, 0);
}

TEST_F(RunAll, ExceptionsStayInTheirSlots) {
  throw_on_odd = true;
  const auto scenarios = seeded(20);
  for (const unsigned jobs : {1u, 4u}) {
    const auto results = run_all(scenarios, jobs, record_run);
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (i % 2 == 1) {
        ASSERT_TRUE(results[i].error) << "slot " << i;
        EXPECT_EQ(error_message(results[i].error),
                  "odd seed " + std::to_string(i));
      } else {
        EXPECT_FALSE(results[i].error) << "slot " << i;
        EXPECT_EQ(results[i].output.simulated_end_ms, static_cast<double>(i));
      }
    }
  }
}

TEST(RunAllScenarios, ThrowingScenarioKeepsItsInvalidArgument) {
  // run_scenario rejects a crash on an invoker the fleet does not have; the
  // runs on either side of it must still complete.
  std::vector<Scenario> scenarios(3, small_scenario());
  for (std::size_t i = 0; i < scenarios.size(); ++i) scenarios[i].seed = 42 + i;
  scenarios[1].fault = fault::parse_fault_spec("crash:invoker=99,at=400,down=10");
  for (const unsigned jobs : {1u, 3u}) {
    const auto results = run_all(scenarios, jobs);
    ASSERT_EQ(results.size(), 3u);
    ASSERT_TRUE(results[1].error);
    EXPECT_THROW(std::rethrow_exception(results[1].error),
                 std::invalid_argument);
    for (const std::size_t i : {0u, 2u}) {
      ASSERT_FALSE(results[i].error) << error_message(results[i].error);
      const RunOutput solo = run_scenario(scenarios[i]);
      EXPECT_EQ(results[i].output.metrics.requests(), solo.metrics.requests());
      EXPECT_EQ(results[i].output.metrics.total_cost, solo.metrics.total_cost);
    }
  }
}

TEST(RunSweep, ResultsLandInTaskOrderForAnyJobCount) {
  const std::array<SchedulerKind, 2> kinds = {SchedulerKind::kEsg,
                                              SchedulerKind::kInfless};
  const std::array<std::uint64_t, 2> seeds = {42, 43};
  const auto cells = cross_product(small_scenario(), kinds, seeds);
  const auto base = run_all(cells, 1);
  const auto wide = run_all(cells, 4);

  ASSERT_EQ(base.size(), 4u);
  ASSERT_EQ(wide.size(), 4u);
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_FALSE(base[i].error) << error_message(base[i].error);
    ASSERT_FALSE(wide[i].error) << error_message(wide[i].error);
    // Everything but wall_seconds must be replica-deterministic.
    EXPECT_EQ(base[i].output.metrics.requests(),
              wide[i].output.metrics.requests());
    EXPECT_EQ(base[i].output.metrics.slo_hit_rate(),
              wide[i].output.metrics.slo_hit_rate());
    EXPECT_EQ(base[i].output.metrics.total_cost,
              wide[i].output.metrics.total_cost);
    EXPECT_EQ(base[i].output.counters.events_fired,
              wide[i].output.counters.events_fired);
    EXPECT_EQ(base[i].output.simulated_end_ms,
              wide[i].output.simulated_end_ms);
  }
  // Different seeds really produced different runs (the cells aren't all
  // accidentally identical).
  EXPECT_NE(base[0].output.counters.events_fired,
            base[1].output.counters.events_fired);
}

TEST(RunSweep, EngineChoicePropagatesAndMatches) {
  Scenario heap = small_scenario();
  heap.engine = sim::EngineKind::kHeap;
  const std::array<SchedulerKind, 1> kinds = {SchedulerKind::kEsg};
  const std::array<std::uint64_t, 1> seeds = {42};
  const auto heap_out = run_all(cross_product(heap, kinds, seeds));
  const auto cal_out = run_all(cross_product(small_scenario(), kinds, seeds));
  ASSERT_EQ(heap_out.size(), 1u);
  ASSERT_FALSE(heap_out[0].error);
  EXPECT_EQ(heap_out[0].output.counters.events_fired,
            cal_out[0].output.counters.events_fired);
  EXPECT_EQ(heap_out[0].output.metrics.total_cost,
            cal_out[0].output.metrics.total_cost);
}

TEST(RunSweep, FailedCellIsIsolated) {
  std::vector<Scenario> cells =
      cross_product(small_scenario(),
                    std::array<SchedulerKind, 1>{SchedulerKind::kEsg},
                    std::array<std::uint64_t, 2>{42, 43});
  // An impossible scenario: elastic min above the resolved max throws inside
  // run_scenario on the worker thread; the sibling cell must still succeed.
  cells[0].elastic.policy = elastic::ElasticPolicy::kQueue;
  cells[0].elastic.min_nodes = 9;
  cells[0].elastic.max_nodes = 2;
  const auto results = run_all(cells);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].error);
  EXPECT_FALSE(error_message(results[0].error).empty());
  ASSERT_FALSE(results[1].error) << error_message(results[1].error);
  EXPECT_GT(results[1].output.metrics.requests(), 0u);
}

}  // namespace
}  // namespace esg::exp
