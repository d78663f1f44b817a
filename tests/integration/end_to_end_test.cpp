#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

#include "exp/run_all.hpp"
#include "exp/scenario.hpp"

namespace esg::exp {
namespace {

Scenario small_scenario(SchedulerKind kind) {
  Scenario s;
  s.scheduler = kind;
  s.load = workload::LoadSetting::kLight;
  s.slo = workload::SloSetting::kRelaxed;
  s.horizon_ms = 4'000.0;
  s.seed = 11;
  // Keep Aquatope's offline phase small in tests.
  s.aquatope.bootstrap_samples = 20;
  s.aquatope.rounds = 5;
  s.aquatope.ei_pool = 32;
  return s;
}

class EveryScheduler : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(EveryScheduler, CompletesEveryRequest) {
  const RunOutput out = run_scenario(small_scenario(GetParam()));
  EXPECT_GT(out.metrics.requests(), 30u);  // ~75 arrivals in 4 s light load
  EXPECT_GT(out.metrics.total_cost, 0.0);
  EXPECT_GT(out.metrics.tasks, out.metrics.requests());  // multi-stage apps
  for (const auto& rec : out.metrics.completions) {
    EXPECT_GT(rec.latency_ms, 0.0);
    EXPECT_GE(rec.completion_ms, rec.arrival_ms);
    EXPECT_GT(rec.slo_ms, 0.0);
  }
}

TEST_P(EveryScheduler, DeterministicReplay) {
  const Scenario s = small_scenario(GetParam());
  const RunOutput a = run_scenario(s);
  const RunOutput b = run_scenario(s);
  ASSERT_EQ(a.metrics.requests(), b.metrics.requests());
  EXPECT_EQ(a.metrics.total_cost, b.metrics.total_cost);
  EXPECT_EQ(a.metrics.tasks, b.metrics.tasks);
  EXPECT_EQ(a.metrics.cold_starts, b.metrics.cold_starts);
  for (std::size_t i = 0; i < a.metrics.completions.size(); ++i) {
    EXPECT_EQ(a.metrics.completions[i].latency_ms,
              b.metrics.completions[i].latency_ms);
  }
  EXPECT_EQ(a.simulated_end_ms, b.simulated_end_ms);
}

TEST_P(EveryScheduler, DifferentSeedsDiverge) {
  Scenario s1 = small_scenario(GetParam());
  Scenario s2 = s1;
  s2.seed = 12;
  const RunOutput a = run_scenario(s1);
  const RunOutput b = run_scenario(s2);
  EXPECT_NE(a.metrics.total_cost, b.metrics.total_cost);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, EveryScheduler,
                         ::testing::ValuesIn(std::vector<SchedulerKind>(
                             all_schedulers().begin(), all_schedulers().end())),
                         [](const auto& info) {
                           return std::string(to_string(info.param)) == "FaST-GShare"
                                      ? std::string("FaSTGShare")
                                      : std::string(to_string(info.param));
                         });

/// One scenario per seed, as esg_sim's multi-seed path runs them.
std::vector<Scenario> replicas(const Scenario& base,
                               std::span<const std::uint64_t> seeds) {
  const SchedulerKind scheduler[] = {base.scheduler};
  return cross_product(base, scheduler, seeds);
}

TEST(Harness, ParallelReplicasMatchSequentialRuns) {
  const Scenario base = small_scenario(SchedulerKind::kEsg);
  const std::vector<std::uint64_t> seeds = {1, 2, 3};
  const auto parallel = run_all(replicas(base, seeds), 3);
  ASSERT_EQ(parallel.size(), 3u);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    Scenario s = base;
    s.seed = seeds[i];
    const RunOutput solo = run_scenario(s);
    ASSERT_FALSE(parallel[i].error) << error_message(parallel[i].error);
    EXPECT_EQ(parallel[i].output.metrics.total_cost, solo.metrics.total_cost);
    EXPECT_EQ(parallel[i].output.metrics.requests(), solo.metrics.requests());
  }
}

TEST(Harness, ReplicaFailureIsRethrownOnTheCaller) {
  // run_scenario rejects a crash on an invoker the fleet does not have. The
  // replicas run on worker threads, which must hand that error back to the
  // caller instead of terminating the process.
  Scenario base = small_scenario(SchedulerKind::kEsg);
  base.horizon_ms = 2'000.0;
  base.fault = fault::parse_fault_spec("crash:invoker=99,at=1000,down=10");
  const std::vector<std::uint64_t> one = {1};
  const std::vector<std::uint64_t> three = {1, 2, 3};
  for (const std::vector<std::uint64_t>& seeds : {one, three}) {
    const auto results = run_all(replicas(base, seeds),
                                 static_cast<unsigned>(seeds.size()));
    ASSERT_EQ(results.size(), seeds.size());
    for (const RunResult& result : results) {
      ASSERT_TRUE(result.error);
      EXPECT_THROW(std::rethrow_exception(result.error), std::invalid_argument);
    }
  }
}

TEST(Harness, AggregateAveragesAcrossReplicas) {
  const Scenario base = small_scenario(SchedulerKind::kEsg);
  const std::vector<std::uint64_t> seeds = {5, 6};
  std::vector<RunOutput> outputs;
  for (RunResult& result : run_all(replicas(base, seeds), 2)) {
    ASSERT_FALSE(result.error) << error_message(result.error);
    outputs.push_back(std::move(result.output));
  }
  const Aggregate agg = aggregate(outputs);
  EXPECT_NEAR(agg.slo_hit_rate,
              (outputs[0].metrics.slo_hit_rate() +
               outputs[1].metrics.slo_hit_rate()) /
                  2.0,
              1e-12);
  EXPECT_NEAR(agg.total_cost,
              (outputs[0].metrics.total_cost + outputs[1].metrics.total_cost) /
                  2.0,
              1e-12);
  EXPECT_GT(agg.requests, 0u);
}

TEST(Harness, PaperCombosAreThree) {
  ASSERT_EQ(paper_combos().size(), 3u);
  EXPECT_EQ(combo_name(paper_combos()[0]), "strict-light");
  EXPECT_EQ(combo_name(paper_combos()[1]), "moderate-normal");
  EXPECT_EQ(combo_name(paper_combos()[2]), "relaxed-heavy");
}

TEST(Harness, SchedulerNamesRoundTrip) {
  EXPECT_EQ(to_string(SchedulerKind::kEsg), "ESG");
  EXPECT_EQ(to_string(SchedulerKind::kInfless), "INFless");
  EXPECT_EQ(to_string(SchedulerKind::kFastGshare), "FaST-GShare");
  EXPECT_EQ(to_string(SchedulerKind::kOrion), "Orion");
  EXPECT_EQ(to_string(SchedulerKind::kAquatope), "Aquatope");
  EXPECT_EQ(all_schedulers().size(), 5u);
}

}  // namespace
}  // namespace esg::exp
