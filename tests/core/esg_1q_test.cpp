#include "core/esg_1q.hpp"

#include <gtest/gtest.h>

#include "core/brute_force.hpp"
#include "profile/function_spec.hpp"

namespace esg::core {
namespace {

using profile::Function;
using profile::ProfileSet;

const ProfileSet& profiles() {
  static const ProfileSet set = ProfileSet::builtin();
  return set;
}

std::vector<StageInput> pipeline_stages(std::initializer_list<Function> fns,
                                        std::uint16_t first_cap = 0) {
  std::vector<StageInput> stages;
  for (Function f : fns) {
    stages.push_back(StageInput{&profiles().table(profile::id_of(f)), 0});
  }
  if (!stages.empty()) stages.front().batch_cap = first_cap;
  return stages;
}

TEST(Esg1q, RejectsBadInput) {
  EXPECT_THROW(esg_1q({}, 100.0), std::invalid_argument);
  auto stages = pipeline_stages({Function::kDeblur});
  SearchOptions opts;
  opts.k = 0;
  EXPECT_THROW(esg_1q(stages, 100.0, opts), std::invalid_argument);
  // A zero path cap would empty the first level and report a feasible
  // target as missed.
  SearchOptions no_paths;
  no_paths.max_paths = 0;
  EXPECT_THROW(esg_1q(stages, 100'000.0, no_paths), std::invalid_argument);
}

TEST(Esg1q, SingleStageFindsCheapestMeetingTarget) {
  auto stages = pipeline_stages({Function::kDeblur});
  const auto result = esg_1q(stages, 400.0);
  ASSERT_TRUE(result.met_slo);
  ASSERT_FALSE(result.config_pq.empty());
  const auto& best = result.config_pq.front();
  EXPECT_LT(best.total_latency_ms, 400.0);

  // No admissible config may be cheaper while staying under the target.
  for (const auto& e : profiles().table(profile::id_of(Function::kDeblur)).entries()) {
    if (e.latency_ms < 400.0) {
      EXPECT_GE(e.per_job_cost, best.total_per_job_cost - 1e-12);
    }
  }
}

TEST(Esg1q, InfeasibleTargetFallsBackToFastestPath) {
  auto stages = pipeline_stages({Function::kDeblur, Function::kSegmentation});
  const auto result = esg_1q(stages, 1.0);  // impossible
  EXPECT_FALSE(result.met_slo);
  ASSERT_EQ(result.config_pq.size(), 1u);
  // The fallback is the per-stage fastest configuration.
  TimeMs fastest = 0.0;
  for (const auto& in : stages) fastest += in.table->min_latency();
  EXPECT_NEAR(result.config_pq.front().total_latency_ms, fastest, 1e-9);
}

TEST(Esg1q, PathsRespectTarget) {
  auto stages = pipeline_stages(
      {Function::kSuperResolution, Function::kSegmentation,
       Function::kClassification});
  const auto result = esg_1q(stages, 700.0);
  ASSERT_TRUE(result.met_slo);
  for (const auto& path : result.config_pq) {
    EXPECT_LT(path.total_latency_ms, 700.0);
    ASSERT_EQ(path.entries.size(), 3u);
    // Totals are consistent with the per-stage entries.
    TimeMs lat = 0.0;
    Usd cost = 0.0;
    for (const auto& e : path.entries) {
      lat += e.latency_ms;
      cost += e.per_job_cost;
    }
    EXPECT_NEAR(lat, path.total_latency_ms, 1e-9);
    EXPECT_NEAR(cost, path.total_per_job_cost, 1e-9);
  }
}

TEST(Esg1q, ConfigPqSortedByCost) {
  auto stages = pipeline_stages(
      {Function::kDeblur, Function::kSuperResolution,
       Function::kDepthRecognition});
  SearchOptions opts;
  opts.k = 8;
  const auto result = esg_1q(stages, 2'000.0, opts);
  ASSERT_TRUE(result.met_slo);
  for (std::size_t i = 1; i < result.config_pq.size(); ++i) {
    EXPECT_LE(result.config_pq[i - 1].total_per_job_cost,
              result.config_pq[i].total_per_job_cost);
  }
}

TEST(Esg1q, BatchCapRestrictsFirstStage) {
  auto stages = pipeline_stages(
      {Function::kSuperResolution, Function::kSegmentation}, /*first_cap=*/2);
  const auto result = esg_1q(stages, 800.0);
  for (const auto& path : result.config_pq) {
    EXPECT_LE(path.entries.front().config.batch, 2);
  }
}

// The core optimality property: dual-blade pruning never loses the optimum.
TEST(Esg1q, MatchesBruteForceOptimum) {
  profile::ConfigSpaceOptions small;
  small.batches = {1, 2, 4, 8};
  small.vcpus = {1, 2, 4};
  small.vgpus = {1, 2, 4};
  const ProfileSet set = ProfileSet::builtin(small);

  for (double slo_scale : {0.9, 1.0, 1.3, 2.0, 5.0}) {
    std::vector<StageInput> stages = {
        {&set.table(profile::id_of(Function::kSuperResolution)), 0},
        {&set.table(profile::id_of(Function::kSegmentation)), 0},
        {&set.table(profile::id_of(Function::kClassification)), 0},
    };
    TimeMs base = 0.0;
    for (const auto& in : stages) base += in.table->min_config_entry().latency_ms;
    const TimeMs target = base * slo_scale;

    const auto pruned = esg_1q(stages, target);
    const auto brute = brute_force_search(stages, target);
    ASSERT_EQ(pruned.met_slo, brute.met_slo) << "scale " << slo_scale;
    if (brute.met_slo) {
      EXPECT_NEAR(pruned.config_pq.front().total_per_job_cost,
                  brute.config_pq.front().total_per_job_cost, 1e-12)
          << "scale " << slo_scale;
      // Pruning must examine strictly fewer nodes than enumeration.
      EXPECT_LT(pruned.stats.nodes_expanded, brute.stats.nodes_expanded);
    }
  }
}

TEST(Esg1q, KBestMatchBruteForceCosts) {
  profile::ConfigSpaceOptions small;
  small.batches = {1, 2, 4};
  small.vcpus = {1, 2};
  small.vgpus = {1, 2};
  const ProfileSet set = ProfileSet::builtin(small);
  std::vector<StageInput> stages = {
      {&set.table(profile::id_of(Function::kDeblur)), 0},
      {&set.table(profile::id_of(Function::kSuperResolution)), 0},
  };
  SearchOptions opts;
  opts.k = 5;
  const TimeMs target = 600.0;
  const auto pruned = esg_1q(stages, target, opts);
  const auto brute = brute_force_search(stages, target, opts);
  ASSERT_TRUE(pruned.met_slo);
  ASSERT_EQ(pruned.config_pq.size(), brute.config_pq.size());
  for (std::size_t i = 0; i < pruned.config_pq.size(); ++i) {
    EXPECT_NEAR(pruned.config_pq[i].total_per_job_cost,
                brute.config_pq[i].total_per_job_cost, 1e-12);
  }
}

TEST(Esg1q, TighterSloPrunesMore) {
  auto stages = pipeline_stages(
      {Function::kSuperResolution, Function::kSegmentation,
       Function::kClassification});
  TimeMs base = 0.0;
  for (const auto& in : stages) base += in.table->min_config_entry().latency_ms;
  const auto strict = esg_1q(stages, 0.8 * base);
  const auto relaxed = esg_1q(stages, 1.2 * base);
  // Relaxed SLOs leave more of the space unpruned (Section 5.3's finding).
  EXPECT_LE(strict.stats.nodes_expanded, relaxed.stats.nodes_expanded);
}

TEST(Esg1q, LargerKExpandsMoreOrEqual) {
  auto stages = pipeline_stages(
      {Function::kDeblur, Function::kSuperResolution,
       Function::kBackgroundRemoval});
  TimeMs base = 0.0;
  for (const auto& in : stages) base += in.table->min_config_entry().latency_ms;
  SearchOptions k1;
  k1.k = 1;
  SearchOptions k80;
  k80.k = 80;
  const auto r1 = esg_1q(stages, 1.2 * base, k1);
  const auto r80 = esg_1q(stages, 1.2 * base, k80);
  EXPECT_LE(r1.stats.nodes_expanded, r80.stats.nodes_expanded);
  EXPECT_LE(r1.config_pq.size(), r80.config_pq.size());
  // The best path is identical regardless of K.
  EXPECT_NEAR(r1.config_pq.front().total_per_job_cost,
              r80.config_pq.front().total_per_job_cost, 1e-12);
}

TEST(OverheadModel, LinearInNodes) {
  const OverheadModel m;
  EXPECT_NEAR(m.overhead_ms(0), m.base_ms, 1e-12);
  EXPECT_NEAR(m.overhead_ms(1000) - m.overhead_ms(0), m.per_node_us, 1e-9);
  // The calibration target: ~16.7M brute-force paths cost ~7.2 s (paper §5.3).
  EXPECT_NEAR(m.overhead_ms(256 * 256 * 256), 7'214.0, 120.0);
}

}  // namespace
}  // namespace esg::core
