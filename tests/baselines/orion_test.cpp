#include "baselines/orion.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "workload/applications.hpp"
#include "workload/dag.hpp"

namespace esg::baselines {
namespace {

struct Fixture {
  profile::ProfileSet profiles = profile::ProfileSet::builtin();
  std::vector<workload::AppDag> apps = workload::builtin_applications();
};

platform::QueueView make_view(const Fixture& f, std::size_t app_idx,
                              workload::NodeIndex stage, std::size_t queue_len,
                              workload::SloSetting slo) {
  platform::QueueView view;
  view.app = f.apps[app_idx].id();
  view.stage = stage;
  view.function = f.apps[app_idx].node(stage).function;
  view.dag = &f.apps[app_idx];
  view.profiles = &f.profiles;
  view.queue_length = queue_len;
  view.slo_ms = workload::slo_latency_ms(f.apps[app_idx], f.profiles, slo);
  return view;
}

TEST(Orion, PlansWholeApplicationAtFirstStage) {
  Fixture f;
  OrionScheduler sched(f.apps, f.profiles);
  EXPECT_EQ(sched.name(), "Orion");
  auto view = make_view(f, 0, 0, 8, workload::SloSetting::kRelaxed);
  view.head_wait_ms = 1e9;  // rule out deferral
  const auto plan = sched.plan(view);
  ASSERT_EQ(plan.candidates.size(), 1u);
  EXPECT_GT(plan.overhead_ms, 0.0);  // the search was charged
  EXPECT_GT(sched.total_expansions(), 0u);
}

TEST(Orion, LaterStagesReusePlanAndCountMisses) {
  Fixture f;
  OrionScheduler sched(f.apps, f.profiles);
  auto first = make_view(f, 0, 0, 8, workload::SloSetting::kRelaxed);
  first.head_wait_ms = 1e9;
  (void)sched.plan(first);

  auto later = make_view(f, 0, 1, 8, workload::SloSetting::kRelaxed);
  const auto plan = sched.plan(later);
  ASSERT_EQ(plan.candidates.size(), 1u);
  EXPECT_TRUE(plan.used_preplanned);
  EXPECT_EQ(plan.overhead_ms, 0.0);  // no fresh search for later stages

  // Shrink the queue below the planned batch: that is a configuration miss.
  auto starved = later;
  starved.queue_length = 0;
  const auto missed = sched.plan(starved);
  EXPECT_TRUE(missed.used_preplanned);
  EXPECT_TRUE(missed.preplanned_miss);
}

TEST(Orion, SearchGoalRespectsSlo) {
  Fixture f;
  OrionScheduler::Options opts;
  opts.max_expansions = 200'000;
  OrionScheduler sched(f.apps, f.profiles, opts);
  auto view = make_view(f, 0, 0, 32, workload::SloSetting::kRelaxed);
  view.head_wait_ms = 1e9;
  const auto plan = sched.plan(view);
  ASSERT_EQ(plan.candidates.size(), 1u);
  // Reconstruct the predicted P95 of the planned path: it must fit the SLO
  // (the search had a generous budget).
  auto later1 = make_view(f, 0, 1, 32, workload::SloSetting::kRelaxed);
  auto later2 = make_view(f, 0, 2, 32, workload::SloSetting::kRelaxed);
  const auto p1 = sched.plan(later1);
  const auto p2 = sched.plan(later2);
  const TimeMs total =
      f.profiles.table(view.function).at(plan.candidates.front()).latency_ms +
      f.profiles.table(later1.function).at(p1.candidates.front()).latency_ms +
      f.profiles.table(later2.function).at(p2.candidates.front()).latency_ms;
  EXPECT_LE(total * OrionScheduler::kP95Factor, view.slo_ms + 1e-9);
}

TEST(Orion, CutOffStillReturnsAPlan) {
  Fixture f;
  OrionScheduler::Options opts;
  opts.max_expansions = 3;  // brutally small budget
  OrionScheduler sched(f.apps, f.profiles, opts);
  auto view = make_view(f, 3, 0, 8, workload::SloSetting::kStrict);
  view.head_wait_ms = 1e9;
  const auto plan = sched.plan(view);
  ASSERT_EQ(plan.candidates.size(), 1u);  // closest-latency state returned
}

TEST(Orion, ChargeSearchTimeToggle) {
  Fixture f;
  OrionScheduler::Options no_charge;
  no_charge.charge_search_time = false;
  OrionScheduler sched(f.apps, f.profiles, no_charge);
  auto view = make_view(f, 0, 0, 8, workload::SloSetting::kRelaxed);
  view.head_wait_ms = 1e9;
  EXPECT_EQ(sched.plan(view).overhead_ms, 0.0);
}

TEST(Orion, RefreshesAfterDispatch) {
  Fixture f;
  OrionScheduler sched(f.apps, f.profiles);
  cluster::Cluster cluster(4);
  auto view = make_view(f, 0, 0, 8, workload::SloSetting::kRelaxed);
  view.head_wait_ms = 1e9;
  (void)sched.plan(view);
  const std::size_t after_first = sched.total_expansions();

  platform::PlacementContext ctx;
  ctx.app = view.app;
  ctx.stage = 0;
  ctx.function = view.function;
  ctx.config = profile::Config{1, 1, 1};
  ctx.home_invoker = InvokerId(0);
  ASSERT_TRUE(sched.place(ctx, cluster).has_value());

  (void)sched.plan(view);  // next cohort triggers a fresh search
  EXPECT_GT(sched.total_expansions(), after_first);
}

TEST(Orion, NoRepeatSearchWithoutDispatch) {
  Fixture f;
  OrionScheduler sched(f.apps, f.profiles);
  auto view = make_view(f, 0, 0, 8, workload::SloSetting::kRelaxed);
  view.head_wait_ms = 1e9;
  (void)sched.plan(view);
  const std::size_t once = sched.total_expansions();
  (void)sched.plan(view);
  EXPECT_EQ(sched.total_expansions(), once);
}

// A search state packs 4 bits per axis index, 12 per stage, into 64 bits:
// apps of more than 5 stages and axes of 16 or more values would collide in
// the seen set, so the constructor rejects them.
TEST(Orion, RejectsAppsBeyondFiveStages) {
  const profile::ProfileSet profiles = profile::ProfileSet::builtin();
  std::vector<FunctionId> functions(6, profile::id_of(profile::Function::kDeblur));
  const std::vector<workload::AppDag> six = {
      workload::make_pipeline(AppId(9), "six", functions)};
  EXPECT_THROW((OrionScheduler{six, profiles}), std::invalid_argument);

  functions.pop_back();
  const std::vector<workload::AppDag> five = {
      workload::make_pipeline(AppId(9), "five", functions)};
  OrionScheduler::Options opts;
  opts.max_expansions = 2'000;
  OrionScheduler sched(five, profiles, opts);
  platform::QueueView view;
  view.app = five[0].id();
  view.stage = 0;
  view.function = five[0].node(0).function;
  view.dag = &five[0];
  view.profiles = &profiles;
  view.queue_length = 64;
  view.slo_ms = workload::slo_latency_ms(five[0], profiles,
                                         workload::SloSetting::kModerate);
  EXPECT_EQ(sched.plan(view).candidates.size(), 1u);
}

TEST(Orion, RejectsAnAxisOfSixteenValues) {
  const std::vector<workload::AppDag> apps = workload::builtin_applications();
  profile::ConfigSpaceOptions wide;
  wide.batches.clear();
  for (std::uint16_t b = 1; b <= 16; ++b) wide.batches.push_back(b);
  EXPECT_THROW((OrionScheduler{apps, profile::ProfileSet::builtin(wide)}),
               std::invalid_argument);

  wide.batches.pop_back();  // 15 values fit
  EXPECT_NO_THROW((OrionScheduler{apps, profile::ProfileSet::builtin(wide)}));
}

TEST(Orion, AcceptsTheBuiltInAndDenseConfigSpaces) {
  const std::vector<workload::AppDag> apps = workload::builtin_applications();
  EXPECT_NO_THROW((OrionScheduler{apps, profile::ProfileSet::builtin()}));
  // Figure 11's denser space.
  profile::ConfigSpaceOptions dense;
  dense.batches = {1, 2, 3, 4, 6, 8, 12, 16};
  dense.vcpus = {1, 2, 4, 8};
  dense.vgpus = {1, 2, 3, 4, 5, 6, 7};
  EXPECT_NO_THROW((OrionScheduler{apps, profile::ProfileSet::builtin(dense)}));
}

}  // namespace
}  // namespace esg::baselines
