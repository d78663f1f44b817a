#include "core/esg_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "workload/applications.hpp"

namespace esg::core {
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
  view.head_wait_ms = 0.0;
  view.oldest_elapsed_ms = 0.0;
  view.slo_ms = workload::slo_latency_ms(f.apps[app_idx], f.profiles, slo);
  view.now_ms = 0.0;
  return view;
}

TEST(EsgScheduler, RejectsZeroK) {
  Fixture f;
  EsgScheduler::Options opts;
  opts.k = 0;
  EXPECT_THROW(EsgScheduler(f.apps, f.profiles, opts), std::invalid_argument);
}

TEST(EsgScheduler, BuildsDistributionsForAllApps) {
  Fixture f;
  EsgScheduler sched(f.apps, f.profiles);
  for (const auto& app : f.apps) {
    EXPECT_NO_THROW(sched.distribution(app.id()));
  }
  EXPECT_THROW(sched.distribution(AppId(77)), std::out_of_range);
  EXPECT_EQ(sched.name(), "ESG");
}

TEST(EsgScheduler, PlanProducesFeasibleCandidates) {
  Fixture f;
  EsgScheduler sched(f.apps, f.profiles);
  // Queue already holds the largest possible batch, so no deferral.
  const auto view = make_view(f, 0, 0, 32, workload::SloSetting::kModerate);
  const auto plan = sched.plan(view);
  ASSERT_FALSE(plan.defer);
  ASSERT_FALSE(plan.candidates.empty());
  for (const auto& c : plan.candidates) {
    EXPECT_LE(c.batch, view.queue_length);
    EXPECT_GE(c.batch, 1);
    EXPECT_GE(c.vcpus, 1);
    EXPECT_GE(c.vgpus, 1);
  }
  EXPECT_GT(plan.overhead_ms, 0.0);
  EXPECT_FALSE(plan.used_preplanned);  // ESG never pre-plans
}

TEST(EsgScheduler, DefersWhenBatchWouldPayOff) {
  Fixture f;
  EsgScheduler sched(f.apps, f.profiles);
  // Segmentation stage, relaxed budget, one queued job: batching the stage
  // is cheaper (the optimal path uses batch >= 2) and the untouched budget
  // leaves slack to wait for a second job.
  auto view = make_view(f, 0, 1, 1, workload::SloSetting::kRelaxed);
  view.head_wait_ms = 0.0;
  view.oldest_elapsed_ms = 0.0;
  const auto plan = sched.plan(view);
  EXPECT_TRUE(plan.defer);
}

TEST(EsgScheduler, StopsDeferringOnceWaitConsumesSlack) {
  Fixture f;
  EsgScheduler sched(f.apps, f.profiles);
  auto view = make_view(f, 0, 0, 1, workload::SloSetting::kRelaxed);
  view.head_wait_ms = view.slo_ms;  // waited far beyond any slack
  view.oldest_elapsed_ms = view.head_wait_ms;
  const auto plan = sched.plan(view);
  EXPECT_FALSE(plan.defer);
  ASSERT_FALSE(plan.candidates.empty());
  EXPECT_LE(plan.candidates.front().batch, 1);
}

TEST(EsgScheduler, AdaptsToElapsedTime) {
  // When most of the SLO is consumed, the plan for a later stage must pick
  // configurations at least as fast as the unhurried plan's.
  Fixture f;
  EsgScheduler sched(f.apps, f.profiles);

  auto relaxed_view = make_view(f, 0, 1, 4, workload::SloSetting::kModerate);
  relaxed_view.head_wait_ms = relaxed_view.slo_ms;  // rule out deferral
  const auto relaxed_plan = sched.plan(relaxed_view);

  auto hurried_view = relaxed_view;
  hurried_view.oldest_elapsed_ms = 0.35 * hurried_view.slo_ms;
  const auto hurried_plan = sched.plan(hurried_view);

  ASSERT_FALSE(relaxed_plan.candidates.empty());
  ASSERT_FALSE(hurried_plan.candidates.empty());
  const auto& table = f.profiles.table(relaxed_view.function);
  const TimeMs relaxed_latency = table.at(relaxed_plan.candidates.front()).latency_ms;
  const TimeMs hurried_latency = table.at(hurried_plan.candidates.front()).latency_ms;
  EXPECT_LE(hurried_latency, relaxed_latency + 1e-9);

  // Once the SLO is unreachable, ESG deliberately stops racing and drains
  // cost-efficiently instead — but it always still proposes something.
  auto hopeless_view = relaxed_view;
  hopeless_view.oldest_elapsed_ms = 2.0 * hopeless_view.slo_ms;
  const auto hopeless_plan = sched.plan(hopeless_view);
  EXPECT_FALSE(hopeless_plan.defer);
  EXPECT_FALSE(hopeless_plan.candidates.empty());
}

TEST(EsgScheduler, LastStagePlansOnlyItself) {
  Fixture f;
  EsgScheduler sched(f.apps, f.profiles);
  // Stage 2 of a 3-stage pipeline with group size 3: the remaining group is
  // just that stage; candidates must be configs of its function.
  auto view = make_view(f, 0, 2, 4, workload::SloSetting::kModerate);
  view.head_wait_ms = view.slo_ms;  // rule out deferral
  const auto plan = sched.plan(view);
  ASSERT_FALSE(plan.candidates.empty());
  const auto& table = f.profiles.table(view.function);
  for (const auto& c : plan.candidates) {
    EXPECT_TRUE(table.contains(c));
  }
}

TEST(EsgScheduler, CandidatesAreUnique) {
  Fixture f;
  EsgScheduler::Options opts;
  opts.k = 20;
  EsgScheduler sched(f.apps, f.profiles, opts);
  auto view = make_view(f, 3, 0, 16, workload::SloSetting::kRelaxed);
  view.head_wait_ms = view.slo_ms;  // force dispatch
  view.oldest_elapsed_ms = 0.0;
  const auto plan = sched.plan(view);
  for (std::size_t i = 0; i < plan.candidates.size(); ++i) {
    for (std::size_t j = i + 1; j < plan.candidates.size(); ++j) {
      EXPECT_NE(plan.candidates[i], plan.candidates[j]);
    }
  }
}

TEST(EsgScheduler, PlacePrefersPredecessorInvoker) {
  Fixture f;
  EsgScheduler sched(f.apps, f.profiles);
  cluster::Cluster cluster(4);
  platform::PlacementContext ctx;
  ctx.app = f.apps[0].id();
  ctx.stage = 1;
  ctx.function = f.apps[0].node(1).function;
  ctx.config = profile::Config{1, 1, 1};
  ctx.predecessor_invoker = InvokerId(2);
  ctx.home_invoker = InvokerId(0);
  ctx.now_ms = 0.0;
  const auto chosen = sched.place(ctx, cluster);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, InvokerId(2));
}

TEST(EsgScheduler, PlaceFallsBackWhenPredecessorFull) {
  Fixture f;
  EsgScheduler sched(f.apps, f.profiles);
  cluster::Cluster cluster(3);
  cluster.invoker(InvokerId(2)).allocate(16, 7);  // predecessor saturated
  platform::PlacementContext ctx;
  ctx.app = f.apps[0].id();
  ctx.stage = 1;
  ctx.function = f.apps[0].node(1).function;
  ctx.config = profile::Config{1, 1, 1};
  ctx.predecessor_invoker = InvokerId(2);
  ctx.home_invoker = InvokerId(1);
  const auto chosen = sched.place(ctx, cluster);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, InvokerId(1));  // home invoker next
}

TEST(EsgScheduler, PlaceReturnsNulloptWhenClusterFull) {
  Fixture f;
  EsgScheduler sched(f.apps, f.profiles);
  cluster::Cluster cluster(2);
  for (auto& inv : cluster.invokers()) inv.allocate(16, 7);
  platform::PlacementContext ctx;
  ctx.function = f.apps[0].node(0).function;
  ctx.config = profile::Config{1, 1, 1};
  ctx.home_invoker = InvokerId(0);
  EXPECT_FALSE(sched.place(ctx, cluster).has_value());
}

/// The drain branch's candidates as plan() ranked them on every call before
/// it kept the lists: copy the view capped at min(queue, 8), filter, sort,
/// take K.
std::vector<profile::Config> fresh_drain(const profile::ProfileTable& table,
                                         std::size_t queue_length,
                                         bool still_in_budget, std::size_t k) {
  const std::size_t cap = std::min<std::size_t>(queue_length, 8);
  std::vector<profile::ProfileEntry> drain;
  if (cap > 0) {
    const auto admissible = table.view(static_cast<std::uint16_t>(cap)).entries;
    drain.assign(admissible.begin(), admissible.end());
  }
  if (!still_in_budget) {
    std::erase_if(drain, [](const profile::ProfileEntry& e) {
      return e.config.vcpus > 4;
    });
  }
  std::sort(drain.begin(), drain.end(),
            [still_in_budget](const profile::ProfileEntry& a,
                              const profile::ProfileEntry& b) {
              const double pa =
                  still_in_budget ? a.per_job_cost * a.latency_ms : a.per_job_cost;
              const double pb =
                  still_in_budget ? b.per_job_cost * b.latency_ms : b.per_job_cost;
              if (pa != pb) return pa < pb;
              return a.latency_ms < b.latency_ms;
            });
  std::vector<profile::Config> configs;
  for (const auto& e : drain) {
    configs.push_back(e.config);
    if (configs.size() >= k) break;
  }
  return configs;
}

TEST(EsgScheduler, DrainCandidatesMatchAFreshRankingWarmOrCold) {
  // A request 0.5 ms short of its SLO leaves a 1 ms budget that no path
  // meets, so plan() drains in the in-budget flavour; one past its SLO
  // drains in the backlog flavour. Every built-in function is asked at
  // queue lengths 0-12 in both flavours: by a fresh scheduler per query,
  // and twice by one scheduler whose second pass reads only kept lists.
  Fixture f;
  EsgScheduler warm(f.apps, f.profiles);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t app = 0; app < f.apps.size(); ++app) {
      for (workload::NodeIndex stage = 0; stage < f.apps[app].size(); ++stage) {
        for (std::size_t queue = 0; queue <= 12; ++queue) {
          for (const bool in_budget : {true, false}) {
            SCOPED_TRACE(::testing::Message()
                         << "pass " << pass << " app " << app << " stage " << stage
                         << " queue " << queue << " in budget " << in_budget);
            auto view = make_view(f, app, stage, queue, workload::SloSetting::kModerate);
            view.oldest_elapsed_ms = in_budget ? view.slo_ms - 0.5 : 2.0 * view.slo_ms;
            view.head_wait_ms = in_budget ? 0.0 : view.slo_ms;
            EsgScheduler cold(f.apps, f.profiles);
            const auto cold_plan = cold.plan(view);
            const auto warm_plan = warm.plan(view);
            const auto expected = fresh_drain(f.profiles.table(view.function), queue,
                                              in_budget, cold.options().k);
            EXPECT_FALSE(warm_plan.defer);
            EXPECT_EQ(expected.empty(), queue == 0);
            EXPECT_EQ(cold_plan.candidates, expected);
            EXPECT_EQ(warm_plan.candidates, expected);
            EXPECT_EQ(warm_plan.overhead_ms, cold_plan.overhead_ms);
          }
        }
      }
    }
  }
}

TEST(EsgScheduler, OverheadGrowsWithK) {
  Fixture f;
  EsgScheduler::Options small;
  small.k = 1;
  EsgScheduler::Options large;
  large.k = 80;
  EsgScheduler s1(f.apps, f.profiles, small);
  EsgScheduler s80(f.apps, f.profiles, large);
  auto view = make_view(f, 3, 0, 32, workload::SloSetting::kRelaxed);
  view.head_wait_ms = view.slo_ms;  // skip deferral
  const auto p1 = s1.plan(view);
  const auto p80 = s80.plan(view);
  EXPECT_LE(p1.overhead_ms, p80.overhead_ms);
}

}  // namespace
}  // namespace esg::core
