// StaticSliceScheduler::plan() ranks each list of configurations once and
// keeps it (DESIGN.md §5). These rows check that a memoized plan is exactly
// the plan of the code the memo replaced, which filtered the profile table
// and std::sorted the result on every call: the same candidates in the same
// order and the same defer, for both ranks.
//
// The rows cover every built-in function, a slice at and between every
// entry latency (so every number k of entries that meet the slice, with
// k = 0 the drain path), and queue lengths 0-40. Each case is asked of a
// fresh scheduler twice, with its memo cold and then warm, and of one
// scheduler that has seen every earlier case. Ties in a rank are what make
// this test bite: std::sort orders tied entries by its input, so a memo
// that sorted another list (say the whole table, filtered afterwards) would
// offer tied configurations in another order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/fast_gshare.hpp"
#include "baselines/infless.hpp"
#include "baselines/service_time_split.hpp"
#include "workload/applications.hpp"

namespace esg::baselines {
namespace {

constexpr std::size_t kMaxQueue = 40;

/// plan() as it was before the memo: filter and sort on every call.
template <typename Rank>
platform::PlanResult fresh_plan(const platform::QueueView& view,
                                double fraction, std::size_t max_candidates) {
  const TimeMs slice =
      std::max(1.0, view.slo_ms * fraction - view.head_wait_ms);
  const auto& table = view.profiles->table(view.function);
  const auto ranked = [&table](auto keep) {
    std::vector<const profile::ProfileEntry*> list;
    for (const auto& e : table.entries()) {
      if (keep(e)) list.push_back(&e);
    }
    std::sort(list.begin(), list.end(), Rank{});
    return list;
  };
  platform::PlanResult plan;
  const auto offer = [&](const std::vector<const profile::ProfileEntry*>& list) {
    for (const auto* e : list) {
      if (e->config.batch > view.queue_length) continue;
      plan.candidates.push_back(e->config);
      if (plan.candidates.size() >= max_candidates) break;
    }
  };
  const auto fitting = ranked(
      [slice](const profile::ProfileEntry& e) { return e.latency_ms <= slice; });
  if (fitting.empty()) {
    offer(ranked([&view](const profile::ProfileEntry& e) {
      return e.config.batch <= view.queue_length;
    }));
    if (plan.candidates.empty()) plan.candidates.push_back(profile::kMinConfig);
    return plan;
  }
  const profile::ProfileEntry& top = *fitting.front();
  if (top.config.batch > view.queue_length &&
      platform::may_defer(view.head_wait_ms,
                          std::max(0.0, slice - top.latency_ms))) {
    plan.defer = true;
    return plan;
  }
  offer(fitting);
  return plan;
}

/// Pairs of entries in one table that `Rank` cannot order.
template <typename Rank>
std::size_t tied_pairs(const profile::ProfileSet& profiles,
                       const std::vector<workload::AppDag>& apps) {
  std::set<FunctionId> seen;
  std::size_t ties = 0;
  for (const auto& app : apps) {
    for (workload::NodeIndex s = 0; s < app.size(); ++s) {
      const FunctionId fn = app.node(s).function;
      if (!seen.insert(fn).second) continue;
      const auto entries = profiles.table(fn).entries();
      for (std::size_t i = 0; i < entries.size(); ++i) {
        for (std::size_t j = i + 1; j < entries.size(); ++j) {
          if (!Rank{}(&entries[i], &entries[j]) &&
              !Rank{}(&entries[j], &entries[i])) {
            ++ties;
          }
        }
      }
    }
  }
  return ties;
}

std::string describe(const platform::PlanResult& plan) {
  std::ostringstream out;
  out << (plan.defer ? "defer" : "offer");
  for (const auto& c : plan.candidates) out << ' ' << profile::to_string(c);
  return out.str();
}

/// Asks every case of `profiles` of memoized schedulers and of fresh_plan,
/// and expects the same answers.
template <typename Rank>
void expect_memo_exact(const profile::ProfileSet& profiles) {
  const std::vector<workload::AppDag> apps = workload::builtin_applications();
  StaticSliceScheduler<Rank> seasoned(apps, profiles);
  const std::size_t max_candidates =
      typename StaticSliceScheduler<Rank>::Options{}.candidates;

  std::size_t cases = 0;
  std::size_t mismatches = 0;
  std::size_t drains = 0;
  std::size_t defers = 0;
  std::string first;
  std::set<FunctionId> seen;
  for (const auto& app : apps) {
    const ServiceTimeSplit split(app, profiles);
    const std::vector<workload::AppDag> one_app{app};
    for (workload::NodeIndex stage = 0; stage < app.size(); ++stage) {
      const FunctionId fn = app.node(stage).function;
      if (!seen.insert(fn).second) continue;
      const double fraction = split.node_fraction(stage);
      const auto entries = profiles.table(fn).entries();

      // Slices below, at, between and above the entry latencies.
      std::vector<TimeMs> latencies;
      for (const auto& e : entries) latencies.push_back(e.latency_ms);
      latencies.erase(std::unique(latencies.begin(), latencies.end()),
                      latencies.end());
      std::vector<TimeMs> slices{latencies.front() / 2.0};
      for (std::size_t i = 0; i < latencies.size(); ++i) {
        slices.push_back(latencies[i]);
        slices.push_back(i + 1 < latencies.size()
                             ? (latencies[i] + latencies[i + 1]) / 2.0
                             : latencies[i] * 2.0);
      }

      std::set<std::size_t> ks;
      for (const TimeMs slice : slices) {
        // slo * fraction lands within a factor of two of `slice`, so the
        // head wait it leaves is exact and plan() computes `slice` itself.
        platform::QueueView view;
        view.app = app.id();
        view.stage = stage;
        view.function = fn;
        view.dag = &app;
        view.profiles = &profiles;
        view.slo_ms = 1.1 * slice / fraction;
        view.head_wait_ms = view.slo_ms * fraction - slice;
        ASSERT_EQ(view.slo_ms * fraction - view.head_wait_ms, slice);
        const auto k = static_cast<std::size_t>(std::count_if(
            entries.begin(), entries.end(), [slice](const auto& e) {
              return e.latency_ms <= std::max(1.0, slice);
            }));
        ks.insert(k);

        for (std::size_t q = 0; q <= kMaxQueue; ++q) {
          view.queue_length = q;
          const platform::PlanResult want =
              fresh_plan<Rank>(view, fraction, max_candidates);
          StaticSliceScheduler<Rank> fresh(one_app, profiles);
          const platform::PlanResult answers[] = {
              fresh.plan(view), fresh.plan(view), seasoned.plan(view)};
          for (const auto& got : answers) {
            ++cases;
            if (got.candidates == want.candidates && got.defer == want.defer) {
              continue;
            }
            if (mismatches++ == 0) {
              first = "function " + std::to_string(fn.get()) + " slice " +
                      std::to_string(slice) + " queue " + std::to_string(q) +
                      ": got " + describe(got) + ", want " + describe(want);
            }
          }
          drains += k == 0 ? 1 : 0;
          defers += want.defer ? 1 : 0;
        }
      }
      // Every k a slice can select, from the drain path to the whole table.
      EXPECT_EQ(ks.size(), latencies.size() + 1) << "function " << fn.get();
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << cases << " answers; first: " << first;
  EXPECT_GT(drains, 0u);
  EXPECT_GT(defers, 0u);
}

TEST(StaticSliceMemo, BuiltinTablesHaveTiedRanks) {
  // The case the memo must get right: 216 pairs of tied INFless entries in
  // the built-in tables, 336 in fig11's dense configuration space.
  const auto apps = workload::builtin_applications();
  profile::ConfigSpaceOptions dense;
  dense.batches = {1, 2, 3, 4, 6, 8, 12, 16};
  EXPECT_GT(tied_pairs<InflessRank>(profile::ProfileSet::builtin(), apps), 0u);
  EXPECT_GT(tied_pairs<InflessRank>(profile::ProfileSet::builtin(dense), apps),
            0u);
}

TEST(StaticSliceMemo, MatchesAFreshSortOnBuiltinTables) {
  const profile::ProfileSet profiles = profile::ProfileSet::builtin();
  expect_memo_exact<InflessRank>(profiles);
  expect_memo_exact<FastGshareRank>(profiles);
}

TEST(StaticSliceMemo, MatchesAFreshSortOnFig11DenseSpace) {
  profile::ConfigSpaceOptions dense;
  dense.batches = {1, 2, 3, 4, 6, 8, 12, 16};
  const profile::ProfileSet profiles = profile::ProfileSet::builtin(dense);
  expect_memo_exact<InflessRank>(profiles);
  expect_memo_exact<FastGshareRank>(profiles);
}

TEST(StaticSliceMemo, RejectsAViewOfAnotherProfileSet) {
  const profile::ProfileSet profiles = profile::ProfileSet::builtin();
  const profile::ProfileSet other = profile::ProfileSet::builtin();
  const auto apps = workload::builtin_applications();
  InflessScheduler sched(apps, profiles);
  platform::QueueView view;
  view.app = apps[0].id();
  view.function = apps[0].node(0).function;
  view.dag = &apps[0];
  view.profiles = &other;
  view.queue_length = 4;
  view.slo_ms = 1000.0;
  EXPECT_THROW((void)sched.plan(view), std::logic_error);
}

}  // namespace
}  // namespace esg::baselines
