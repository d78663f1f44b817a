#include "baselines/static_slice.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "baselines/fast_gshare.hpp"
#include "baselines/infless.hpp"
#include "common/check.hpp"

namespace esg::baselines {

template <typename Rank>
StaticSliceScheduler<Rank>::StaticSliceScheduler(
    const std::vector<workload::AppDag>& apps,
    const profile::ProfileSet& profiles, Options options)
    : options_(options), profiles_(&profiles) {
  for (const auto& app : apps) {
    splits_.emplace(app.id(), ServiceTimeSplit(app, profiles));
  }
}

template <typename Rank>
platform::PlanResult StaticSliceScheduler<Rank>::plan(
    const platform::QueueView& view) {
  check(view.profiles == profiles_,
        "StaticSliceScheduler::plan: the view names another ProfileSet");
  // Static slice: no renormalisation against the elapsed time (the defining
  // limitation the paper calls out). Only the local queueing delay is
  // subtracted — the stage knows how long its own jobs waited.
  const TimeMs slice = std::max(
      1.0, view.slo_ms * splits_.at(view.app).node_fraction(view.stage) -
               view.head_wait_ms);
  const auto& table = profiles_->table(view.function);
  const auto entries = table.entries();
  Rankings& memo = rankings_[view.function];
  if (memo.fitting.empty()) {
    memo.fitting.resize(entries.size() + 1);
    memo.draining.resize(entries.size() + 1);
  }

  // `list` as the table's entries that pass `keep`, best-ranked first,
  // filled on first use. Each memo slot holds one fixed set of entries,
  // always filtered in entries() order, so std::sort gets the input it got
  // when every call sorted afresh and orders ties the same way.
  const auto ranked = [&entries](Ranking& list, auto keep) -> const Ranking& {
    if (list.empty()) {
      for (const auto& e : entries) {
        if (keep(e)) list.push_back(&e);
      }
      std::sort(list.begin(), list.end(), Rank{});
    }
    return list;
  };
  platform::PlanResult plan;
  // Offers the first entries of `list` that the queue can fill.
  const auto offer = [&](const Ranking& list) {
    for (const auto* e : list) {
      if (e->config.batch > view.queue_length) continue;
      plan.candidates.push_back(e->config);
      if (plan.candidates.size() >= options_.candidates) break;
    }
  };

  // entries() is latency-sorted, so the k entries that meet the slice are
  // its first k.
  const auto fits = [slice](const profile::ProfileEntry& e) {
    return e.latency_ms <= slice;
  };
  const auto k = static_cast<std::size_t>(
      std::partition_point(entries.begin(), entries.end(), fits) -
      entries.begin());
  if (k == 0) {
    // Nothing meets the slice: keep the ranking without the latency
    // constraint and drain with the best configurations the queue can fill
    // (racing the absolute fastest config would hog vCPUs for a job that
    // misses its slice regardless). The entries the queue can fill are one
    // batch view, so their count names the set.
    const std::size_t fillable =
        view.queue_length == 0
            ? 0
            : table
                  .view(static_cast<std::uint16_t>(std::min<std::size_t>(
                      view.queue_length,
                      std::numeric_limits<std::uint16_t>::max())))
                  .entries.size();
    offer(ranked(memo.draining[fillable],
                 [&view](const profile::ProfileEntry& e) {
                   return e.config.batch <= view.queue_length;
                 }));
    if (plan.candidates.empty()) plan.candidates.push_back(profile::kMinConfig);
    return plan;
  }

  const Ranking& fitting = ranked(memo.fitting[k], fits);
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

template <typename Rank>
std::optional<InvokerId> StaticSliceScheduler<Rank>::place(
    const platform::PlacementContext& ctx, const cluster::Cluster& cluster) {
  std::optional<InvokerId> best;
  int best_score = std::numeric_limits<int>::max();
  for (const auto& inv : cluster.invokers()) {
    if (!inv.can_fit(ctx.config.vcpus, ctx.config.vgpus)) continue;
    const int leftover = (inv.free_vgpus() - ctx.config.vgpus) * 64 +
                         (inv.free_vcpus() - ctx.config.vcpus);
    if (leftover < best_score) {
      best_score = leftover;
      best = inv.id();
    }
  }
  return best;
}

template class StaticSliceScheduler<InflessRank>;
template class StaticSliceScheduler<FastGshareRank>;

}  // namespace esg::baselines
