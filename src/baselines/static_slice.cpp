#include "baselines/static_slice.hpp"

#include <algorithm>
#include <limits>

#include "baselines/fast_gshare.hpp"
#include "baselines/infless.hpp"

namespace esg::baselines {

template <typename Rank>
StaticSliceScheduler<Rank>::StaticSliceScheduler(
    const std::vector<workload::AppDag>& apps,
    const profile::ProfileSet& profiles, Options options)
    : options_(options) {
  for (const auto& app : apps) {
    splits_.emplace(app.id(), ServiceTimeSplit(app, profiles));
  }
}

template <typename Rank>
platform::PlanResult StaticSliceScheduler<Rank>::plan(
    const platform::QueueView& view) {
  // Static slice: no renormalisation against the elapsed time (the defining
  // limitation the paper calls out). Only the local queueing delay is
  // subtracted — the stage knows how long its own jobs waited.
  const TimeMs slice = std::max(
      1.0, view.slo_ms * splits_.at(view.app).node_fraction(view.stage) -
               view.head_wait_ms);
  const auto& table = view.profiles->table(view.function);

  // The table's entries that pass `keep`, best-ranked first.
  const auto ranked = [&table](auto keep) {
    std::vector<const profile::ProfileEntry*> list;
    for (const auto& e : table.entries()) {
      if (keep(e)) list.push_back(&e);
    }
    std::sort(list.begin(), list.end(), Rank{});
    return list;
  };
  platform::PlanResult plan;
  // Offers the first entries of `list` that the queue can fill.
  const auto offer = [&](const std::vector<const profile::ProfileEntry*>& list) {
    for (const auto* e : list) {
      if (e->config.batch > view.queue_length) continue;
      plan.candidates.push_back(e->config);
      if (plan.candidates.size() >= options_.candidates) break;
    }
  };

  const auto fitting = ranked(
      [slice](const profile::ProfileEntry& e) { return e.latency_ms <= slice; });
  if (fitting.empty()) {
    // Nothing meets the slice: keep the ranking without the latency
    // constraint and drain with the best configurations the queue can fill
    // (racing the absolute fastest config would hog vCPUs for a job that
    // misses its slice regardless).
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
