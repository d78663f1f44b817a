// The static-slice baselines, INFless and FaST-GShare, as characterised in
// Section 4.2. Neither provides a way to distribute an application's SLO, so
// each stage gets a fixed slice of it by average service time
// (ServiceTimeSplit) and never learns about earlier delays. Both enumerate
// the stage's configurations, rank those that meet the slice by their own
// efficiency metric, wait for the top one's batch under the shared defer
// rule, and place new containers best-fit with no data locality ("their
// resource fragmentation minimization policy").
//
// They differ only in the ranking: `Rank` is a comparator over profile
// entries, true when its first argument ranks ahead, and `Rank::kName`
// names the scheduler. It is a template parameter so that the sorts in
// plan() call it inline.
//
// A profile table is latency-sorted, so the entries that meet a slice are
// its first k, and the entries a queue of length L can fill are those of
// one batch view. plan() therefore ranks each such list once, the first
// time it is needed, and keeps it (DESIGN.md §5).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "baselines/service_time_split.hpp"
#include "platform/scheduler.hpp"

namespace esg::baselines {

template <typename Rank>
class StaticSliceScheduler : public platform::Scheduler {
 public:
  struct Options {
    std::size_t candidates = 3;  ///< configurations offered per plan
  };

  /// `profiles` must outlive the scheduler: the rankings point into it, and
  /// plan() throws std::logic_error for a view that names another set.
  StaticSliceScheduler(const std::vector<workload::AppDag>& apps,
                       const profile::ProfileSet& profiles, Options options);
  StaticSliceScheduler(const std::vector<workload::AppDag>& apps,
                       const profile::ProfileSet& profiles)
      : StaticSliceScheduler(apps, profiles, Options{}) {}

  [[nodiscard]] std::string_view name() const override { return Rank::kName; }

  platform::PlanResult plan(const platform::QueueView& view) override;

  /// Best-fit packing: the invoker with the least capacity left after the
  /// placement, vGPUs weighted as the scarce resource. Unlike every other
  /// strategy it does not skip ctx.excluded_invoker.
  std::optional<InvokerId> place(const platform::PlacementContext& ctx,
                                 const cluster::Cluster& cluster) override;

  [[nodiscard]] bool prefers_locality() const override { return false; }

 private:
  using Ranking = std::vector<const profile::ProfileEntry*>;
  /// One function's rankings, each built on first use (empty until then):
  /// fitting[k] ranks the table's first k entries, draining[c] the c
  /// entries whose batch the queue can fill.
  struct Rankings {
    std::vector<Ranking> fitting;
    std::vector<Ranking> draining;
  };

  Options options_;
  const profile::ProfileSet* profiles_;
  std::unordered_map<AppId, ServiceTimeSplit> splits_;
  std::unordered_map<FunctionId, Rankings> rankings_;
};

}  // namespace esg::baselines
