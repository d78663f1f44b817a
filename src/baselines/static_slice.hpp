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
  Options options_;
  std::unordered_map<AppId, ServiceTimeSplit> splits_;
};

}  // namespace esg::baselines
