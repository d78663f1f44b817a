#include "baselines/follow_plan.hpp"

#include <algorithm>

namespace esg::baselines {

platform::PlanResult follow_plan(const platform::QueueView& view,
                                 const std::vector<profile::Config>& configs,
                                 TimeMs planned_latency_ms,
                                 TimeMs entry_overhead_ms) {
  platform::PlanResult result;
  const profile::Config planned = configs.at(view.stage);
  if (view.stage != view.dag->entry()) {
    result.used_preplanned = true;
    result.preplanned_miss = planned.batch > view.queue_length;
    result.candidates.push_back(planned);
    return result;
  }
  result.overhead_ms = entry_overhead_ms;
  if (planned.batch > view.queue_length &&
      platform::may_defer(view.head_wait_ms,
                          std::max(0.0, view.slo_ms - planned_latency_ms))) {
    result.defer = true;
    return result;
  }
  result.candidates.push_back(planned);
  return result;
}

}  // namespace esg::baselines
