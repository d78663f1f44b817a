// Plan-following dispatch, shared by the two plan-ahead baselines, Orion
// and Aquatope. Both fix every stage's configuration before a request runs
// and never adapt it to the queue a later stage meets: the configuration
// misses of Table 4.
#pragma once

#include <vector>

#include "platform/scheduler.hpp"

namespace esg::baselines {

/// Dispatches `view`'s queue with `configs`, one planned configuration per
/// stage. The entry stage waits for its planned batch under the shared
/// defer rule while `slo - planned_latency_ms` leaves slack, and is charged
/// `entry_overhead_ms` either way. Later stages reuse the plan and report a
/// miss when the queue is shorter than the planned batch; the controller
/// clamps the batch.
[[nodiscard]] platform::PlanResult follow_plan(
    const platform::QueueView& view, const std::vector<profile::Config>& configs,
    TimeMs planned_latency_ms, TimeMs entry_overhead_ms);

}  // namespace esg::baselines
