// The MQFQ-Sticky scheduling strategy (sixth SchedulerKind; DESIGN.md §12).
//
// Planning reuses ESG's pipeline-conscious machinery unchanged — dominator
// SLO distribution, ESG_1Q configuration search, adaptive budgets — because
// MQFQ-Sticky is a *fairness* layer, not a configuration planner. What it
// changes is placement and dispatch order:
//
//   - placement is sticky per flow: each tenant owns a weight-proportional
//     slice of the device ring (FairQueue), and place() puts the tenant's
//     new containers on the slice member with the most free resources,
//     spilling to ESG_Dispatch only when the slice is full. Warm reuse is
//     not the slice's: the controller reuses any fitting warm container,
//     fleet-wide, before it asks place() (DESIGN.md §4b);
//   - dispatch order and throttling live in the controller, which scans
//     queues in ascending flow virtual time and pauses flows more than T
//     ahead of the slowest active one (FairQueue::throttled).
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "core/esg_scheduler.hpp"
#include "platform/scheduler.hpp"
#include "tenant/fair_queue.hpp"

namespace esg::tenant {

class MqfqStickyScheduler : public platform::Scheduler {
 public:
  /// `fair_queue` must outlive the scheduler (it is owned by the run, shared
  /// with the controller's accounting hooks).
  MqfqStickyScheduler(const std::vector<workload::AppDag>& apps,
                      const profile::ProfileSet& profiles,
                      core::EsgScheduler::Options options,
                      const FairQueue* fair_queue)
      : inner_(apps, profiles, options), fair_queue_(fair_queue) {}

  [[nodiscard]] std::string_view name() const override { return "MQFQ-Sticky"; }

  platform::PlanResult plan(const platform::QueueView& view) override {
    return inner_.plan(view);
  }

  std::optional<InvokerId> place(const platform::PlacementContext& ctx,
                                 const cluster::Cluster& cluster) override;

  void on_request(RequestId request, AppId app, TimeMs now_ms) override {
    inner_.on_request(request, app, now_ms);
  }

  void on_stage_retry(AppId app, workload::NodeIndex stage,
                      TimeMs now_ms) override {
    inner_.on_stage_retry(app, stage, now_ms);
  }

  [[nodiscard]] std::vector<double> planned_stage_fractions(
      AppId app) const override {
    return inner_.planned_stage_fractions(app);
  }

 private:
  core::EsgScheduler inner_;
  const FairQueue* fair_queue_;
};

}  // namespace esg::tenant
