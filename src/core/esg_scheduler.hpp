// The ESG scheduling strategy (Section 3): optimality-guided adaptive
// scheduling with sharable GPUs as a first-order factor.
//
//  - plan(): dominator-based SLO distribution assigns each function group a
//    share of the end-to-end SLO; ESG_1Q searches the group's configuration
//    space with dual-blade pruning under the *remaining* budget, so every
//    stage dispatch re-plans against the current system state (the paper's
//    key difference from Orion/Aquatope). The searches go through an exact
//    memo (SearchMemo): a repeated search returns the stored answer.
//  - place(): ESG_Dispatch — predecessor/home invoker first for data
//    locality, then warm invokers, then the emptiest cold invoker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/esg_1q.hpp"
#include "core/search_memo.hpp"
#include "core/slo_distribution.hpp"
#include "platform/scheduler.hpp"
#include "profile/profile_table.hpp"
#include "workload/dag.hpp"

namespace esg::core {

class EsgScheduler : public platform::Scheduler {
 public:
  struct Options {
    std::size_t k = 5;              ///< configPQ length (Section 5.4 default)
    std::size_t max_group_size = 3; ///< function-group cap (Section 5.4 default)
  };

  /// `apps` and `profiles` must outlive the scheduler. The SLO distribution
  /// of every app is computed once here (it depends only on the profiles).
  EsgScheduler(const std::vector<workload::AppDag>& apps,
               const profile::ProfileSet& profiles, Options options);
  EsgScheduler(const std::vector<workload::AppDag>& apps,
               const profile::ProfileSet& profiles)
      : EsgScheduler(apps, profiles, Options{}) {}

  [[nodiscard]] std::string_view name() const override { return "ESG"; }

  platform::PlanResult plan(const platform::QueueView& view) override;

  std::optional<InvokerId> place(const platform::PlacementContext& ctx,
                                 const cluster::Cluster& cluster) override;

  /// Dominator-based per-node SLO shares (Section 3.3), consumed by the
  /// controller's kBudgetPlan trace instants.
  [[nodiscard]] std::vector<double> planned_stage_fractions(
      AppId app) const override;

  /// Fault recovery feedback: each retry of one of the app's stages bumps a
  /// pressure counter that temporarily widens the noise margin (capped),
  /// so re-planned budgets leave room for another failure. The pressure
  /// halves on every subsequent plan — at zero it is bit-identical to the
  /// plain margin, keeping fault-free runs untouched.
  void on_stage_retry(AppId app, workload::NodeIndex stage,
                      TimeMs now_ms) override;

  [[nodiscard]] const SloDistribution& distribution(AppId app) const;
  [[nodiscard]] const Options& options() const { return options_; }

 private:
  const profile::ProfileSet& profiles_;
  Options options_;
  std::unordered_map<AppId, SloDistribution> distributions_;
  std::unordered_map<AppId, const workload::AppDag*> dags_;
  /// Per-app fault pressure (see on_stage_retry); absent = 0.
  std::unordered_map<AppId, double> retry_pressure_;
  /// Answers both of plan()'s searches, bit-identical to esg_1q.
  SearchMemo memo_;
  /// drain_candidates' lists, keyed by function, cap and flavour.
  std::unordered_map<std::uint64_t, std::vector<profile::Config>> drains_;

  /// The drain branch's candidates when no path meets the target: the K
  /// best-ranked configurations of `function` with batch <= `cap`, ranked
  /// by cost x latency while the request is `still_in_budget` and by cost
  /// among the c <= 4 ones otherwise. Built on first use per key; `cap` 0
  /// gives none.
  const std::vector<profile::Config>& drain_candidates(FunctionId function,
                                                       std::size_t cap,
                                                       bool still_in_budget);

  /// The functions of `view`'s group from the current stage onward.
  [[nodiscard]] std::vector<workload::NodeIndex> remaining_group_stages(
      const platform::QueueView& view) const;
};

}  // namespace esg::core
