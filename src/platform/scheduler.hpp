// The scheduling-strategy interface. ESG and the four baselines implement
// this; the controller (and thus GPU sharing, batching, data locality and
// pre-warming) is identical for all of them, so experiments isolate the
// scheduling algorithm exactly as the paper does ("the only difference is
// the scheduling algorithm", Section 4.2).
//
// A strategy answers two questions:
//   plan():  which (batch, #vCPU, #vGPU) configurations should the jobs of
//            this AFW queue run with, in priority order (the configuration
//            priority queue of Section 3.1)?
//   place(): which invoker should host the chosen configuration?
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/types.hpp"
#include "profile/config.hpp"
#include "profile/profile_table.hpp"
#include "workload/dag.hpp"

namespace esg::platform {

/// Everything a strategy may inspect when planning one AFW queue.
struct QueueView {
  AppId app;
  workload::NodeIndex stage = 0;
  FunctionId function;
  const workload::AppDag* dag = nullptr;
  const profile::ProfileSet* profiles = nullptr;

  std::size_t queue_length = 0;     ///< jobs currently in the queue
  TimeMs head_wait_ms = 0.0;        ///< longest current queueing delay (w)
  TimeMs oldest_elapsed_ms = 0.0;   ///< max(now - request arrival) over queue
  TimeMs slo_ms = 0.0;              ///< end-to-end SLO latency of the app
  TimeMs now_ms = 0.0;
  /// Owning tenant of this queue (always 0 on single-tenant runs; only the
  /// fair-queueing strategies look at it).
  std::uint32_t tenant = 0;
  /// Forecast arrival rate of this queue's app (arrivals/second) over the
  /// next forecast window. Negative when no forecaster is attached —
  /// strategies must then behave exactly as before the forecast subsystem
  /// existed; 0 is a real prediction ("nothing is coming").
  double forecast_rate_per_s = -1.0;
};

struct PlanResult {
  /// Candidate configurations in decreasing priority; every batch must be
  /// <= queue_length. Empty + !defer means "nothing feasible" (the
  /// controller then falls back to the minimum configuration).
  std::vector<profile::Config> candidates;
  /// True to wait for more jobs to accumulate before dispatching.
  bool defer = false;
  /// Scheduling latency charged to the dispatch (deterministic model).
  TimeMs overhead_ms = 0.0;
  /// True when this dispatch consumed a configuration planned earlier
  /// (Orion/Aquatope); drives the Table 4 accounting.
  bool used_preplanned = false;
  /// True when the pre-planned configuration did not apply (batch larger
  /// than the queue) and had to be clamped.
  bool preplanned_miss = false;
  /// Renormalised latency budget this plan targeted for the remaining group
  /// stages (ESG's adaptive g_slo). 0 means the strategy plans no explicit
  /// budget; the controller traces non-zero values as kBudgetReplan instants
  /// for the SLO-attribution passes.
  TimeMs planned_budget_ms = 0.0;
};

/// Context for invoker selection.
struct PlacementContext {
  AppId app;
  workload::NodeIndex stage = 0;
  FunctionId function;
  profile::Config config;
  /// Invoker that produced most of this batch's inputs (invalid for entry).
  InvokerId predecessor_invoker;
  InvokerId home_invoker;
  /// Invoker a retried job must avoid (the one its last attempt failed on);
  /// invalid when the batch carries no retry. Strategies must not place
  /// here — the recovery policy assumes the node may still be unhealthy.
  InvokerId excluded_invoker;
  TimeMs now_ms = 0.0;
  /// Owning tenant of the dispatching queue (0 on single-tenant runs).
  std::uint32_t tenant = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Chooses configurations for the queue described by `view`.
  virtual PlanResult plan(const QueueView& view) = 0;

  /// Chooses an invoker able to fit ctx.config; std::nullopt if none fits.
  virtual std::optional<InvokerId> place(const PlacementContext& ctx,
                                         const cluster::Cluster& cluster) = 0;

  /// Notification of a new end-to-end request (plan-ahead schedulers hook
  /// this to fix per-stage configurations up front).
  virtual void on_request(RequestId request, AppId app, TimeMs now_ms) {
    (void)request;
    (void)app;
    (void)now_ms;
  }

  /// Notification that a task of (app, stage) failed and its jobs were
  /// re-enqueued. Strategies that adapt their noise margin or budgets under
  /// faults hook this; the default ignores it.
  virtual void on_stage_retry(AppId app, workload::NodeIndex stage,
                              TimeMs now_ms) {
    (void)app;
    (void)stage;
    (void)now_ms;
  }

  /// Per-DAG-node share of the end-to-end SLO this strategy plans with
  /// (index = NodeIndex; shares along any root-to-sink path sum to ~1).
  /// Empty means the strategy distributes no per-stage budgets — the
  /// attribution passes then fall back to a uniform split. ESG returns its
  /// dominator-based distribution (Section 3.3).
  [[nodiscard]] virtual std::vector<double> planned_stage_fractions(
      AppId app) const {
    (void)app;
    return {};
  }

  /// Whether warm-container selection should break ties towards the
  /// predecessor/home invoker (the paper's data-locality policy). INFless
  /// and FaST-GShare "do not follow the data locality policy but their
  /// resource fragmentation minimization policy" (Section 4.2).
  [[nodiscard]] virtual bool prefers_locality() const { return true; }
};

/// The batching-defer rule every strategy shares: a queue short of its
/// planned batch keeps waiting while the time it has waited (plus, for
/// ESG with a forecast, the time the batch needs to fill) is under half
/// the slack its plan leaves.
[[nodiscard]] inline bool may_defer(TimeMs waited_ms, TimeMs slack_ms) {
  return waited_ms < 0.5 * slack_ms;
}

/// The test every placement step applies: ctx.config fits invoker `id`, and
/// `id` is not the invoker a retried job must avoid (ctx.excluded_invoker).
[[nodiscard]] bool fits(const PlacementContext& ctx,
                        const cluster::Cluster& cluster, InvokerId id);

/// The one warm-reuse step (DESIGN.md §4b): a fitting invoker that holds a
/// warm container for ctx.function — with `local`, the predecessor's and
/// then the home invoker first — else the lowest-id fitting warm invoker
/// (Cluster::find_warm). std::nullopt when no warm container fits.
[[nodiscard]] std::optional<InvokerId> warm_place(
    const PlacementContext& ctx, const cluster::Cluster& cluster, bool local);

/// ESG_Dispatch (Section 3.4), the shared fallback placement of several
/// strategies and of the controller's forced-minimum dispatch: warm_place
/// with locality, then the predecessor's or home invoker cold, then the
/// cold invoker with the most free resources.
[[nodiscard]] std::optional<InvokerId> locality_first_place(
    const PlacementContext& ctx, const cluster::Cluster& cluster);

}  // namespace esg::platform
