#include "core/esg_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "cluster/data_transfer.hpp"
#include "common/check.hpp"

namespace esg::core {

namespace {

/// Floor for the remaining budget so a late request still gets a sane
/// (fastest-path) search instead of a degenerate zero target.
constexpr TimeMs kMinBudgetMs = 1.0;

/// Scheduling latency charged for a search (deterministic model).
constexpr OverheadModel kOverhead{};

/// Headroom reserved for execution-time variation: the search targets
/// (1 - kNoiseMargin) of the distributed budget so that a noisy run still
/// lands under the SLO.
constexpr double kNoiseMargin = 0.08;

}  // namespace

EsgScheduler::EsgScheduler(const std::vector<workload::AppDag>& apps,
                           const profile::ProfileSet& profiles, Options options)
    : profiles_(profiles), options_(options) {
  if (options_.k == 0) throw std::invalid_argument("EsgScheduler: k must be > 0");
  for (const auto& app : apps) {
    dags_.emplace(app.id(), &app);
    distributions_.emplace(
        app.id(), SloDistribution(app, profiles, options_.max_group_size));
  }
}

const SloDistribution& EsgScheduler::distribution(AppId app) const {
  auto it = distributions_.find(app);
  if (it == distributions_.end()) {
    throw std::out_of_range("EsgScheduler: unknown app");
  }
  return it->second;
}

std::vector<workload::NodeIndex> EsgScheduler::remaining_group_stages(
    const platform::QueueView& view) const {
  const SloDistribution& dist = distribution(view.app);
  const auto& group = dist.groups()[dist.group_of(view.stage)];
  const auto pos = std::find(group.nodes.begin(), group.nodes.end(), view.stage);
  check(pos != group.nodes.end(), "stage missing from its own group");
  return {pos, group.nodes.end()};
}

platform::PlanResult EsgScheduler::plan(const platform::QueueView& view) {
  check(view.dag != nullptr && view.profiles != nullptr, "plan: null view");
  const SloDistribution& dist = distribution(view.app);
  const auto stages_idx = remaining_group_stages(view);

  // Budget renormalisation (the adaptive step): whatever is left of the
  // end-to-end SLO is split between this group's remaining stages and the
  // rest of the workflow in proportion to their distributed shares.
  const TimeMs budget =
      std::max(kMinBudgetMs, view.slo_ms - view.oldest_elapsed_ms);
  double group_share = 0.0;
  TimeMs transfer_est = 0.0;
  for (workload::NodeIndex s : stages_idx) {
    group_share += dist.node_fraction(s);
    const auto& spec = profiles_.table(view.dag->node(s).function).spec();
    // Budget for input staging, with the model the controller stages by:
    // the entry stage fetches from the ingress store; later stages should
    // hit the local file system under ESG_Dispatch's locality policy.
    transfer_est += cluster::kDataTransfer.transfer_ms(spec.input_mb,
                                                       s != view.dag->entry());
  }
  const double remaining_share = dist.remaining_fraction(view.stage);
  check(remaining_share > 0.0, "plan: zero remaining share");
  const TimeMs raw_target =
      budget * std::min(1.0, group_share / remaining_share) - transfer_est;
  // Fault pressure widens the margin (capped) so a re-planned stage leaves
  // headroom for another failed attempt; it halves on each plan so a burst
  // does not permanently pessimise the app. At zero pressure the expression
  // is bit-identical to the plain margin (x * 1.0 == x).
  double pressure = 0.0;
  if (auto pit = retry_pressure_.find(view.app); pit != retry_pressure_.end()) {
    pressure = pit->second;
    pit->second *= 0.5;
  }
  const double margin = std::min(0.5, kNoiseMargin * (1.0 + pressure));
  const TimeMs margined_target = raw_target * (1.0 - margin);

  // Three regimes: optimise with full safety margin when it is affordable;
  // drop the noise margin and race when only the raw budget fits (a noisy
  // run may still land under the SLO); nothing else can meet the SLO.
  TimeMs fastest_sum = 0.0;
  for (workload::NodeIndex s : stages_idx) {
    fastest_sum += profiles_.table(view.dag->node(s).function).min_latency();
  }
  // (If even the raw target is below the fastest sum, the search comes back
  // empty and the drain fallback below takes over.)
  const TimeMs g_slo = margined_target > fastest_sum
                           ? margined_target
                           : std::max(kMinBudgetMs, raw_target);

  std::vector<StageInput> stages;
  stages.reserve(stages_idx.size());
  for (workload::NodeIndex s : stages_idx) {
    StageInput in;
    in.table = &profiles_.table(view.dag->node(s).function);
    in.batch_cap = 0;  // first pass: unconstrained (would waiting pay off?)
    stages.push_back(in);
  }

  SearchOptions search_options;
  search_options.k = options_.k;

  // Pass 1 — unconstrained batch: reveals the batch the group *wants*.
  SearchResult unconstrained = memo_.search(stages, g_slo, search_options);
  std::size_t nodes = unconstrained.stats.nodes_expanded;

  platform::PlanResult plan;
  plan.planned_budget_ms = g_slo;
  const auto& want = unconstrained.config_pq.front();
  const std::uint16_t desired_batch = want.entries.front().config.batch;

  if (unconstrained.met_slo && desired_batch > view.queue_length) {
    // A larger batch would be cheaper and still meet the target. Wait for it
    // under the shared defer rule; the head-of-queue wait already consumed
    // part of the slack.
    const TimeMs slack = std::max(0.0, g_slo - want.total_latency_ms);
    bool defer_ok = platform::may_defer(view.head_wait_ms, slack);
    if (defer_ok && view.forecast_rate_per_s >= 0.0) {
      // Foresight: deferring only pays if the missing batch-mates actually
      // arrive inside the slack. At the forecast rate the gap takes fill_ms
      // to close — when that blows the defer window (in particular when the
      // forecast says nothing is coming), dispatch now instead of waiting
      // for a batch that will not form.
      const double missing = static_cast<double>(desired_batch) -
                             static_cast<double>(view.queue_length);
      const TimeMs fill_ms =
          view.forecast_rate_per_s > 0.0
              ? 1000.0 * missing / view.forecast_rate_per_s
              : kNoTime;
      defer_ok = platform::may_defer(view.head_wait_ms + fill_ms, slack);
    }
    if (defer_ok) {
      plan.defer = true;
      plan.overhead_ms = kOverhead.overhead_ms(nodes);
      return plan;
    }
  }

  // Budget already blown (no path can meet the target): racing the fastest
  // configuration would burn 8 vCPUs per task for a request that misses
  // anyway and starve everyone else's placements. Drain cost-efficiently
  // instead: the cheapest per-job configurations of the current stage.
  if (!unconstrained.met_slo) {
    // A request that still has end-to-end budget and a shallow queue (the
    // target was merely unreachable after margins, not a backlog symptom)
    // races lean; see drain_candidates for both flavours.
    const bool still_in_budget = view.oldest_elapsed_ms < view.slo_ms &&
                                 view.head_wait_ms < 0.25 * view.slo_ms;
    // Batch cap 8: beyond that the marginal per-job saving is small while
    // the task latency (which delays every successor stage) keeps growing.
    plan.candidates = drain_candidates(
        view.function, std::min<std::size_t>(view.queue_length, 8), still_in_budget);
    plan.overhead_ms = kOverhead.overhead_ms(nodes);
    return plan;
  }

  // Pass 2 — restrict the dispatching stage to the jobs actually queued.
  SearchResult result;
  if (desired_batch <= view.queue_length) {
    result = std::move(unconstrained);
  } else {
    stages.front().batch_cap =
        static_cast<std::uint16_t>(std::min<std::size_t>(view.queue_length, 0xffff));
    result = memo_.search(stages, g_slo, search_options);
    nodes += result.stats.nodes_expanded;
  }

  // The configPQ: the first-stage configuration of each of the K cheapest
  // paths, deduplicated, cheapest path first.
  for (const SearchPath& path : result.config_pq) {
    const profile::Config c = path.entries.front().config;
    if (c.batch > view.queue_length) continue;
    if (std::find(plan.candidates.begin(), plan.candidates.end(), c) ==
        plan.candidates.end()) {
      plan.candidates.push_back(c);
    }
  }
  plan.overhead_ms = kOverhead.overhead_ms(nodes);
  return plan;
}

const std::vector<profile::Config>& EsgScheduler::drain_candidates(
    FunctionId function, std::size_t cap, bool still_in_budget) {
  const std::uint64_t key = (std::uint64_t{function.get()} << 32) | (cap << 1) |
                            (still_in_budget ? 1u : 0u);
  const auto [slot, fresh] = drains_.try_emplace(key);
  std::vector<profile::Config>& candidates = slot->second;
  // An empty queue drains nothing; view(0) would be the whole table.
  if (!fresh || cap == 0) return candidates;
  const auto admissible =
      profiles_.table(function).view(static_cast<std::uint16_t>(cap)).entries;
  std::vector<profile::ProfileEntry> drain(admissible.begin(), admissible.end());
  // Two drain flavours. In budget, cost x latency keeps the drain brisk and
  // the request may still land under the SLO. Under backlog, or once the
  // request has missed anyway, maximise throughput per dollar so it stops
  // taxing everyone else; those drains also stay CPU-lean (c <= 4), vCPUs
  // being the cluster's scarcest aggregate resource under backlog.
  if (!still_in_budget) {
    std::erase_if(drain, [](const profile::ProfileEntry& e) {
      return e.config.vcpus > 4;
    });
  }
  // The same input every time, so std::sort orders ties as it did when
  // every plan() sorted afresh.
  std::sort(drain.begin(), drain.end(),
            [still_in_budget](const profile::ProfileEntry& a,
                              const profile::ProfileEntry& b) {
              const double pa =
                  still_in_budget ? a.per_job_cost * a.latency_ms : a.per_job_cost;
              const double pb =
                  still_in_budget ? b.per_job_cost * b.latency_ms : b.per_job_cost;
              if (pa != pb) return pa < pb;
              return a.latency_ms < b.latency_ms;
            });
  for (const auto& e : drain) {
    candidates.push_back(e.config);
    if (candidates.size() >= options_.k) break;
  }
  return candidates;
}

std::vector<double> EsgScheduler::planned_stage_fractions(AppId app) const {
  const SloDistribution& dist = distribution(app);
  const auto dag_it = dags_.find(app);
  check(dag_it != dags_.end(), "planned_stage_fractions: unknown app");
  std::vector<double> fractions(dag_it->second->size(), 0.0);
  for (workload::NodeIndex node = 0; node < fractions.size(); ++node) {
    fractions[node] = dist.node_fraction(node);
  }
  return fractions;
}

void EsgScheduler::on_stage_retry(AppId app, workload::NodeIndex stage,
                                  TimeMs now_ms) {
  (void)stage;
  (void)now_ms;
  double& pressure = retry_pressure_[app];
  pressure = std::min(4.0, pressure + 1.0);
}

std::optional<InvokerId> EsgScheduler::place(const platform::PlacementContext& ctx,
                                             const cluster::Cluster& cluster) {
  return platform::locality_first_place(ctx, cluster);
}

}  // namespace esg::core
