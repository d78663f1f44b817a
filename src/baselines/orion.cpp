#include "baselines/orion.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <queue>
#include <set>
#include <stdexcept>
#include <unordered_set>

#include "baselines/follow_plan.hpp"
#include "common/check.hpp"

namespace esg::baselines {

namespace {

/// Per-stage option axes: the distinct batch/vCPU/vGPU values present in the
/// stage's profile, ascending. A lattice point maps back to a Config.
struct StageAxes {
  std::vector<std::uint16_t> batches;
  std::vector<std::uint16_t> vcpus;
  std::vector<std::uint16_t> vgpus;
  const profile::ProfileTable* table = nullptr;
};

StageAxes make_axes(const profile::ProfileTable& table) {
  StageAxes axes;
  axes.table = &table;
  std::set<std::uint16_t> b, c, g;
  for (const auto& e : table.entries()) {
    b.insert(e.config.batch);
    c.insert(e.config.vcpus);
    g.insert(e.config.vgpus);
  }
  axes.batches.assign(b.begin(), b.end());
  axes.vcpus.assign(c.begin(), c.end());
  axes.vgpus.assign(g.begin(), g.end());
  return axes;
}

struct LatticeState {
  // Per stage: indices into (batches, vcpus, vgpus).
  std::vector<std::array<std::uint8_t, 3>> idx;

  /// Packs the whole state into 4 bits per index (every axis in this repo
  /// has < 16 options and workflows have <= 5 stages: 60 bits).
  [[nodiscard]] std::uint64_t key() const {
    std::uint64_t k = 0;
    for (const auto& stage : idx) {
      for (int d = 0; d < 3; ++d) k = (k << 4) | (stage[d] & 0xf);
    }
    return k;
  }
};

}  // namespace

OrionScheduler::OrionScheduler(const std::vector<workload::AppDag>& apps,
                               const profile::ProfileSet& profiles,
                               Options options)
    : options_(options) {
  (void)profiles;
  for (const auto& app : apps) plans_.emplace(app.id(), AppPlan{});
}

void OrionScheduler::search(const platform::QueueView& view, AppPlan& plan) {
  // Orion re-plans per cohort, but its search is oblivious to the dynamic
  // system state (that rigidity is exactly what Table 4 measures), so the
  // result is identical every time: replay the memoised plan and charge the
  // same overhead rather than recomputing.
  if (plan.have_plan) {
    plan.needs_refresh = false;
    total_expansions_ += plan.search_expansions;
    return;
  }

  const auto& dag = *view.dag;
  const std::size_t stages = dag.size();

  std::vector<StageAxes> axes;
  axes.reserve(stages);
  for (workload::NodeIndex s = 0; s < stages; ++s) {
    axes.push_back(make_axes(view.profiles->table(dag.node(s).function)));
  }

  // Evaluates a lattice state; invalid states (config filtered from the
  // profile, e.g. more vGPUs than batch) return no value.
  auto evaluate = [&](const LatticeState& st)
      -> std::optional<std::pair<TimeMs, Usd>> {
    TimeMs latency = 0.0;
    Usd cost = 0.0;
    for (std::size_t s = 0; s < stages; ++s) {
      const profile::Config c{axes[s].batches[st.idx[s][0]],
                              axes[s].vcpus[st.idx[s][1]],
                              axes[s].vgpus[st.idx[s][2]]};
      if (!axes[s].table->contains(c)) return std::nullopt;
      const auto& e = axes[s].table->at(c);
      latency += e.latency_ms;
      cost += e.per_job_cost;
    }
    return std::make_pair(latency * options_.p95_factor, cost);
  };

  struct QueueEntry {
    double f;  ///< latency-gap + cost-weighted priority
    Usd cost;
    TimeMs p95;
    LatticeState state;
    bool operator>(const QueueEntry& other) const { return f > other.f; }
  };

  // Best-first priority: close the P95 gap to the SLO first, cheaper states
  // tie-break ($1e-4 of per-job cost weighs like ~30 ms). With vGPUs and
  // batching in the lattice, pure cost ordering would drift into cheap
  // huge-batch states and away from the latency goal.
  const auto priority = [&](TimeMs p95, Usd cost) {
    return std::max(0.0, p95 - view.slo_ms) + cost * 3.0e5;
  };

  LatticeState start;
  start.idx.assign(stages, {0, 0, 0});

  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> open;
  std::unordered_set<std::uint64_t> seen;
  {
    const auto eval = evaluate(start);
    check(eval.has_value(), "Orion: minimum state must be valid");
    open.push(QueueEntry{priority(eval->first, eval->second), eval->second,
                         eval->first, start});
    seen.insert(start.key());
  }

  std::size_t expanded = 0;
  LatticeState best_state = start;
  TimeMs best_gap = std::numeric_limits<TimeMs>::infinity();
  Usd best_feasible_cost = std::numeric_limits<Usd>::infinity();
  bool goal_found = false;

  while (!open.empty() && expanded < options_.max_expansions) {
    const QueueEntry cur = open.top();
    open.pop();
    ++expanded;

    if (cur.p95 <= view.slo_ms) {
      // Feasible: keep searching within the budget for a cheaper feasible
      // state (Orion minimises cost subject to the P95 goal — batching and
      // resource trimming pay off here, and those batched plans are what
      // later miss when queues run short, Table 4).
      if (cur.cost < best_feasible_cost) {
        best_feasible_cost = cur.cost;
        best_state = cur.state;
        goal_found = true;
      }
    } else if (!goal_found) {
      const TimeMs gap = cur.p95 - view.slo_ms;
      if (gap < best_gap) {
        best_gap = gap;
        best_state = cur.state;
      }
    }

    for (std::size_t s = 0; s < stages; ++s) {
      const std::array<std::size_t, 3> limits = {axes[s].batches.size(),
                                                 axes[s].vcpus.size(),
                                                 axes[s].vgpus.size()};
      for (int d = 0; d < 3; ++d) {
        if (cur.state.idx[s][d] + 1u >= limits[d]) continue;
        LatticeState next = cur.state;
        ++next.idx[s][d];
        if (!seen.insert(next.key()).second) continue;
        const auto eval = evaluate(next);
        if (!eval.has_value()) continue;
        open.push(QueueEntry{priority(eval->first, eval->second), eval->second,
                             eval->first, next});
      }
    }
  }
  // On cut-off without any feasible state, the closest-latency state is
  // used, as in the paper ("the configuration with the closest latency to
  // the SLO is returned").

  plan.configs.clear();
  plan.configs.reserve(stages);
  plan.planned_latency_ms = 0.0;
  for (std::size_t s = 0; s < stages; ++s) {
    const profile::Config c{axes[s].batches[best_state.idx[s][0]],
                            axes[s].vcpus[best_state.idx[s][1]],
                            axes[s].vgpus[best_state.idx[s][2]]};
    plan.configs.push_back(c);
    plan.planned_latency_ms += axes[s].table->at(c).latency_ms;
  }
  plan.have_plan = true;
  plan.needs_refresh = false;
  plan.search_expansions = expanded;
  plan.search_overhead_ms =
      options_.charge_search_time ? options_.overhead.overhead_ms(expanded) : 0.0;
  total_expansions_ += expanded;
}

platform::PlanResult OrionScheduler::plan(const platform::QueueView& view) {
  AppPlan& app_plan = plans_.at(view.app);
  if (view.stage == view.dag->entry()) {
    if (!app_plan.have_plan || app_plan.needs_refresh) {
      search(view, app_plan);
    }
  } else if (!app_plan.have_plan) {
    // A later stage before any entry-stage plan has nothing to follow.
    platform::PlanResult result;
    result.candidates.push_back(profile::kMinConfig);
    return result;
  }
  return follow_plan(view, app_plan.configs, app_plan.planned_latency_ms,
                     app_plan.search_overhead_ms);
}

std::optional<InvokerId> OrionScheduler::place(
    const platform::PlacementContext& ctx, const cluster::Cluster& cluster) {
  // Section 4.2: the comparison gives every scheduler the same data-locality
  // and pre-warming policy; only the configuration algorithm differs.
  const auto chosen = platform::locality_first_place(ctx, cluster);
  if (chosen.has_value() && ctx.stage == 0) {
    // The cohort is being dispatched: the next first-stage plan re-searches.
    plans_.at(ctx.app).needs_refresh = true;
  }
  return chosen;
}

}  // namespace esg::baselines
