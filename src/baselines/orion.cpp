#include "baselines/orion.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "baselines/follow_plan.hpp"
#include "common/check.hpp"

namespace esg::baselines {

namespace {

/// A lattice state is one integer: 4 bits per axis index, each stage's
/// (batch, vCPU, vGPU) indices in turn, stage 0 in the top bits. Five stages
/// fill 60 bits, so apps are limited to kMaxStages stages and every axis to
/// fewer than 16 values.
using StateKey = std::uint64_t;
constexpr std::size_t kIndexBits = 4;
constexpr std::size_t kMaxStages = 5;
constexpr std::size_t kMaxAxisValues = 15;

/// Scheduling latency charged for a search (deterministic model).
constexpr core::OverheadModel kOverhead{};

/// Per-stage option axes: the distinct batch/vCPU/vGPU values present in the
/// stage's profile, ascending, and a dense (batch x vCPU x vGPU) grid of the
/// profile's entries over them, null where the profile lacks that config
/// (e.g. more vGPUs than batch).
struct StageAxes {
  std::array<std::vector<std::uint16_t>, 3> values;  // batch, vCPU, vGPU
  std::vector<const profile::ProfileEntry*> grid;
  std::array<unsigned, 3> shift{};  ///< each index's bit offset in the key

  [[nodiscard]] std::size_t index(StateKey key, int d) const {
    return (key >> shift[d]) & ((StateKey{1} << kIndexBits) - 1);
  }
  [[nodiscard]] std::size_t cell(std::size_t b, std::size_t c,
                                 std::size_t g) const {
    return (b * values[1].size() + c) * values[2].size() + g;
  }
  [[nodiscard]] const profile::ProfileEntry* entry(StateKey key) const {
    return grid[cell(index(key, 0), index(key, 1), index(key, 2))];
  }
};

/// The axes of every stage of `dag`. Throws std::invalid_argument for an app
/// whose states do not fit the key.
std::vector<StageAxes> make_axes(const workload::AppDag& dag,
                                 const profile::ProfileSet& profiles) {
  const std::size_t stages = dag.size();
  if (stages > kMaxStages) {
    throw std::invalid_argument("Orion: app '" + dag.name() +
                                "' has more than 5 stages");
  }
  std::vector<StageAxes> axes(stages);
  for (workload::NodeIndex s = 0; s < stages; ++s) {
    const profile::ProfileTable& table = profiles.table(dag.node(s).function);
    StageAxes& a = axes[s];
    std::array<std::set<std::uint16_t>, 3> distinct;
    for (const auto& e : table.entries()) {
      distinct[0].insert(e.config.batch);
      distinct[1].insert(e.config.vcpus);
      distinct[2].insert(e.config.vgpus);
    }
    for (int d = 0; d < 3; ++d) {
      if (distinct[d].size() > kMaxAxisValues) {
        throw std::invalid_argument("Orion: app '" + dag.name() +
                                    "' has a configuration axis of 16 or "
                                    "more values");
      }
      a.values[d].assign(distinct[d].begin(), distinct[d].end());
      a.shift[d] = static_cast<unsigned>(kIndexBits *
                                         (3 * (stages - 1 - s) + (2 - d)));
    }
    const auto position = [&a](int d, std::uint16_t v) {
      return static_cast<std::size_t>(
          std::lower_bound(a.values[d].begin(), a.values[d].end(), v) -
          a.values[d].begin());
    };
    a.grid.assign(a.values[0].size() * a.values[1].size() * a.values[2].size(),
                  nullptr);
    for (const auto& e : table.entries()) {
      a.grid[a.cell(position(0, e.config.batch), position(1, e.config.vcpus),
                    position(2, e.config.vgpus))] = &e;
    }
  }
  return axes;
}

/// The states the search has generated: open addressing with linear
/// probing, at most half full. No state key has all 64 bits set, so that
/// value marks an empty slot.
class SeenSet {
 public:
  /// Adds `key`; false if it was already present.
  bool insert(StateKey key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    for (std::size_t i = slot(key);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == key) return false;
      if (slots_[i] == kEmpty) {
        slots_[i] = key;
        ++size_;
        return true;
      }
    }
  }

 private:
  static constexpr StateKey kEmpty = ~StateKey{0};
  std::vector<StateKey> slots_ = std::vector<StateKey>(1u << 12, kEmpty);
  std::size_t size_ = 0;

  /// The MurmurHash3 finaliser spreads the packed indices over the table.
  [[nodiscard]] std::size_t slot(StateKey key) const {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdull;
    key ^= key >> 33;
    return static_cast<std::size_t>(key) & (slots_.size() - 1);
  }

  void grow() {
    const std::vector<StateKey> old = std::exchange(
        slots_, std::vector<StateKey>(slots_.size() * 2, kEmpty));
    size_ = 0;
    for (const StateKey key : old) {
      if (key != kEmpty) insert(key);
    }
  }
};

}  // namespace

OrionScheduler::OrionScheduler(const std::vector<workload::AppDag>& apps,
                               const profile::ProfileSet& profiles,
                               Options options)
    : options_(options) {
  for (const auto& app : apps) {
    (void)make_axes(app, profiles);  // rejects an app the key cannot hold
    plans_.emplace(app.id(), AppPlan{});
  }
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

  const std::vector<StageAxes> axes = make_axes(*view.dag, *view.profiles);
  const std::size_t stages = axes.size();

  // Evaluates a lattice state; invalid states (config filtered from the
  // profile) return no value. Stages are summed in order.
  auto evaluate = [&](StateKey state) -> std::optional<std::pair<TimeMs, Usd>> {
    TimeMs latency = 0.0;
    Usd cost = 0.0;
    for (const StageAxes& a : axes) {
      const profile::ProfileEntry* e = a.entry(state);
      if (e == nullptr) return std::nullopt;
      latency += e->latency_ms;
      cost += e->per_job_cost;
    }
    return std::make_pair(latency * kP95Factor, cost);
  };

  // An open-list entry holds only the priority and the state: P95 and cost
  // are evaluated again on pop, by the same expression, so to the same bits.
  // The heap's moves depend only on the comparisons of `f`, so the pop
  // order, ties included, does not depend on what else an entry carries.
  struct QueueEntry {
    double f;  ///< latency-gap + cost-weighted priority
    StateKey state;
    bool operator>(const QueueEntry& other) const { return f > other.f; }
  };

  // Best-first priority: close the P95 gap to the SLO first, cheaper states
  // tie-break ($1e-4 of per-job cost weighs like ~30 ms). With vGPUs and
  // batching in the lattice, pure cost ordering would drift into cheap
  // huge-batch states and away from the latency goal.
  const auto priority = [&](TimeMs p95, Usd cost) {
    return std::max(0.0, p95 - view.slo_ms) + cost * 3.0e5;
  };

  const StateKey start = 0;  // every stage at its minimum values
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> open;
  SeenSet seen;
  {
    const auto eval = evaluate(start);
    check(eval.has_value(), "Orion: minimum state must be valid");
    open.push(QueueEntry{priority(eval->first, eval->second), start});
    seen.insert(start);
  }

  std::size_t expanded = 0;
  StateKey best_state = start;
  TimeMs best_gap = std::numeric_limits<TimeMs>::infinity();
  Usd best_feasible_cost = std::numeric_limits<Usd>::infinity();
  bool goal_found = false;

  while (!open.empty() && expanded < options_.max_expansions) {
    const StateKey cur = open.top().state;
    open.pop();
    ++expanded;
    const auto [p95, cost] = *evaluate(cur);

    if (p95 <= view.slo_ms) {
      // Feasible: keep searching within the budget for a cheaper feasible
      // state (Orion minimises cost subject to the P95 goal — batching and
      // resource trimming pay off here, and those batched plans are what
      // later miss when queues run short, Table 4).
      if (cost < best_feasible_cost) {
        best_feasible_cost = cost;
        best_state = cur;
        goal_found = true;
      }
    } else if (!goal_found) {
      const TimeMs gap = p95 - view.slo_ms;
      if (gap < best_gap) {
        best_gap = gap;
        best_state = cur;
      }
    }

    // A successor increments one index: one stage's field of the key.
    for (const StageAxes& a : axes) {
      for (int d = 0; d < 3; ++d) {
        if (a.index(cur, d) + 1 >= a.values[d].size()) continue;
        const StateKey next = cur + (StateKey{1} << a.shift[d]);
        if (!seen.insert(next)) continue;
        const auto eval = evaluate(next);
        if (!eval.has_value()) continue;
        open.push(QueueEntry{priority(eval->first, eval->second), next});
      }
    }
  }
  // On cut-off without any feasible state, the closest-latency state is
  // used, as in the paper ("the configuration with the closest latency to
  // the SLO is returned").

  plan.configs.clear();
  plan.configs.reserve(stages);
  plan.planned_latency_ms = 0.0;
  for (const StageAxes& a : axes) {
    const profile::ProfileEntry& e = *a.entry(best_state);
    plan.configs.push_back(e.config);
    plan.planned_latency_ms += e.latency_ms;
  }
  plan.have_plan = true;
  plan.needs_refresh = false;
  plan.search_expansions = expanded;
  plan.search_overhead_ms =
      options_.charge_search_time ? kOverhead.overhead_ms(expanded) : 0.0;
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
