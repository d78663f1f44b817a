// Orion baseline (Mahgoub et al., OSDI'22) extended with vGPUs as described
// in Section 4.2: best-first search over the joint per-stage configuration
// vector (batch, #vCPU, #vGPU per stage). The start state holds the minimum
// values for every stage; each expansion increments one dimension of one
// stage. The goal is a predicted P95 end-to-end latency within the SLO; the
// search returns the configuration with the closest latency when it exceeds
// its cut-off budget. The whole application is planned at the invocation of
// its first stage and never adapted afterwards — the source of the
// configuration misses in Table 4.
#pragma once

#include <unordered_map>

#include "core/esg_1q.hpp"  // OverheadModel
#include "platform/scheduler.hpp"

namespace esg::baselines {

class OrionScheduler : public platform::Scheduler {
 public:
  struct Options {
    /// Search cut-off in expanded states (~65 ms charged under the
    /// deterministic overhead model of 0.2 ms + 0.43 us/state, of the same
    /// order as the paper's 100 ms cut-off ~= 232k states; Figure 9 sweeps
    /// the full range).
    std::size_t max_expansions = 150'000;
    /// Whether the search latency is charged to the dispatched tasks
    /// (the "search time counted" curve of Figure 9).
    bool charge_search_time = true;
  };

  /// Multiplier turning an expected latency into a predicted P95 (the
  /// paper's search goal) under the platform's Gaussian noise.
  static constexpr double kP95Factor = 1.12;

  /// Throws std::invalid_argument for an app of more than 5 stages, or with
  /// a stage whose profile has 16 or more values on one configuration axis:
  /// a search state packs 4 bits per axis index into 64 bits.
  OrionScheduler(const std::vector<workload::AppDag>& apps,
                 const profile::ProfileSet& profiles, Options options);
  OrionScheduler(const std::vector<workload::AppDag>& apps,
                 const profile::ProfileSet& profiles)
      : OrionScheduler(apps, profiles, Options{}) {}

  [[nodiscard]] std::string_view name() const override { return "Orion"; }

  platform::PlanResult plan(const platform::QueueView& view) override;
  std::optional<InvokerId> place(const platform::PlacementContext& ctx,
                                 const cluster::Cluster& cluster) override;

  /// Cumulative states expanded across all searches (overhead analyses).
  [[nodiscard]] std::size_t total_expansions() const { return total_expansions_; }

 private:
  struct AppPlan {
    std::vector<profile::Config> configs;  // one per stage
    TimeMs planned_latency_ms = 0.0;       ///< sum of the configs' latencies
    bool have_plan = false;
    bool needs_refresh = true;  ///< re-search at the next first-stage plan
    TimeMs search_overhead_ms = 0.0;
    std::size_t search_expansions = 0;
  };

  Options options_;
  std::unordered_map<AppId, AppPlan> plans_;
  std::size_t total_expansions_ = 0;

  /// Runs the best-first search for `view`'s whole application.
  void search(const platform::QueueView& view, AppPlan& plan);
};

}  // namespace esg::baselines
