// Aquatope baseline (Zhou et al., ASPLOS'23) as characterised in Section 4.2:
// Bayesian-optimisation scheduling trained offline. The training profiles the
// application in noisy sample executions — 100 bootstrap samples then 50
// rounds of 5 GP/expected-improvement-selected configurations — and learns
// one statically deployed configuration vector per application. Deployment
// never adapts: the configuration misses of Table 4 follow directly.
#pragma once

#include <unordered_map>

#include "common/rng.hpp"
#include "platform/scheduler.hpp"
#include "workload/applications.hpp"

namespace esg::baselines {

class AquatopeScheduler : public platform::Scheduler {
 public:
  struct Options {
    std::size_t bootstrap_samples = 100;  ///< initial random profilings
    std::size_t rounds = 50;              ///< BO rounds
    std::size_t samples_per_round = 5;    ///< configurations per round
    std::size_t ei_pool = 128;            ///< EI candidates scored per round
    double penalty = 10.0;                ///< SLO-violation penalty weight
  };

  /// Trains in the constructor (the offline phase). The SLO setting is part
  /// of the deployment contract, exactly as the paper trains per scenario.
  AquatopeScheduler(const std::vector<workload::AppDag>& apps,
                    const profile::ProfileSet& profiles,
                    workload::SloSetting slo_setting, const RngFactory& rng,
                    Options options);
  AquatopeScheduler(const std::vector<workload::AppDag>& apps,
                    const profile::ProfileSet& profiles,
                    workload::SloSetting slo_setting, const RngFactory& rng)
      : AquatopeScheduler(apps, profiles, slo_setting, rng, Options{}) {}

  [[nodiscard]] std::string_view name() const override { return "Aquatope"; }

  platform::PlanResult plan(const platform::QueueView& view) override;
  std::optional<InvokerId> place(const platform::PlacementContext& ctx,
                                 const cluster::Cluster& cluster) override;

  /// The learned configuration vector (tests / reporting).
  [[nodiscard]] const std::vector<profile::Config>& learned(AppId app) const;

 private:
  Options options_;
  std::unordered_map<AppId, std::vector<profile::Config>> learned_;
  std::unordered_map<AppId, TimeMs> planned_latency_;

  void train(const workload::AppDag& app, const profile::ProfileSet& profiles,
             TimeMs slo_ms, RngStream rng);
};

}  // namespace esg::baselines
