#include "baselines/aquatope.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "baselines/bo/gaussian_process.hpp"
#include "baselines/follow_plan.hpp"
#include "common/check.hpp"

namespace esg::baselines {

namespace {

constexpr double kTrainNoiseCv = 0.06;  ///< profiling-run noise

/// One candidate: a profile entry per stage. The GP sees its encoding.
using Candidate = std::vector<const profile::ProfileEntry*>;

struct EncodingScale {
  double max_batch = 1.0;
  double max_vcpus = 1.0;
  double max_vgpus = 1.0;
};

/// 3 dims per stage, each in [0, 1].
std::vector<double> encode(const Candidate& es, const EncodingScale& scale) {
  std::vector<double> x;
  x.reserve(es.size() * 3);
  for (const auto* e : es) {
    x.push_back(e->config.batch / scale.max_batch);
    x.push_back(e->config.vcpus / scale.max_vcpus);
    x.push_back(e->config.vgpus / scale.max_vgpus);
  }
  return x;
}

}  // namespace

AquatopeScheduler::AquatopeScheduler(const std::vector<workload::AppDag>& apps,
                                     const profile::ProfileSet& profiles,
                                     workload::SloSetting slo_setting,
                                     const RngFactory& rng, Options options)
    : options_(options) {
  for (const auto& app : apps) {
    const TimeMs slo = workload::slo_latency_ms(app, profiles, slo_setting);
    train(app, profiles, slo, rng.stream("aquatope-train", app.id().get()));
  }
}

void AquatopeScheduler::train(const workload::AppDag& app,
                              const profile::ProfileSet& profiles,
                              TimeMs slo_ms, RngStream rng) {
  const std::size_t stages = app.size();
  std::vector<const profile::ProfileTable*> tables;
  tables.reserve(stages);
  EncodingScale scale;
  Usd cost_scale = 0.0;
  for (workload::NodeIndex s = 0; s < stages; ++s) {
    const auto& t = profiles.table(app.node(s).function);
    tables.push_back(&t);
    for (const auto& e : t.entries()) {
      scale.max_batch = std::max<double>(scale.max_batch, e.config.batch);
      scale.max_vcpus = std::max<double>(scale.max_vcpus, e.config.vcpus);
      scale.max_vgpus = std::max<double>(scale.max_vgpus, e.config.vgpus);
    }
    cost_scale += t.min_per_job_cost();
  }
  check(cost_scale > 0.0, "Aquatope: zero cost scale");

  auto random_candidate = [&]() {
    Candidate c;
    c.reserve(stages);
    for (const auto* t : tables) {
      const auto entries = t->entries();
      c.push_back(&entries[rng.below(entries.size())]);
    }
    return c;
  };

  // One noisy profiling run of a candidate (the offline sample execution).
  auto profile_once = [&](const Candidate& c) {
    TimeMs e2e = 0.0;
    Usd cost = 0.0;
    for (const auto* e : c) {
      const double noise =
          std::max(0.3, rng.gaussian(1.0, kTrainNoiseCv));
      e2e += e->latency_ms * noise;
      cost += e->per_job_cost;
    }
    const double violation = std::max(0.0, (e2e - slo_ms) / slo_ms);
    return cost / cost_scale + options_.penalty * violation;
  };

  // The observed candidates, their encodings (the GP's inputs, which only
  // grow, so each fit factors just the new rows) and their scores.
  std::vector<Candidate> observed;
  std::vector<std::vector<double>> xs;
  std::vector<double> y;

  for (std::size_t i = 0; i < options_.bootstrap_samples; ++i) {
    observed.push_back(random_candidate());
    xs.push_back(encode(observed.back(), scale));
    y.push_back(profile_once(observed.back()));
  }

  bo::GaussianProcess gp;
  for (std::size_t round = 0; round < options_.rounds; ++round) {
    gp.fit(xs, y);

    const double best_y = *std::min_element(y.begin(), y.end());

    // Score a random pool by expected improvement; evaluate the best few.
    // The whole pool is drawn, then scored in one call, which draws no
    // random numbers.
    std::vector<Candidate> pool;
    std::vector<std::vector<double>> pool_xs;
    pool.reserve(options_.ei_pool);
    pool_xs.reserve(options_.ei_pool);
    for (std::size_t i = 0; i < options_.ei_pool; ++i) {
      pool.push_back(random_candidate());
      pool_xs.push_back(encode(pool.back(), scale));
    }
    const std::vector<double> ei = gp.expected_improvements(pool_xs, best_y);
    std::vector<std::size_t> order(pool.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return ei[a] > ei[b]; });
    const std::size_t take = std::min(options_.samples_per_round, pool.size());
    for (std::size_t i = 0; i < take; ++i) {
      observed.push_back(std::move(pool[order[i]]));
      xs.push_back(std::move(pool_xs[order[i]]));
      y.push_back(profile_once(observed.back()));
    }
  }

  // Deploy the best observed configuration.
  const std::size_t best =
      static_cast<std::size_t>(std::min_element(y.begin(), y.end()) - y.begin());
  std::vector<profile::Config> configs;
  TimeMs expected_latency = 0.0;
  configs.reserve(stages);
  for (const auto* e : observed[best]) {
    configs.push_back(e->config);
    expected_latency += e->latency_ms;
  }
  learned_[app.id()] = std::move(configs);
  planned_latency_[app.id()] = expected_latency;
}

const std::vector<profile::Config>& AquatopeScheduler::learned(AppId app) const {
  auto it = learned_.find(app);
  if (it == learned_.end()) {
    throw std::out_of_range("AquatopeScheduler: unknown app");
  }
  return it->second;
}

platform::PlanResult AquatopeScheduler::plan(const platform::QueueView& view) {
  // No overhead is charged: the model is pre-trained.
  return follow_plan(view, learned(view.app), planned_latency_.at(view.app),
                     0.0);
}

std::optional<InvokerId> AquatopeScheduler::place(
    const platform::PlacementContext& ctx, const cluster::Cluster& cluster) {
  // Section 4.2: all schedulers share the data-locality placement; only the
  // configuration algorithm differs.
  return platform::locality_first_place(ctx, cluster);
}

}  // namespace esg::baselines
