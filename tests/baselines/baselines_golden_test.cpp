// A golden digest of the four baselines' plan() and place() answers over a
// seeded corpus of queue views on the built-in apps and profiles. Every
// field a caller can observe is folded into one FNV-1a hash: the candidate
// configurations, the defer flag, the bit pattern of the charged overhead,
// the two Table 4 flags and the chosen invoker. Placement is folded as the
// controller asks for it: the shared warm step first, and place() only when
// that finds no warm container. The plan answers were pinned while INFless
// and FaST-GShare, and Orion and Aquatope, were still four separate
// implementations, so a change to a ranking, the static slice, the defer
// rule, the plan-following dispatch or either packing policy moves it.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "baselines/aquatope.hpp"
#include "baselines/fast_gshare.hpp"
#include "baselines/infless.hpp"
#include "baselines/orion.hpp"
#include "common/rng.hpp"
#include "platform/scheduler.hpp"
#include "support/fnv1a.hpp"
#include "workload/applications.hpp"

namespace esg::baselines {
namespace {

constexpr int kQueriesPerSetting = 1'500;
constexpr std::uint64_t kGoldenDigest = 0x90894f82ab970df7ull;

using test::Fnv1a;

struct Fixture {
  profile::ProfileSet profiles = profile::ProfileSet::builtin();
  std::vector<workload::AppDag> apps = workload::builtin_applications();
};

/// A random stage of a random built-in app. Half the queues hold 1-4 jobs,
/// short of most planned batches, and the rest 1-32. The head-of-queue wait
/// is 0, up to 2% of the SLO (where deferral happens) or up to 1.5x the
/// SLO; the oldest request is older still, by up to half the SLO.
platform::QueueView make_view(RngStream& rng, const Fixture& f,
                              workload::SloSetting slo) {
  const workload::AppDag& app = f.apps[rng.below(f.apps.size())];
  platform::QueueView view;
  view.app = app.id();
  view.stage = static_cast<workload::NodeIndex>(rng.below(app.size()));
  view.function = app.node(view.stage).function;
  view.dag = &app;
  view.profiles = &f.profiles;
  view.queue_length = 1 + rng.below(rng.chance(0.5) ? 4 : 32);
  view.slo_ms = workload::slo_latency_ms(app, f.profiles, slo);
  constexpr double kReach[] = {0.0, 0.02, 1.5};
  view.head_wait_ms = view.slo_ms * rng.uniform(0.0, kReach[rng.below(3)]);
  view.oldest_elapsed_ms =
      view.head_wait_ms + view.slo_ms * rng.uniform(0.0, 0.5);
  view.now_ms = view.oldest_elapsed_ms;
  return view;
}

/// Six invokers with random free capacity (some full), the view's function
/// warm on about a third of them.
cluster::Cluster make_cluster(RngStream& rng, FunctionId function) {
  cluster::Cluster cluster(6);
  for (auto& inv : cluster.invokers()) {
    inv.allocate(static_cast<std::uint16_t>(rng.below(17)),
                 static_cast<std::uint16_t>(rng.below(8)));
    if (rng.chance(0.35)) inv.add_warm(function, 0.0);
  }
  return cluster;
}

/// The dispatch the controller would place: the plan's first candidate,
/// with a predecessor for later stages and sometimes a retry's excluded
/// invoker.
platform::PlacementContext make_context(RngStream& rng,
                                        const platform::QueueView& view,
                                        const platform::PlanResult& plan) {
  platform::PlacementContext ctx;
  ctx.app = view.app;
  ctx.stage = view.stage;
  ctx.function = view.function;
  ctx.config =
      plan.candidates.empty() ? profile::kMinConfig : plan.candidates.front();
  const auto random_invoker = [&rng] {
    return InvokerId(static_cast<std::uint32_t>(rng.below(6)));
  };
  if (view.stage != view.dag->entry()) ctx.predecessor_invoker = random_invoker();
  ctx.home_invoker = random_invoker();
  if (rng.chance(0.25)) ctx.excluded_invoker = random_invoker();
  return ctx;
}

void fold(Fnv1a& digest, const platform::PlanResult& plan) {
  digest.add_u64(plan.candidates.size());
  for (const profile::Config& c : plan.candidates) {
    digest.add_u64(c.batch);
    digest.add_u64(c.vcpus);
    digest.add_u64(c.vgpus);
  }
  digest.add_u64(plan.defer ? 1 : 0);
  digest.add_f64(plan.overhead_ms);
  digest.add_u64(plan.used_preplanned ? 1 : 0);
  digest.add_u64(plan.preplanned_miss ? 1 : 0);
}

void fold(Fnv1a& digest, const std::optional<InvokerId>& placed) {
  digest.add_u64(placed.has_value() ? 1 + placed->get() : 0);
}

TEST(BaselinesGolden, CorpusDigestIsPinned) {
  const Fixture f;
  OrionScheduler::Options orion_options;
  orion_options.max_expansions = 20'000;
  AquatopeScheduler::Options aquatope_options;
  aquatope_options.bootstrap_samples = 20;
  aquatope_options.rounds = 4;
  aquatope_options.samples_per_round = 3;
  aquatope_options.ei_pool = 32;

  RngStream rng = RngFactory(17).stream("baselines-golden");
  Fnv1a digest;
  // Per scheduler, in the order of `schedulers` below.
  int deferred[4] = {};
  int dispatched[4] = {};
  int preplanned_hits = 0;
  int preplanned_misses = 0;
  int orion_refreshes = 0;
  for (const workload::SloSetting slo :
       {workload::SloSetting::kStrict, workload::SloSetting::kModerate,
        workload::SloSetting::kRelaxed}) {
    InflessScheduler infless(f.apps, f.profiles);
    FastGshareScheduler fast_gshare(f.apps, f.profiles);
    OrionScheduler orion(f.apps, f.profiles, orion_options);
    AquatopeScheduler aquatope(f.apps, f.profiles, slo, RngFactory(23),
                               aquatope_options);
    platform::Scheduler* const schedulers[] = {&infless, &fast_gshare, &orion,
                                               &aquatope};
    for (int i = 0; i < kQueriesPerSetting; ++i) {
      const platform::QueueView view = make_view(rng, f, slo);
      const cluster::Cluster cluster = make_cluster(rng, view.function);
      for (int k = 0; k < 4; ++k) {
        const platform::PlanResult plan = schedulers[k]->plan(view);
        fold(digest, plan);
        ++(plan.defer ? deferred[k] : dispatched[k]);
        if (plan.used_preplanned) {
          ++(plan.preplanned_miss ? preplanned_misses : preplanned_hits);
        }
        // The controller asks place() only when its warm step finds no
        // fitting warm container (DESIGN.md §4b), and so does the corpus.
        const platform::PlacementContext ctx = make_context(rng, view, plan);
        const auto warm = platform::warm_place(
            ctx, cluster, schedulers[k]->prefers_locality());
        fold(digest, warm);
        if (warm.has_value()) continue;
        const auto placed = schedulers[k]->place(ctx, cluster);
        fold(digest, placed);
        // Placing an entry-stage dispatch marks Orion's plan for refresh,
        // so its next entry plan runs the memoised search.
        if (k == 2 && view.stage == 0 && placed.has_value()) ++orion_refreshes;
      }
    }
    digest.add_u64(orion.total_expansions());
  }
  // The corpus must reach both defer outcomes on every scheduler, both
  // Table 4 outcomes and Orion's refresh, or the digest would pin less than
  // it claims to.
  for (int k = 0; k < 4; ++k) {
    EXPECT_GT(deferred[k], 40) << "scheduler " << k;
    EXPECT_GT(dispatched[k], 1'000) << "scheduler " << k;
  }
  EXPECT_GT(preplanned_hits, 500);
  EXPECT_GT(preplanned_misses, 500);
  EXPECT_GT(orion_refreshes, 100);
  EXPECT_EQ(digest.value(), kGoldenDigest)
      << "digest 0x" << std::hex << digest.value();
}

/// Sum of the profiled latencies of `configs` in stage order: the planned
/// latency both plan-ahead schedulers sum the same way.
TimeMs planned_latency(const Fixture& f, const workload::AppDag& app,
                       const std::vector<profile::Config>& configs) {
  TimeMs latency = 0.0;
  for (workload::NodeIndex s = 0; s < app.size(); ++s) {
    latency += f.profiles.table(app.node(s).function).at(configs.at(s)).latency_ms;
  }
  return latency;
}

void fold(Fnv1a& digest, const std::vector<profile::Config>& configs) {
  digest.add_u64(configs.size());
  for (const profile::Config& c : configs) {
    digest.add_u64(c.batch);
    digest.add_u64(c.vcpus);
    digest.add_u64(c.vgpus);
  }
}

// The corpus above shrinks both searches to keep it fast. This one runs them
// at their default Options, the sizes perfbench and the paper's benches run:
// Orion's full 150,000-expansion search of every built-in app under each SLO
// setting, and Aquatope's full training (100 bootstrap samples, 50 rounds of
// a 128-candidate EI pool) under each SLO setting and two seeds, plus one
// training whose pool of 37 is not a multiple of a small power of two. The
// digest was recorded before either search was optimised.
TEST(BaselinesGolden, FullSizeDigestIsPinned) {
  constexpr std::uint64_t kFullSizeDigest = 0x53254cd56522c86bull;
  const Fixture f;
  Fnv1a digest;
  const workload::SloSetting settings[] = {workload::SloSetting::kStrict,
                                           workload::SloSetting::kModerate,
                                           workload::SloSetting::kRelaxed};
  for (const workload::SloSetting slo : settings) {
    OrionScheduler orion(f.apps, f.profiles);
    for (const workload::AppDag& app : f.apps) {
      std::vector<profile::Config> configs;
      for (workload::NodeIndex s = 0; s < app.size(); ++s) {
        platform::QueueView view;
        view.app = app.id();
        view.stage = s;
        view.function = app.node(s).function;
        view.dag = &app;
        view.profiles = &f.profiles;
        view.queue_length = 64;  // never short of a planned batch
        view.slo_ms = workload::slo_latency_ms(app, f.profiles, slo);
        const platform::PlanResult plan = orion.plan(view);
        ASSERT_EQ(plan.candidates.size(), 1u);
        configs.push_back(plan.candidates.front());
        digest.add_f64(plan.overhead_ms);
      }
      fold(digest, configs);
      digest.add_f64(planned_latency(f, app, configs));
      digest.add_u64(orion.total_expansions());
    }
  }
  const auto fold_aquatope = [&](const AquatopeScheduler& aquatope) {
    for (const workload::AppDag& app : f.apps) {
      const std::vector<profile::Config>& configs = aquatope.learned(app.id());
      fold(digest, configs);
      digest.add_f64(planned_latency(f, app, configs));
    }
  };
  for (const workload::SloSetting slo : settings) {
    for (const std::uint64_t seed : {23u, 61u}) {
      fold_aquatope(AquatopeScheduler(f.apps, f.profiles, slo, RngFactory(seed)));
    }
  }
  AquatopeScheduler::Options odd_pool;
  odd_pool.ei_pool = 37;
  fold_aquatope(AquatopeScheduler(f.apps, f.profiles,
                                  workload::SloSetting::kModerate,
                                  RngFactory(23), odd_pool));
  EXPECT_EQ(digest.value(), kFullSizeDigest)
      << "digest 0x" << std::hex << digest.value();
}

}  // namespace
}  // namespace esg::baselines
