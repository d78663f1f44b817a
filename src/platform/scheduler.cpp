#include "platform/scheduler.hpp"

namespace esg::platform {

bool fits(const PlacementContext& ctx, const cluster::Cluster& cluster,
          InvokerId id) {
  if (ctx.excluded_invoker.valid() && id == ctx.excluded_invoker) return false;
  return cluster.invoker(id).can_fit(ctx.config.vcpus, ctx.config.vgpus);
}

std::optional<InvokerId> warm_place(const PlacementContext& ctx,
                                    const cluster::Cluster& cluster,
                                    bool local) {
  const auto fits_here = [&](InvokerId id) { return fits(ctx, cluster, id); };
  // Warm + local: the predecessor's invoker (data locality) for non-entry
  // stages, the home invoker for entry stages.
  if (local) {
    for (const InvokerId id : {ctx.predecessor_invoker, ctx.home_invoker}) {
      if (id.valid() && fits_here(id) &&
          cluster.invoker(id).has_warm(ctx.function, ctx.now_ms)) {
        return id;
      }
    }
  }
  // Any other invoker with a warm container for this function.
  return cluster.find_warm(ctx.function, ctx.now_ms, fits_here);
}

std::optional<InvokerId> locality_first_place(const PlacementContext& ctx,
                                              const cluster::Cluster& cluster) {
  // 1. Local: the predecessor's invoker, then the home invoker.
  for (const InvokerId id : {ctx.predecessor_invoker, ctx.home_invoker}) {
    if (id.valid() && fits(ctx, cluster, id)) return id;
  }

  // 2. The invoker with the most available resources (vGPUs are the scarce
  //    dimension; vCPUs break ties).
  std::optional<InvokerId> best;
  int best_score = -1;
  for (const auto& inv : cluster.invokers()) {
    if (!fits(ctx, cluster, inv.id())) continue;
    const int score = inv.free_vgpus() * 64 + inv.free_vcpus();
    if (score > best_score) {
      best_score = score;
      best = inv.id();
    }
  }
  return best;
}

}  // namespace esg::platform
