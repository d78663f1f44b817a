#include "platform/scheduler.hpp"

namespace esg::platform {

std::optional<InvokerId> locality_first_place(const PlacementContext& ctx,
                                              const cluster::Cluster& cluster) {
  const auto fits = [&](InvokerId id) {
    if (ctx.excluded_invoker.valid() && id == ctx.excluded_invoker) {
      return false;
    }
    return cluster.invoker(id).can_fit(ctx.config.vcpus, ctx.config.vgpus);
  };
  const auto warm = [&](InvokerId id) {
    return cluster.invoker(id).has_warm(ctx.function, ctx.now_ms);
  };

  // 1. Warm + local: the predecessor's invoker (data locality) for
  //    non-entry stages, the home invoker for entry stages.
  if (ctx.predecessor_invoker.valid() && fits(ctx.predecessor_invoker) &&
      warm(ctx.predecessor_invoker)) {
    return ctx.predecessor_invoker;
  }
  if (ctx.home_invoker.valid() && fits(ctx.home_invoker) &&
      warm(ctx.home_invoker)) {
    return ctx.home_invoker;
  }

  // 2. Any other invoker with a warm container for this function.
  for (const auto& inv : cluster.invokers()) {
    if (fits(inv.id()) && warm(inv.id())) return inv.id();
  }

  // 3. Cold, but local.
  if (ctx.predecessor_invoker.valid() && fits(ctx.predecessor_invoker)) {
    return ctx.predecessor_invoker;
  }
  if (ctx.home_invoker.valid() && fits(ctx.home_invoker)) {
    return ctx.home_invoker;
  }

  // 4. The cold invoker with the most available resources (vGPUs are the
  //    scarce dimension; vCPUs break ties).
  std::optional<InvokerId> best;
  int best_score = -1;
  for (const auto& inv : cluster.invokers()) {
    if (!fits(inv.id())) continue;
    const int score = inv.free_vgpus() * 64 + inv.free_vcpus();
    if (score > best_score) {
      best_score = score;
      best = inv.id();
    }
  }
  return best;
}

}  // namespace esg::platform
