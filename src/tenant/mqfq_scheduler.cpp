#include "tenant/mqfq_scheduler.hpp"

namespace esg::tenant {

std::optional<InvokerId> MqfqStickyScheduler::place(
    const platform::PlacementContext& ctx, const cluster::Cluster& cluster) {
  const std::uint32_t t = ctx.tenant;
  // 1. The slice member with the most free resources, scanned from the
  //    slice's deterministic anchor.
  const std::size_t n = cluster.size();
  const std::size_t start = fair_queue_->sticky_home(t).get() % n;
  std::optional<InvokerId> best;
  int best_score = -1;
  for (std::size_t step = 0; step < n; ++step) {
    const InvokerId id(static_cast<std::uint32_t>((start + step) % n));
    if (!fair_queue_->sticky(t, id) || !platform::fits(ctx, cluster, id)) {
      continue;
    }
    const auto& inv = cluster.invoker(id);
    const int score = inv.free_vgpus() * 64 + inv.free_vcpus();
    if (score > best_score) {
      best_score = score;
      best = id;
    }
  }
  if (best.has_value()) return best;

  // 2. Slice full: spill through ESG_Dispatch over the whole fleet so the
  //    tenant is not starved by its own affinity.
  return inner_.place(ctx, cluster);
}

}  // namespace esg::tenant
