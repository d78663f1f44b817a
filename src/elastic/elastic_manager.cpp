#include "elastic/elastic_manager.hpp"

#include <algorithm>
#include <string>

#include "common/check.hpp"
#include "common/spec_lex.hpp"

namespace esg::elastic {

ElasticManager::ElasticManager(sim::Simulator& sim, cluster::Cluster& cluster,
                               ElasticSpec spec, RngFactory rng,
                               std::size_t initial_nodes)
    : sim_(sim), cluster_(cluster), spec_(std::move(spec)), rng_(rng) {
  check(spec_.enabled(), "ElasticManager: spec has no policy");
  check(spec_.max_nodes == cluster_.size(),
        "ElasticManager: cluster size must equal the resolved max_nodes");
  check(initial_nodes >= 1 && initial_nodes <= cluster_.size(),
        "ElasticManager: initial fleet outside [1, max]");
  last_busy_.assign(cluster_.size(), 0.0);
  // Pre-run setup, not a lifecycle event: nodes beyond the initial fleet
  // start outside it (no trace output, nothing scheduled).
  for (std::size_t i = initial_nodes; i < cluster_.size(); ++i) {
    auto& inv = cluster_.invokers()[i];
    inv.begin_drain();
    inv.retire(0.0);
  }
  ensure_tick(0.0);
}

void ElasticManager::on_arrival(TimeMs now) {
  if (spec_.inert()) return;
  if (last_arrival_ms_ >= 0.0) {
    const TimeMs gap = now - last_arrival_ms_;
    ewma_gap_ms_ = ewma_gap_ms_ < 0.0
                       ? gap
                       : spec_.rate_alpha * gap +
                             (1.0 - spec_.rate_alpha) * ewma_gap_ms_;
  }
  last_arrival_ms_ = now;
  ensure_tick(now);
}

bool ElasticManager::could_still_act() const {
  if (cluster_.warming_count() + cluster_.draining_count() > 0) return true;
  if (spec_.idle_ms > 0.0 && cluster_.active_count() > spec_.min_nodes) {
    return true;
  }
  return queued_jobs() > 0;
}

void ElasticManager::ensure_tick(TimeMs now) {
  if (tick_scheduled_ || spec_.inert()) return;
  tick_scheduled_ = true;
  sim_.schedule_at(now + spec_.eval_ms, [this] { tick(sim_.now()); });
}

void ElasticManager::tick(TimeMs now) {
  tick_scheduled_ = false;
  evaluate(now);
  // Re-arm only while a decision is still possible; a permanently-armed
  // tick would keep the simulator (and the stats sampler) alive forever.
  if (could_still_act()) ensure_tick(now);
}

void ElasticManager::evaluate(TimeMs now) {
  if (spec_.inert()) return;
  retire_empty_draining(now);
  for (const auto& inv : cluster_.invokers()) {
    if (inv.used_vcpus() > 0 || inv.used_vgpus() > 0) {
      last_busy_[inv.id().get()] = now;
    }
  }
  scale_in(now);
  scale_out(now, cluster_.active_count() + cluster_.warming_count());
}

void ElasticManager::retire_empty_draining(TimeMs now) {
  for (auto& inv : cluster_.invokers()) {
    if (inv.state() != cluster::NodeState::kDraining) continue;
    if (inv.used_vcpus() > 0 || inv.used_vgpus() > 0) continue;
    inv.retire(now);
    if (auto* rec = traced(now)) {
      rec->instant(obs::InstantKind::kNodeRetired, "node_retired",
                   obs::controller_track(), now,
                   {{"invoker", std::to_string(inv.id().get())}});
    }
  }
}

void ElasticManager::scale_out(TimeMs now, std::size_t in_fleet) {
  if (in_fleet >= spec_.max_nodes) return;
  const std::size_t queued = queued_jobs();
  bool fire = false;
  if (in_fleet == 0) {
    // Scale-from-zero: any backlog must re-acquire capacity, whatever the
    // per-node threshold says (the per-node signal is undefined at zero).
    fire = queued > 0;
  } else if (spec_.policy == ElasticPolicy::kQueue) {
    fire = static_cast<double>(queued) >
           spec_.out_threshold * static_cast<double>(in_fleet);
  } else if (spec_.policy == ElasticPolicy::kForecast) {
    // Anticipatory: provision when the *predicted* demand provision-ms
    // ahead exceeds the per-node threshold, so the node activates right as
    // that demand lands instead of provision-ms after it shows up.
    if (forecast_rate_) {
      fire = forecast_rate_(now) >
             spec_.out_threshold * static_cast<double>(in_fleet);
    }
  } else {
    if (ewma_gap_ms_ > 0.0) {
      const double per_s = 1000.0 / ewma_gap_ms_;
      fire = per_s > spec_.out_threshold * static_cast<double>(in_fleet);
    }
  }
  if (!fire) return;

  std::size_t want = std::min(spec_.out_step, spec_.max_nodes - in_fleet);
  for (auto& inv : cluster_.invokers()) {
    if (want == 0) break;
    if (inv.state() != cluster::NodeState::kRetired) continue;
    inv.begin_warming();
    --want;
    const InvokerId id = inv.id();
    last_busy_[id.get()] = now;  // fresh nodes get a full idle window
    if (measured(now)) ++metrics_->scale_outs;
    if (auto* rec = traced(now)) {
      rec->instant(obs::InstantKind::kScaleOut, "scale_out",
                   obs::controller_track(), now,
                   {{"invoker", std::to_string(id.get())},
                    {"queued", std::to_string(queued)},
                    {"fleet", std::to_string(in_fleet)}});
    }
    sim_.schedule_at(now + spec_.provision_ms,
                     [this, id] { activate_node(id, sim_.now()); });
  }
}

void ElasticManager::activate_node(InvokerId id, TimeMs now) {
  auto& inv = cluster_.invoker(id);
  // A spot reclamation (or anything else) may have drained the node while
  // it was still warming; the stale activation must not resurrect it.
  if (inv.state() != cluster::NodeState::kWarming) return;
  inv.activate();
  last_busy_[id.get()] = now;
  if (auto* rec = traced(now)) {
    rec->instant(obs::InstantKind::kNodeActivated, "node_activated",
                 obs::controller_track(), now,
                 {{"invoker", std::to_string(id.get())}});
  }
  if (on_activate_) on_activate_(id);
}

void ElasticManager::scale_in(TimeMs now) {
  if (spec_.idle_ms <= 0.0) return;
  if (queued_jobs() > 0) return;  // demand exists; keep the fleet
  const std::size_t active = cluster_.active_count();
  std::size_t droppable =
      active > spec_.min_nodes ? active - spec_.min_nodes : 0;
  // Highest id first: the hash-based home invokers of a small fleet
  // concentrate on low ids, so high ids go idle first and come back last.
  for (std::size_t i = cluster_.size(); i-- > 0 && droppable > 0;) {
    auto& inv = cluster_.invokers()[i];
    if (inv.state() != cluster::NodeState::kActive) continue;
    if (!inv.alive()) continue;  // crash windows own dead nodes
    if (inv.used_vcpus() > 0 || inv.used_vgpus() > 0) continue;
    if (now - last_busy_[i] < spec_.idle_ms) continue;
    inv.begin_drain();
    if (on_drain_) on_drain_(inv.id());
    // Policy scale-in only picks idle nodes, so the drain completes
    // immediately; retire() releases the warm pool (WarmEnd::kDrained) and
    // asserts nothing leaked.
    inv.retire(now);
    --droppable;
    if (measured(now)) ++metrics_->scale_ins;
    if (auto* rec = traced(now)) {
      rec->instant(obs::InstantKind::kScaleIn, "scale_in",
                   obs::controller_track(), now,
                   {{"invoker", std::to_string(inv.id().get())},
                    {"idle_ms", lex::fmt_g(now - last_busy_[i])}});
      rec->instant(obs::InstantKind::kNodeRetired, "node_retired",
                   obs::controller_track(), now,
                   {{"invoker", std::to_string(inv.id().get())}});
    }
  }
}

}  // namespace esg::elastic
