#include "prewarm/prewarm_manager.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "perf/layer_clock.hpp"

namespace esg::prewarm {

PrewarmManager::PrewarmManager(sim::Simulator& sim, cluster::Cluster& cluster,
                               const profile::ProfileSet& profiles,
                               double ewma_alpha)
    : sim_(sim), cluster_(cluster), profiles_(profiles), alpha_(ewma_alpha) {}

std::size_t PrewarmManager::target_pool(const Stream& stream) {
  std::size_t reactive = 0;
  if (stream.interval.initialized()) {
    const double interval = std::max(1.0, stream.interval.value());
    // Concurrency demand: tasks arriving every `interval` that each occupy a
    // container for `duration` need ~duration/interval simultaneous
    // containers; always keep at least one ready.
    const double concurrency =
        stream.duration.initialized() ? stream.duration.value() / interval : 0.0;
    reactive = static_cast<std::size_t>(
        std::clamp(std::ceil(concurrency), 1.0, 24.0));
  }
  // proactive_target is 0 unless a forecaster set a standing floor, so the
  // reactive-only result is untouched on forecast-free runs.
  return std::max(reactive, stream.proactive_target);
}

std::size_t PrewarmManager::warm_count(FunctionId function,
                                       TimeMs now_ms) const {
  std::size_t warm = 0;
  for (const auto& inv : cluster_.invokers()) {
    warm += inv.warm_count(function, now_ms);
  }
  return warm;
}

void PrewarmManager::on_invocation(AppId app, FunctionId function,
                                   InvokerId invoker, TimeMs now_ms,
                                   TimeMs duration_ms) {
  const perf::LayerScope layer(perf::Layer::kPrewarm);
  auto [it, inserted] = streams_.try_emplace(key(app, function), alpha_);
  Stream& stream = it->second;

  if (stream.last_invocation_ms != kNoTime && now_ms > stream.last_invocation_ms) {
    stream.interval.observe(now_ms - stream.last_invocation_ms);
  }
  stream.last_invocation_ms = now_ms;
  stream.last_invoker = invoker;
  if (duration_ms > 0.0) stream.duration.observe(duration_ms);

  if (!stream.interval.initialized()) return;

  const std::size_t target = target_pool(stream);
  const std::size_t warm = warm_count(function, now_ms);
  if (warm + stream.outstanding >= target) return;
  const std::size_t missing = target - warm - stream.outstanding;

  const TimeMs cold = profiles_.table(function).spec().cold_start_ms;
  const TimeMs predicted_next = now_ms + stream.interval.value();
  // Start warming so the container is ready at the predicted invocation.
  const TimeMs fire_at = std::max(now_ms, predicted_next - cold);
  schedule_warms(key(app, function), function, invoker, missing, fire_at);
}

void PrewarmManager::on_forecast_bin(TimeMs now_ms) {
  if (forecast_ == nullptr) return;
  const perf::LayerScope layer(perf::Layer::kPrewarm);
  const TimeMs lead = forecast_->spec().lead_ms;
  // Sorted keys: unordered_map iteration order must not leak into the event
  // schedule (the determinism contract).
  std::vector<std::uint64_t> keys;
  keys.reserve(streams_.size());
  for (const auto& [k, _] : streams_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());

  for (const std::uint64_t k : keys) {
    Stream& stream = streams_.at(k);
    // Without an occupancy estimate a rate cannot be turned into a
    // container count; the reactive path covers the stream's first touches.
    if (!stream.duration.initialized()) continue;
    const auto app = static_cast<std::uint32_t>(k >> 32);
    const FunctionId function(static_cast<std::uint32_t>(k & 0xffffffffu));
    const double rate = forecast_->predicted_rate(app, now_ms, lead);
    const double concurrency = rate * stream.duration.value() / 1000.0;
    stream.proactive_target = static_cast<std::size_t>(
        std::clamp(std::ceil(concurrency), 0.0, 24.0));
    if (stream.proactive_target == 0) continue;

    const std::size_t target = target_pool(stream);
    const std::size_t warm = warm_count(function, now_ms);
    if (warm + stream.outstanding >= target) continue;
    const std::size_t missing = target - warm - stream.outstanding;

    const TimeMs cold = profiles_.table(function).spec().cold_start_ms;
    // Warm so containers are ready when the forecast window opens: the ramp
    // is `lead` ahead, provisioning takes `cold`.
    const TimeMs fire_at = std::max(now_ms, now_ms + lead - cold);
    if (rec_ != nullptr && rec_->is_enabled()) {
      rec_->instant(obs::InstantKind::kForecastPrewarm, "forecast_prewarm",
                    obs::controller_track(), now_ms,
                    {{"app", std::to_string(app)},
                     {"function", std::to_string(function.get())},
                     {"target", std::to_string(target)},
                     {"warm", std::to_string(warm)},
                     {"missing", std::to_string(missing)}});
    }
    schedule_warms(k, function, stream.last_invoker, missing, fire_at);
  }
}

void PrewarmManager::schedule_warms(std::uint64_t k, FunctionId function,
                                    InvokerId anchor, std::size_t missing,
                                    TimeMs fire_at) {
  for (std::size_t i = 0; i < missing; ++i) {
    // Spread extra containers over neighbouring invokers: one node rarely
    // has capacity for a whole stream's peak concurrency. On an elastic
    // fleet the scan walks past draining/retired nodes to the next one
    // still taking placements (a dead-but-active node is NOT skipped: crash
    // windows drop the warm add on landing, same as before). On a static
    // fleet every node is Active, so the first probe always wins and the
    // choice is unchanged.
    InvokerId target(
        static_cast<std::uint32_t>((anchor.get() + i) % cluster_.size()));
    for (std::size_t probe = 0; probe < cluster_.size(); ++probe) {
      const InvokerId cand(static_cast<std::uint32_t>(
          (anchor.get() + i + probe) % cluster_.size()));
      if (cluster_.invoker(cand).state() == cluster::NodeState::kActive) {
        target = cand;
        break;
      }
    }
    auto stream_it = streams_.find(k);
    if (stream_it != streams_.end()) ++stream_it->second.outstanding;
    sim_.schedule_at(fire_at, [this, k, function, invoker = target] {
      const perf::LayerScope layer(perf::Layer::kPrewarm);
      auto inner_it = streams_.find(k);
      const std::size_t target_now = inner_it != streams_.end()
                                         ? target_pool(inner_it->second)
                                         : 1;
      const std::size_t warm_now = warm_count(function, sim_.now());
      if (warm_now >= target_now) {
        if (inner_it != streams_.end() && inner_it->second.outstanding > 0) {
          --inner_it->second.outstanding;
        }
        ++prewarms_skipped_;  // keep-alive containers already cover demand
        if (rec_ != nullptr && rec_->is_enabled()) {
          rec_->instant(obs::InstantKind::kPrewarmSkipped, "prewarm skipped",
                        obs::controller_track(), sim_.now(),
                        {{"function", std::to_string(function.get())},
                         {"warm", std::to_string(warm_now)},
                         {"target", std::to_string(target_now)}});
        }
        return;
      }
      const TimeMs ready_cold = profiles_.table(function).spec().cold_start_ms;
      ++prewarms_issued_;
      if (rec_ != nullptr && rec_->is_enabled()) {
        rec_->instant(obs::InstantKind::kPrewarmIssued, "prewarm issued",
                      obs::controller_track(), sim_.now(),
                      {{"function", std::to_string(function.get())},
                       {"invoker", std::to_string(invoker.get())},
                       {"warm", std::to_string(warm_now)},
                       {"target", std::to_string(target_now)}});
        rec_->span(obs::SpanKind::kPrewarm,
                   "prewarm f" + std::to_string(function.get()),
                   obs::invoker_track(invoker, obs::kProvisionLane), sim_.now(),
                   sim_.now() + ready_cold,
                   {{"function", std::to_string(function.get())}});
      }
      // The container becomes warm once the model-load time has elapsed.
      sim_.schedule_in(ready_cold, [this, k, function, invoker] {
        cluster_.invoker(invoker).add_warm(function, sim_.now());
        auto inner = streams_.find(k);
        if (inner != streams_.end() && inner->second.outstanding > 0) {
          --inner->second.outstanding;
        }
      });
    });
  }
}

}  // namespace esg::prewarm
