// Lightweight pre-warming (Section 4): an EWMA over the inter-invocation
// intervals of each (application, function) stream predicts the next
// invocation, and containers are warmed on the stream's last invoker so they
// are ready right when the prediction fires. The number of containers kept
// warm adapts to the stream's concurrency demand — the ratio of the task
// duration EWMA to the interval EWMA — so bursty streams that need several
// simultaneous containers do not fall back to cold starts. After
// pre-warming, containers follow the ordinary keep-alive policy.
//
// Proactive mode (DESIGN.md §14): with a ForecastService attached, every
// closed forecast bin re-derives each stream's warm target from the app's
// *predicted* arrival rate `lead-ms` ahead (concurrency = rate x duration)
// instead of waiting for per-stream intervals to observe the ramp. Both
// paths share the warm-scheduling machinery and the issued/skipped
// accounting; without a forecaster the reactive behaviour is bit-identical
// to before.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "cluster/cluster.hpp"
#include "common/ewma.hpp"
#include "common/types.hpp"
#include "forecast/forecaster.hpp"
#include "obs/recorder.hpp"
#include "profile/profile_table.hpp"
#include "sim/simulator.hpp"

namespace esg::prewarm {

class PrewarmManager {
 public:
  PrewarmManager(sim::Simulator& sim, cluster::Cluster& cluster,
                 const profile::ProfileSet& profiles, double ewma_alpha = 0.3);

  /// Notifies the manager that `function` of `app` was just invoked on
  /// `invoker` with an expected occupancy of `duration_ms`. Updates the
  /// interval/duration estimates and, once ready, schedules warm-ups so
  /// enough containers are live at the predicted next invocations.
  void on_invocation(AppId app, FunctionId function, InvokerId invoker,
                     TimeMs now_ms, TimeMs duration_ms);

  /// Backward-compatible overload without a duration estimate.
  void on_invocation(AppId app, FunctionId function, InvokerId invoker,
                     TimeMs now_ms) {
    on_invocation(app, function, invoker, now_ms, 0.0);
  }

  /// Attaches the forecaster driving proactive mode (non-owning; nullptr
  /// keeps the manager purely reactive).
  void enable_proactive(forecast::ForecastService* service) {
    forecast_ = service;
  }
  /// Forecast-bin hook: re-derives per-stream warm targets from the
  /// predicted per-app rates `lead-ms` ahead and warms the gap.
  void on_forecast_bin(TimeMs now_ms);

  [[nodiscard]] std::size_t prewarms_issued() const { return prewarms_issued_; }
  [[nodiscard]] std::size_t prewarms_skipped() const { return prewarms_skipped_; }

  /// Structured-tracing handle (non-owning; nullptr disables).
  void set_trace(obs::TraceRecorder* recorder) { rec_ = recorder; }

 private:
  struct Stream {
    Ewma interval;
    Ewma duration;
    TimeMs last_invocation_ms = kNoTime;
    std::size_t outstanding = 0;  ///< prewarms scheduled but not yet resolved
    InvokerId last_invoker;       ///< anchor for proactive placement
    std::size_t proactive_target = 0;  ///< forecast-derived floor (0 = none)
    explicit Stream(double alpha) : interval(alpha), duration(alpha) {}
  };

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  const profile::ProfileSet& profiles_;
  double alpha_;
  std::unordered_map<std::uint64_t, Stream> streams_;
  std::size_t prewarms_issued_ = 0;
  std::size_t prewarms_skipped_ = 0;
  obs::TraceRecorder* rec_ = nullptr;
  forecast::ForecastService* forecast_ = nullptr;

  /// Warm containers this stream wants available simultaneously: the
  /// reactive (interval/duration EWMA) demand, floored by the proactive
  /// forecast target while one is standing.
  [[nodiscard]] static std::size_t target_pool(const Stream& stream);

  /// Schedules `missing` warm-ups of `function` at `fire_at`, spread over
  /// Active invokers starting at `anchor`; shared by both paths. The
  /// fire-time re-check against the then-current target (and the
  /// issued/skipped accounting) lives here.
  void schedule_warms(std::uint64_t k, FunctionId function, InvokerId anchor,
                      std::size_t missing, TimeMs fire_at);

  static std::uint64_t key(AppId app, FunctionId function) {
    return (std::uint64_t{app.get()} << 32) | function.get();
  }
};

}  // namespace esg::prewarm
