// Arrival forecasting (DESIGN.md §14): per-app next-bin intensity estimates
// that let the prewarm manager, the elastic autoscaler and the ESG planner
// act *ahead* of ramps and bursts instead of chasing them.
//
// Two layers:
//
//   ArrivalForecaster  a pure per-bin predictor: forecast(app, start,
//                      horizon) -> expected arrivals/second over the window;
//                      observe_bin() feeds one completed observation bin.
//                      Four implementations: oracle (reads the replayed
//                      trace's true per-bin rates — the value-of-information
//                      upper bound), last-bin, EWMA, and seasonal
//                      (per-bin-of-period running means).
//
//   ForecastService    the run-time harness around a predictor. It bins
//                      realized arrivals (spec.bin_ms wide, anchored at 0),
//                      closes bins lazily as time advances, scores the
//                      prediction made at each bin's start against the
//                      realized count (per-app MAE / sMAPE), emits
//                      kForecastBin trace instants, maintains the
//                      forecasts_issued/consumed perf counters, and fires a
//                      bin callback consumers use to re-evaluate targets.
//
// Everything is deterministic and draw-free: the service never touches an
// RNG, so enabling a forecaster perturbs no other subsystem's randomness.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "forecast/forecast_spec.hpp"
#include "obs/recorder.hpp"
#include "perf/counters.hpp"
#include "trace/replay.hpp"
#include "trace/workload_trace.hpp"

namespace esg::forecast {

class ArrivalForecaster {
 public:
  virtual ~ArrivalForecaster() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Expected arrival rate (arrivals/second) of `app` over
  /// [start_ms, start_ms + horizon_ms). `horizon_ms` must be > 0.
  [[nodiscard]] virtual double forecast(std::uint32_t app, TimeMs start_ms,
                                        TimeMs horizon_ms) const = 0;
  /// One completed observation bin: `count` arrivals of `app` in the bin
  /// starting at `start_ms`, `bin_ms` wide. Oracle ignores observations.
  virtual void observe_bin(std::uint32_t app, TimeMs start_ms, TimeMs bin_ms,
                           double count) {
    (void)app;
    (void)start_ms;
    (void)bin_ms;
    (void)count;
  }
};

/// Builds the predictor named by `spec`. The oracle needs the replayed
/// trace (plus its replay scaling) and throws std::invalid_argument when
/// `trace` is null; the online predictors ignore both.
[[nodiscard]] std::unique_ptr<ArrivalForecaster> make_forecaster(
    const ForecastSpec& spec, std::size_t app_count,
    std::shared_ptr<const trace::WorkloadTrace> trace,
    const trace::ReplayOptions& replay);

/// Per-app forecast accuracy over all closed bins (predicted vs realized
/// arrivals per bin). sMAPE is the symmetric mean absolute percentage error
/// in [0, 2]; bins where both sides are zero score 0 (a perfect call).
struct AppAccuracy {
  double mae = 0.0;
  double smape = 0.0;
  std::size_t bins = 0;
  double predicted_mean = 0.0;
  double realized_mean = 0.0;
};

class ForecastService {
 public:
  /// `spec` must be enabled. `trace`/`replay` are only read by the oracle.
  ForecastService(const ForecastSpec& spec, std::size_t app_count,
                  std::shared_ptr<const trace::WorkloadTrace> trace,
                  const trace::ReplayOptions& replay);

  [[nodiscard]] const ForecastSpec& spec() const { return spec_; }
  [[nodiscard]] std::size_t app_count() const { return apps_; }

  /// Structured-tracing handle (non-owning; nullptr disables instants).
  void set_trace(obs::TraceRecorder* recorder) { rec_ = recorder; }
  /// Fired once per roll that closed at least one bin, after predictions
  /// are refreshed; consumers re-evaluate proactive targets here. The
  /// callback may call predicted_rate() freely (the roll is reentrancy-safe).
  void set_bin_callback(std::function<void(TimeMs)> cb) {
    on_bin_ = std::move(cb);
  }

  /// One realized arrival. Rolls the observation window forward first, so
  /// bins the clock skipped are closed (and scored) in order.
  void on_arrival(std::uint32_t app, TimeMs now_ms);

  /// Predicted arrivals/second of `app` over one bin starting `lead_ms`
  /// ahead of `now_ms` — the consumer-facing query (counts as consumed).
  [[nodiscard]] double predicted_rate(std::uint32_t app, TimeMs now_ms,
                                      TimeMs lead_ms);
  /// Sum of predicted_rate over all apps (one consumed count, not one per
  /// app) — the elastic autoscaler's aggregate-demand signal.
  [[nodiscard]] double predicted_total_rate(TimeMs now_ms, TimeMs lead_ms);

  /// Accuracy over the bins closed so far.
  [[nodiscard]] AppAccuracy accuracy(std::uint32_t app) const;
  /// The prediction standing for the current (open) bin, arrivals/second.
  [[nodiscard]] double current_prediction(std::uint32_t app) const;

  [[nodiscard]] const perf::Counters& counters() const { return counters_; }

 private:
  struct AppState {
    double realized = 0.0;   ///< arrivals observed in the open bin
    double predicted = 0.0;  ///< arrivals predicted for the open bin
    double abs_err_sum = 0.0;
    double smape_sum = 0.0;
    double predicted_sum = 0.0;
    double realized_sum = 0.0;
  };

  ForecastSpec spec_;
  std::size_t apps_;
  std::unique_ptr<ArrivalForecaster> predictor_;
  std::vector<AppState> state_;
  std::size_t current_bin_ = 0;
  std::size_t bins_closed_ = 0;
  bool rolling_ = false;  ///< reentrancy guard for the bin callback
  perf::Counters counters_;
  obs::TraceRecorder* rec_ = nullptr;
  std::function<void(TimeMs)> on_bin_;

  /// Closes every bin that ended at or before `now_ms` and refreshes the
  /// open-bin predictions; fires the bin callback if anything closed.
  void roll_to(TimeMs now_ms);
  void close_bin(std::size_t bin);
  void refresh_predictions();
};

}  // namespace esg::forecast
