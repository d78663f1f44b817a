#include "forecast/forecaster.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "common/ewma.hpp"
#include "common/spec_lex.hpp"

namespace esg::forecast {

namespace {

/// Perfect hindsight: integrates the replayed trace's true per-bin expected
/// counts (rate-scaled, time-stretched exactly like TraceArrivalGenerator)
/// over the queried window. Past the trace end the truth is "no arrivals".
class OracleForecaster final : public ArrivalForecaster {
 public:
  OracleForecaster(std::shared_ptr<const trace::WorkloadTrace> trace,
                   const trace::ReplayOptions& replay)
      : trace_(std::move(trace)),
        scaled_bin_ms_(trace_->bin_ms * replay.time_scale),
        rate_scale_(replay.rate_scale),
        per_app_(trace_->app_count) {
    check(scaled_bin_ms_ > 0.0, "oracle: non-positive scaled bin width");
    // Rows are sorted by (bin, app, tenant); summing per (bin, app) in row
    // order keeps each app's bin list sorted for the binary searches below.
    for (const trace::TraceBinRow& row : trace_->rows) {
      auto& bins = per_app_[row.app];
      if (!bins.empty() && bins.back().first == row.bin) {
        bins.back().second += row.count;
      } else {
        bins.emplace_back(row.bin, row.count);
      }
    }
  }

  [[nodiscard]] std::string_view name() const override { return "oracle"; }

  [[nodiscard]] double forecast(std::uint32_t app, TimeMs start_ms,
                                TimeMs horizon_ms) const override {
    if (app >= per_app_.size() || horizon_ms <= 0.0) return 0.0;
    const TimeMs end_ms = start_ms + horizon_ms;
    const auto first_bin = static_cast<std::size_t>(
        std::max(0.0, std::floor(start_ms / scaled_bin_ms_)));
    const auto& bins = per_app_[app];
    auto it = std::lower_bound(
        bins.begin(), bins.end(), first_bin,
        [](const auto& row, std::size_t bin) { return row.first < bin; });
    double expected = 0.0;
    for (; it != bins.end(); ++it) {
      const TimeMs bin_start = static_cast<double>(it->first) * scaled_bin_ms_;
      if (bin_start >= end_ms) break;
      const TimeMs bin_end = bin_start + scaled_bin_ms_;
      const TimeMs overlap =
          std::min(bin_end, end_ms) - std::max(bin_start, start_ms);
      if (overlap <= 0.0) continue;
      expected += it->second * rate_scale_ * (overlap / scaled_bin_ms_);
    }
    return 1000.0 * expected / horizon_ms;
  }

 private:
  std::shared_ptr<const trace::WorkloadTrace> trace_;
  TimeMs scaled_bin_ms_;
  double rate_scale_;
  /// Per app: (bin index, summed count) sorted by bin.
  std::vector<std::vector<std::pair<std::size_t, double>>> per_app_;
};

class LastBinForecaster final : public ArrivalForecaster {
 public:
  explicit LastBinForecaster(std::size_t app_count) : last_(app_count, -1.0) {}

  [[nodiscard]] std::string_view name() const override { return "last-bin"; }

  [[nodiscard]] double forecast(std::uint32_t app, TimeMs start_ms,
                                TimeMs horizon_ms) const override {
    (void)start_ms;
    (void)horizon_ms;
    if (app >= last_.size() || last_[app] < 0.0) return 0.0;
    return 1000.0 * last_[app] / bin_ms_;
  }

  void observe_bin(std::uint32_t app, TimeMs start_ms, TimeMs bin_ms,
                   double count) override {
    (void)start_ms;
    if (app >= last_.size()) return;
    last_[app] = count;
    bin_ms_ = bin_ms;
  }

 private:
  std::vector<double> last_;  ///< -1 until the first completed bin
  TimeMs bin_ms_ = 1.0;
};

class EwmaForecaster final : public ArrivalForecaster {
 public:
  EwmaForecaster(std::size_t app_count, double alpha)
      : ewmas_(app_count, Ewma(alpha)) {}

  [[nodiscard]] std::string_view name() const override { return "ewma"; }

  [[nodiscard]] double forecast(std::uint32_t app, TimeMs start_ms,
                                TimeMs horizon_ms) const override {
    (void)start_ms;
    (void)horizon_ms;
    if (app >= ewmas_.size() || !ewmas_[app].initialized()) return 0.0;
    return 1000.0 * ewmas_[app].value() / bin_ms_;
  }

  void observe_bin(std::uint32_t app, TimeMs start_ms, TimeMs bin_ms,
                   double count) override {
    (void)start_ms;
    if (app >= ewmas_.size()) return;
    ewmas_[app].observe(count);
    bin_ms_ = bin_ms;
  }

 private:
  std::vector<Ewma> ewmas_;
  TimeMs bin_ms_ = 1.0;
};

/// Per-bin-of-period running means: observation bins are folded into the
/// period (e.g. bin-of-day), so after one full period the predictor knows
/// the diurnal shape and after two it has started averaging noise out.
/// Means stay in arrivals-per-observation-bin units whatever the seasonal
/// bin width, so the rate conversion is uniform. An unvisited bin-of-period
/// falls back to the global mean (better than predicting zero mid-ramp).
class SeasonalForecaster final : public ArrivalForecaster {
 public:
  SeasonalForecaster(std::size_t app_count, TimeMs period_ms, std::size_t bins)
      : period_ms_(period_ms),
        slot_ms_(period_ms / static_cast<double>(bins)),
        sums_(app_count, std::vector<double>(bins, 0.0)),
        counts_(app_count, std::vector<std::size_t>(bins, 0)),
        total_sum_(app_count, 0.0),
        total_count_(app_count, 0) {}

  [[nodiscard]] std::string_view name() const override { return "seasonal"; }

  [[nodiscard]] double forecast(std::uint32_t app, TimeMs start_ms,
                                TimeMs horizon_ms) const override {
    (void)horizon_ms;
    if (app >= sums_.size() || total_count_[app] == 0) return 0.0;
    const std::size_t slot = slot_of(start_ms);
    const double mean =
        counts_[app][slot] > 0
            ? sums_[app][slot] / static_cast<double>(counts_[app][slot])
            : total_sum_[app] / static_cast<double>(total_count_[app]);
    return 1000.0 * mean / bin_ms_;
  }

  void observe_bin(std::uint32_t app, TimeMs start_ms, TimeMs bin_ms,
                   double count) override {
    if (app >= sums_.size()) return;
    const std::size_t slot = slot_of(start_ms);
    sums_[app][slot] += count;
    ++counts_[app][slot];
    total_sum_[app] += count;
    ++total_count_[app];
    bin_ms_ = bin_ms;
  }

 private:
  [[nodiscard]] std::size_t slot_of(TimeMs at_ms) const {
    const double in_period = std::fmod(std::max(0.0, at_ms), period_ms_);
    return std::min(sums_.front().size() - 1,
                    static_cast<std::size_t>(in_period / slot_ms_));
  }

  TimeMs period_ms_;
  TimeMs slot_ms_;
  std::vector<std::vector<double>> sums_;
  std::vector<std::vector<std::size_t>> counts_;
  std::vector<double> total_sum_;
  std::vector<std::size_t> total_count_;
  TimeMs bin_ms_ = 1.0;
};

}  // namespace

std::unique_ptr<ArrivalForecaster> make_forecaster(
    const ForecastSpec& spec, std::size_t app_count,
    std::shared_ptr<const trace::WorkloadTrace> trace,
    const trace::ReplayOptions& replay) {
  switch (spec.kind) {
    case ForecastKind::kNone:
      throw std::invalid_argument("make_forecaster: inert spec");
    case ForecastKind::kOracle:
      if (trace == nullptr) {
        throw std::invalid_argument(
            "--forecast oracle requires trace arrivals "
            "(--arrivals trace:@file)");
      }
      return std::make_unique<OracleForecaster>(std::move(trace), replay);
    case ForecastKind::kLastBin:
      return std::make_unique<LastBinForecaster>(app_count);
    case ForecastKind::kEwma:
      return std::make_unique<EwmaForecaster>(app_count, spec.ewma_alpha);
    case ForecastKind::kSeasonal:
      return std::make_unique<SeasonalForecaster>(
          app_count, spec.seasonal_period_ms, spec.seasonal_bins);
  }
  throw std::invalid_argument("make_forecaster: unknown predictor");
}

ForecastService::ForecastService(
    const ForecastSpec& spec, std::size_t app_count,
    std::shared_ptr<const trace::WorkloadTrace> trace,
    const trace::ReplayOptions& replay)
    : spec_(spec),
      apps_(app_count),
      predictor_(make_forecaster(spec, app_count, std::move(trace), replay)),
      state_(app_count) {
  check(spec_.enabled(), "ForecastService: spec has no predictor");
  check(app_count > 0, "ForecastService: no apps");
  refresh_predictions();
}

void ForecastService::on_arrival(std::uint32_t app, TimeMs now_ms) {
  roll_to(now_ms);
  if (app < apps_) state_[app].realized += 1.0;
}

double ForecastService::predicted_rate(std::uint32_t app, TimeMs now_ms,
                                       TimeMs lead_ms) {
  roll_to(now_ms);
  ++counters_.forecasts_consumed;
  if (app >= apps_) return 0.0;
  return predictor_->forecast(app, now_ms + lead_ms, spec_.bin_ms);
}

double ForecastService::predicted_total_rate(TimeMs now_ms, TimeMs lead_ms) {
  roll_to(now_ms);
  ++counters_.forecasts_consumed;
  double total = 0.0;
  for (std::uint32_t app = 0; app < apps_; ++app) {
    total += predictor_->forecast(app, now_ms + lead_ms, spec_.bin_ms);
  }
  return total;
}

AppAccuracy ForecastService::accuracy(std::uint32_t app) const {
  AppAccuracy acc;
  if (app >= apps_ || bins_closed_ == 0) return acc;
  const AppState& s = state_[app];
  const auto n = static_cast<double>(bins_closed_);
  acc.bins = bins_closed_;
  acc.mae = s.abs_err_sum / n;
  acc.smape = s.smape_sum / n;
  acc.predicted_mean = s.predicted_sum / n;
  acc.realized_mean = s.realized_sum / n;
  return acc;
}

double ForecastService::current_prediction(std::uint32_t app) const {
  if (app >= apps_) return 0.0;
  return 1000.0 * state_[app].predicted / spec_.bin_ms;
}

void ForecastService::roll_to(TimeMs now_ms) {
  if (rolling_) return;  // a bin-callback consumer is querying mid-roll
  const auto target =
      static_cast<std::size_t>(std::max(0.0, now_ms / spec_.bin_ms));
  if (target <= current_bin_) return;
  rolling_ = true;
  bool closed = false;
  while (current_bin_ < target) {
    close_bin(current_bin_);
    ++current_bin_;
    closed = true;
  }
  refresh_predictions();
  rolling_ = false;
  if (closed && on_bin_) on_bin_(now_ms);
}

void ForecastService::close_bin(std::size_t bin) {
  const TimeMs start_ms = static_cast<double>(bin) * spec_.bin_ms;
  ++bins_closed_;
  for (std::uint32_t app = 0; app < apps_; ++app) {
    AppState& s = state_[app];
    const double err = std::abs(s.predicted - s.realized);
    s.abs_err_sum += err;
    const double denom = std::abs(s.predicted) + std::abs(s.realized);
    if (denom > 0.0) s.smape_sum += 2.0 * err / denom;
    s.predicted_sum += s.predicted;
    s.realized_sum += s.realized;
    if (rec_ != nullptr && rec_->is_enabled()) {
      rec_->instant(obs::InstantKind::kForecastBin, "forecast_bin",
                    obs::controller_track(), start_ms + spec_.bin_ms,
                    {{"app", std::to_string(app)},
                     {"predicted", lex::fmt_g(s.predicted)},
                     {"realized", lex::fmt_g(s.realized)}});
    }
    predictor_->observe_bin(app, start_ms, spec_.bin_ms, s.realized);
    s.realized = 0.0;
  }
}

void ForecastService::refresh_predictions() {
  const TimeMs start_ms = static_cast<double>(current_bin_) * spec_.bin_ms;
  for (std::uint32_t app = 0; app < apps_; ++app) {
    // Stored in arrivals-per-bin units so close_bin compares like with like.
    state_[app].predicted =
        predictor_->forecast(app, start_ms, spec_.bin_ms) * spec_.bin_ms /
        1000.0;
    ++counters_.forecasts_issued;
  }
}

}  // namespace esg::forecast
