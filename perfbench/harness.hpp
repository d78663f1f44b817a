// Benchmark harness. It runs one simulation cell by wiring a
// platform::Controller by hand from the same library parts exp::run_scenario
// uses, so the benchmark can time what run_scenario does not expose: set-up
// before the first event fires, and the event loop itself. Traced runs put
// forwarding layers in front of the scheduler and the trace sinks; these time
// every call from outside the library and change no simulated result.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "metrics/run_metrics.hpp"
#include "obs/sink.hpp"
#include "perf/counters.hpp"
#include "platform/scheduler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);

/// Wall time spent inside one scheduler's entry points.
struct SchedulerTimes {
  std::vector<double> plan_us;  ///< one entry per plan() call
  double plan_s = 0.0;
  double place_s = 0.0;
  double on_request_s = 0.0;
  std::uint64_t place_calls = 0;
};

/// Forwards every call to `inner` and times plan(), place() and on_request().
class TimedScheduler final : public esg::platform::Scheduler {
 public:
  explicit TimedScheduler(esg::platform::Scheduler& inner) : inner_(inner) {}

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  esg::platform::PlanResult plan(const esg::platform::QueueView& view) override;
  std::optional<esg::InvokerId> place(
      const esg::platform::PlacementContext& ctx,
      const esg::cluster::Cluster& cluster) override;
  void on_request(esg::RequestId request, esg::AppId app,
                  esg::TimeMs now_ms) override;
  void on_stage_retry(esg::AppId app, esg::workload::NodeIndex stage,
                      esg::TimeMs now_ms) override {
    inner_.on_stage_retry(app, stage, now_ms);
  }
  [[nodiscard]] std::vector<double> planned_stage_fractions(
      esg::AppId app) const override {
    return inner_.planned_stage_fractions(app);
  }
  [[nodiscard]] bool prefers_locality() const override {
    return inner_.prefers_locality();
  }

  [[nodiscard]] const SchedulerTimes& times() const { return times_; }

 private:
  esg::platform::Scheduler& inner_;
  SchedulerTimes times_;
};

/// Forwards every record to `inner`. It always stamps the wall time of the
/// first span, instant or counter sample, which is the first simulated event
/// that fired; with `timed` it also sums the time spent inside `inner`.
class TimedSink final : public esg::obs::TraceSink {
 public:
  TimedSink(std::unique_ptr<esg::obs::TraceSink> inner, bool timed)
      : inner_(std::move(inner)), timed_(timed) {}

  void on_span(const esg::obs::Span& span) override;
  void on_instant(const esg::obs::Instant& instant) override;
  void on_counter(const esg::obs::CounterSample& sample) override;
  void on_process_name(std::uint32_t pid, std::string_view name) override;
  void on_thread_name(esg::obs::Track track, std::string_view name) override;
  void flush() override;

  [[nodiscard]] std::optional<Clock::time_point> first_record() const {
    return first_record_;
  }
  [[nodiscard]] double busy_s() const { return busy_s_; }

 private:
  template <typename Call>
  void forward(Call&& call);

  std::unique_ptr<esg::obs::TraceSink> inner_;
  bool timed_;
  std::optional<Clock::time_point> first_record_;
  double busy_s_ = 0.0;
};

/// Builds the scheduler a scenario names, with the arguments run_scenario
/// passes. MQFQ-Sticky needs a fair queue and is rejected.
[[nodiscard]] std::unique_ptr<esg::platform::Scheduler> make_scheduler(
    const esg::exp::Scenario& scenario,
    const std::vector<esg::workload::AppDag>& apps,
    const esg::profile::ProfileSet& profiles, const esg::RngFactory& rng);

/// One hand-wired cell. Set-up is everything before the first event fires;
/// its parts are timed separately.
struct WiredRun {
  esg::metrics::RunMetrics metrics;
  esg::perf::Counters counters;
  std::size_t arrivals = 0;           ///< requests injected
  std::size_t measured_arrivals = 0;  ///< injected at or after the warm-up
  std::size_t inflight_after = 0;     ///< requests still open after the loop
  double setup_s = 0.0;
  double loop_s = 0.0;
  double profile_build_s = 0.0;  ///< profile::ProfileSet::builtin
  double construct_s = 0.0;      ///< the scheduler's constructor
  double arrivals_s = 0.0;       ///< ArrivalSource::generate_until
  /// Set when the run was traced (the scheduler sat behind a TimedScheduler).
  std::optional<SchedulerTimes> scheduler_times;
};

/// Runs `scenario` on a Controller wired by hand. The scenario must not use
/// fault injection, an elastic fleet, tenants, forecasting, MQFQ-Sticky, a
/// wall budget or file tracing (throws std::invalid_argument); a trace-replay
/// scenario must carry its parsed trace. With `traced`, the scheduler sits
/// behind a TimedScheduler. Simulated results equal run_scenario's.
[[nodiscard]] WiredRun run_wired(const esg::exp::Scenario& scenario,
                                 bool traced);

/// Requests that arrive at or after `warmup_ms`, the ones a run's metrics
/// must account for.
[[nodiscard]] std::size_t count_measured(
    const std::vector<esg::workload::Arrival>& arrivals, esg::TimeMs warmup_ms);

/// Conservation: completed, shed and aborted requests together equal the
/// requests injected in the measured window. Returns "" when they do, else a
/// message naming the counts.
[[nodiscard]] std::string conservation_error(
    std::size_t measured_arrivals, const esg::metrics::RunMetrics& metrics);

/// Bytes held by the per-record vectors of `metrics` (capacity × element).
[[nodiscard]] double retained_bytes(const esg::metrics::RunMetrics& metrics);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
