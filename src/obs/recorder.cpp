#include "obs/recorder.hpp"

#include <algorithm>

#include "perf/layer_clock.hpp"

namespace esg::obs {

std::string_view to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest:
      return "request";
    case SpanKind::kQueueWait:
      return "queue_wait";
    case SpanKind::kStage:
      return "stage";
    case SpanKind::kStaging:
      return "staging";
    case SpanKind::kExec:
      return "exec";
    case SpanKind::kSliceOccupied:
      return "slice_occupied";
    case SpanKind::kColdStart:
      return "cold_start";
    case SpanKind::kKeepAlive:
      return "keep_alive";
    case SpanKind::kPrewarm:
      return "prewarm";
    case SpanKind::kInvokerDown:
      return "invoker_down";
  }
  return "unknown";
}

std::string_view to_string(InstantKind kind) {
  switch (kind) {
    case InstantKind::kDispatch:
      return "dispatch";
    case InstantKind::kNoPlacement:
      return "no_placement";
    case InstantKind::kDefer:
      return "defer";
    case InstantKind::kForcedMinDispatch:
      return "forced_min_dispatch";
    case InstantKind::kPrewarmIssued:
      return "prewarm_issued";
    case InstantKind::kPrewarmSkipped:
      return "prewarm_skipped";
    case InstantKind::kBudgetPlan:
      return "budget_plan";
    case InstantKind::kBudgetReplan:
      return "budget_replan";
    case InstantKind::kFault:
      return "fault";
    case InstantKind::kRetry:
      return "retry";
    case InstantKind::kRetryExhausted:
      return "retry_exhausted";
    case InstantKind::kInvokerCrash:
      return "invoker_crash";
    case InstantKind::kInvokerRejoin:
      return "invoker_rejoin";
    case InstantKind::kColdStartFailure:
      return "cold_start_failure";
    case InstantKind::kScaleOut:
      return "scale_out";
    case InstantKind::kScaleIn:
      return "scale_in";
    case InstantKind::kNodeActivated:
      return "node_activated";
    case InstantKind::kNodeRetired:
      return "node_retired";
    case InstantKind::kSpotWarning:
      return "spot_warning";
    case InstantKind::kSpotReclaim:
      return "spot_reclaim";
    case InstantKind::kShed:
      return "shed";
    case InstantKind::kForecastBin:
      return "forecast_bin";
    case InstantKind::kForecastPrewarm:
      return "forecast_prewarm";
  }
  return "unknown";
}

std::optional<SpanKind> span_kind_from_string(std::string_view s) {
  static constexpr SpanKind kAll[] = {
      SpanKind::kRequest,   SpanKind::kQueueWait, SpanKind::kStage,
      SpanKind::kStaging,   SpanKind::kExec,      SpanKind::kSliceOccupied,
      SpanKind::kColdStart, SpanKind::kKeepAlive, SpanKind::kPrewarm,
      SpanKind::kInvokerDown};
  for (const SpanKind kind : kAll) {
    if (to_string(kind) == s) return kind;
  }
  return std::nullopt;
}

std::optional<InstantKind> instant_kind_from_string(std::string_view s) {
  static constexpr InstantKind kAll[] = {
      InstantKind::kDispatch,       InstantKind::kNoPlacement,
      InstantKind::kDefer,          InstantKind::kForcedMinDispatch,
      InstantKind::kPrewarmIssued,  InstantKind::kPrewarmSkipped,
      InstantKind::kBudgetPlan,     InstantKind::kBudgetReplan,
      InstantKind::kFault,          InstantKind::kRetry,
      InstantKind::kRetryExhausted, InstantKind::kInvokerCrash,
      InstantKind::kInvokerRejoin,  InstantKind::kColdStartFailure,
      InstantKind::kScaleOut,       InstantKind::kScaleIn,
      InstantKind::kNodeActivated,  InstantKind::kNodeRetired,
      InstantKind::kSpotWarning,    InstantKind::kSpotReclaim,
      InstantKind::kShed,           InstantKind::kForecastBin,
      InstantKind::kForecastPrewarm};
  for (const InstantKind kind : kAll) {
    if (to_string(kind) == s) return kind;
  }
  return std::nullopt;
}

void TraceRecorder::add_sink(std::unique_ptr<TraceSink> sink) {
  if (!sink) return;
  sinks_.push_back(std::move(sink));
  enabled_ = true;
}

void TraceRecorder::span(SpanKind kind, std::string name, Track track,
                         TimeMs start_ms, TimeMs end_ms, ArgList args) {
  if (!enabled_) return;
  const perf::LayerScope layer(perf::Layer::kSinks);
  const Span event{kind, std::move(name), track, start_ms, end_ms,
                   std::move(args)};
  for (auto& sink : sinks_) sink->on_span(event);
  ++spans_;
}

void TraceRecorder::instant(InstantKind kind, std::string name, Track track,
                            TimeMs at_ms, ArgList args) {
  if (!enabled_) return;
  const perf::LayerScope layer(perf::Layer::kSinks);
  const Instant event{kind, std::move(name), track, at_ms, std::move(args)};
  for (auto& sink : sinks_) sink->on_instant(event);
  ++instants_;
}

void TraceRecorder::counter(std::string name, Track track, TimeMs at_ms,
                            double value) {
  if (!enabled_) return;
  const perf::LayerScope layer(perf::Layer::kSinks);
  const CounterSample sample{std::move(name), track, at_ms, value};
  for (auto& sink : sinks_) sink->on_counter(sample);
  ++counters_;
}

void TraceRecorder::name_process(std::uint32_t pid, std::string name) {
  if (!enabled_) return;
  const perf::LayerScope layer(perf::Layer::kSinks);
  for (auto& sink : sinks_) sink->on_process_name(pid, name);
}

void TraceRecorder::name_thread(Track track, std::string name) {
  if (!enabled_) return;
  const perf::LayerScope layer(perf::Layer::kSinks);
  for (auto& sink : sinks_) sink->on_thread_name(track, name);
}

void TraceRecorder::flush() {
  const perf::LayerScope layer(perf::Layer::kSinks);
  for (auto& sink : sinks_) sink->flush();
}

void LaneAllocator::configure(std::uint32_t group, std::uint32_t lanes) {
  busy_[group].assign(lanes, false);
}

std::vector<std::uint32_t> LaneAllocator::acquire(std::uint32_t group,
                                                  std::uint32_t count) {
  std::vector<std::uint32_t> claimed;
  auto it = busy_.find(group);
  if (it == busy_.end()) return claimed;
  auto& lanes = it->second;
  for (std::uint32_t lane = 0; lane < lanes.size() && claimed.size() < count;
       ++lane) {
    if (!lanes[lane]) {
      lanes[lane] = true;
      claimed.push_back(lane);
    }
  }
  return claimed;
}

void LaneAllocator::release(std::uint32_t group,
                            const std::vector<std::uint32_t>& lanes) {
  auto it = busy_.find(group);
  if (it == busy_.end()) return;
  for (const std::uint32_t lane : lanes) {
    if (lane < it->second.size()) it->second[lane] = false;
  }
}

std::size_t LaneAllocator::busy_lanes(std::uint32_t group) const {
  auto it = busy_.find(group);
  if (it == busy_.end()) return 0;
  return static_cast<std::size_t>(
      std::count(it->second.begin(), it->second.end(), true));
}

}  // namespace esg::obs
