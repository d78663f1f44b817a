#include "obs/recorder.hpp"

#include <algorithm>
#include <iterator>

#include "perf/layer_clock.hpp"

namespace esg::obs {

namespace {

// One name per kind, indexed by the enumerator's value: to_string writes
// these and the *_kind_from_string readers look them up, so every kind that
// is written can be read back.
constexpr std::string_view kSpanNames[] = {
    "request",        "queue_wait", "stage",      "staging", "exec",
    "slice_occupied", "cold_start", "keep_alive", "prewarm", "invoker_down"};
constexpr std::string_view kInstantNames[] = {
    "dispatch",           "no_placement",   "defer",
    "forced_min_dispatch", "prewarm_issued", "prewarm_skipped",
    "budget_plan",        "budget_replan",  "fault",
    "retry",              "retry_exhausted", "invoker_crash",
    "invoker_rejoin",     "cold_start_failure", "scale_out",
    "scale_in",           "node_activated", "node_retired",
    "spot_warning",       "spot_reclaim",   "shed",
    "forecast_bin",       "forecast_prewarm"};
static_assert(std::size(kSpanNames) ==
              static_cast<std::size_t>(SpanKind::kInvokerDown) + 1);
static_assert(std::size(kInstantNames) ==
              static_cast<std::size_t>(InstantKind::kForecastPrewarm) + 1);

template <typename Kind, std::size_t N>
std::string_view name_of(const std::string_view (&names)[N], Kind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < N ? names[i] : "unknown";
}

template <typename Kind, std::size_t N>
std::optional<Kind> kind_named(const std::string_view (&names)[N],
                               std::string_view s) {
  for (std::size_t i = 0; i < N; ++i) {
    if (names[i] == s) return static_cast<Kind>(i);
  }
  return std::nullopt;
}

}  // namespace

std::string_view to_string(SpanKind kind) { return name_of(kSpanNames, kind); }

std::string_view to_string(InstantKind kind) {
  return name_of(kInstantNames, kind);
}

std::optional<SpanKind> span_kind_from_string(std::string_view s) {
  return kind_named<SpanKind>(kSpanNames, s);
}

std::optional<InstantKind> instant_kind_from_string(std::string_view s) {
  return kind_named<InstantKind>(kInstantNames, s);
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
