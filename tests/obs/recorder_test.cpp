#include "obs/recorder.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string_view>

#include "obs/sinks.hpp"

namespace esg::obs {
namespace {

TEST(TraceRecorder, DisabledByDefault) {
  TraceRecorder rec;
  EXPECT_FALSE(rec.is_enabled());
  rec.span(SpanKind::kExec, "e", invoker_track(InvokerId{0}, 0), 1.0, 2.0);
  rec.instant(InstantKind::kDispatch, "d", controller_track(), 1.0);
  rec.counter("c", controller_track(), 1.0, 3.0);
  EXPECT_EQ(rec.spans_recorded(), 0u);
  EXPECT_EQ(rec.instants_recorded(), 0u);
  EXPECT_EQ(rec.counters_recorded(), 0u);
  rec.flush();  // must not crash without sinks
}

TEST(TraceRecorder, NullSinkDoesNotEnable) {
  TraceRecorder rec;
  rec.add_sink(nullptr);
  EXPECT_FALSE(rec.is_enabled());
}

TEST(TraceRecorder, AddingSinkEnablesAndForwards) {
  TraceRecorder rec;
  auto sink = std::make_unique<MemorySink>();
  MemorySink* mem = sink.get();
  rec.add_sink(std::move(sink));
  EXPECT_TRUE(rec.is_enabled());

  rec.span(SpanKind::kExec, "task", invoker_track(InvokerId{2}, 1), 10.0, 25.0,
           {{"batch", "4"}});
  rec.instant(InstantKind::kNoPlacement, "rej", controller_track(), 12.0);
  rec.counter("free_vgpus", controller_track(), 13.0, 7.0);

  ASSERT_EQ(mem->spans().size(), 1u);
  const Span& s = mem->spans().front();
  EXPECT_EQ(s.kind, SpanKind::kExec);
  EXPECT_EQ(s.name, "task");
  EXPECT_EQ(s.track.pid, kInvokerPidBase + 2);
  EXPECT_EQ(s.track.tid, 1u);
  EXPECT_DOUBLE_EQ(s.start_ms, 10.0);
  EXPECT_DOUBLE_EQ(s.end_ms, 25.0);
  ASSERT_EQ(s.args.size(), 1u);
  EXPECT_EQ(s.args[0].first, "batch");

  ASSERT_EQ(mem->instants().size(), 1u);
  EXPECT_EQ(mem->instants().front().kind, InstantKind::kNoPlacement);
  ASSERT_EQ(mem->counters().size(), 1u);
  EXPECT_DOUBLE_EQ(mem->counters().front().value, 7.0);

  EXPECT_EQ(rec.spans_recorded(), 1u);
  EXPECT_EQ(rec.instants_recorded(), 1u);
  EXPECT_EQ(rec.counters_recorded(), 1u);
}

TEST(TraceRecorder, FansOutToAllSinks) {
  TraceRecorder rec;
  auto a = std::make_unique<MemorySink>();
  auto b = std::make_unique<MemorySink>();
  MemorySink* pa = a.get();
  MemorySink* pb = b.get();
  rec.add_sink(std::move(a));
  rec.add_sink(std::move(b));
  rec.span(SpanKind::kRequest, "r", request_track(RequestId{1}), 0.0, 5.0);
  EXPECT_EQ(pa->spans().size(), 1u);
  EXPECT_EQ(pb->spans().size(), 1u);
}

TEST(TraceRecorder, MemorySinkCountsByKind) {
  TraceRecorder rec;
  auto sink = std::make_unique<MemorySink>();
  MemorySink* mem = sink.get();
  rec.add_sink(std::move(sink));
  rec.span(SpanKind::kExec, "a", controller_track(), 0.0, 1.0);
  rec.span(SpanKind::kExec, "b", controller_track(), 1.0, 2.0);
  rec.span(SpanKind::kColdStart, "c", controller_track(), 0.0, 3.0);
  rec.instant(InstantKind::kDefer, "d", controller_track(), 0.5);
  EXPECT_EQ(mem->count(SpanKind::kExec), 2u);
  EXPECT_EQ(mem->count(SpanKind::kColdStart), 1u);
  EXPECT_EQ(mem->count(SpanKind::kKeepAlive), 0u);
  EXPECT_EQ(mem->count(InstantKind::kDefer), 1u);
  EXPECT_EQ(mem->count(InstantKind::kDispatch), 0u);
}

TEST(TraceRecorder, KindNamesAreStable) {
  // The category strings are part of the trace file format.
  EXPECT_EQ(to_string(SpanKind::kExec), "exec");
  EXPECT_EQ(to_string(SpanKind::kQueueWait), "queue_wait");
  EXPECT_EQ(to_string(SpanKind::kKeepAlive), "keep_alive");
  EXPECT_EQ(to_string(InstantKind::kForcedMinDispatch), "forced_min_dispatch");
  EXPECT_EQ(to_string(InstantKind::kPrewarmSkipped), "prewarm_skipped");
}

TEST(TrackHelpers, MapToDocumentedCoordinates) {
  EXPECT_EQ(controller_track().pid, kControllerPid);
  EXPECT_EQ(request_track(RequestId{7}).pid, kRequestsPid);
  EXPECT_EQ(request_track(RequestId{7}).tid, 7u);
  EXPECT_EQ(invoker_track(InvokerId{3}, 2).pid, kInvokerPidBase + 3);
  EXPECT_EQ(invoker_track(InvokerId{3}, 2).tid, 2u);
}

TEST(LaneAllocator, AssignsLowestFreeLanes) {
  LaneAllocator lanes;
  lanes.configure(0, 4);
  EXPECT_EQ(lanes.acquire(0, 2), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(lanes.acquire(0, 1), (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(lanes.busy_lanes(0), 3u);
}

TEST(LaneAllocator, ReturnsFewerWhenSaturated) {
  LaneAllocator lanes;
  lanes.configure(0, 2);
  EXPECT_EQ(lanes.acquire(0, 2).size(), 2u);
  // Saturated: an over-subscribed acquire claims nothing rather than lying.
  EXPECT_TRUE(lanes.acquire(0, 1).empty());
}

TEST(LaneAllocator, ReleaseMakesLanesReusable) {
  LaneAllocator lanes;
  lanes.configure(0, 3);
  const auto first = lanes.acquire(0, 3);
  lanes.release(0, {first[1]});
  EXPECT_EQ(lanes.acquire(0, 2), (std::vector<std::uint32_t>{1}));
  lanes.release(0, first);
  EXPECT_EQ(lanes.busy_lanes(0), 0u);
}

TEST(LaneAllocator, GroupsAreIndependent) {
  LaneAllocator lanes;
  lanes.configure(0, 1);
  lanes.configure(1, 1);
  EXPECT_EQ(lanes.acquire(0, 1).size(), 1u);
  EXPECT_EQ(lanes.acquire(1, 1).size(), 1u);
  EXPECT_EQ(lanes.busy_lanes(0), 1u);
  EXPECT_EQ(lanes.busy_lanes(1), 1u);
}

TEST(LaneAllocator, UnknownGroupIsEmpty) {
  LaneAllocator lanes;
  EXPECT_TRUE(lanes.acquire(9, 1).empty());
  EXPECT_EQ(lanes.busy_lanes(9), 0u);
  lanes.release(9, {0});  // must not crash
}

// Every enumerator, up to the last one each enum declares, is written under
// a name of its own that reads back as that enumerator; the value after the
// last is unnamed and reads back as nothing.
template <typename Kind>
void expect_round_trips(Kind last,
                        std::optional<Kind> (*from_string)(std::string_view)) {
  const auto count = static_cast<std::size_t>(last) + 1;
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < count; ++i) {
    const auto kind = static_cast<Kind>(i);
    const std::string_view name = to_string(kind);
    EXPECT_NE(name, "unknown") << "enumerator " << i;
    EXPECT_TRUE(names.insert(name).second) << name;
    EXPECT_EQ(from_string(name), kind) << name;
  }
  EXPECT_EQ(to_string(static_cast<Kind>(count)), "unknown");
  EXPECT_FALSE(from_string("unknown").has_value());
}

TEST(TraceKinds, EveryEnumeratorRoundTripsThroughItsName) {
  expect_round_trips(SpanKind::kInvokerDown, &span_kind_from_string);
  expect_round_trips(InstantKind::kForecastPrewarm, &instant_kind_from_string);
  EXPECT_EQ(to_string(SpanKind::kQueueWait), "queue_wait");
  EXPECT_EQ(to_string(InstantKind::kForcedMinDispatch), "forced_min_dispatch");
}

}  // namespace
}  // namespace esg::obs
