// Tests of the benchmark harness: the hand-wired, optionally traced run must
// reproduce exp::run_scenario exactly, and the output checks must catch a
// broken run.
#include <gtest/gtest.h>

#include <memory>

#include "elastic/elastic_spec.hpp"
#include "exp/scenario.hpp"
#include "harness.hpp"
#include "obs/recorder.hpp"
#include "obs/sinks.hpp"
#include "trace/azure_shape.hpp"

namespace {

using namespace esg;

exp::Scenario small_scenario(exp::SchedulerKind kind) {
  exp::Scenario s;
  s.scheduler = kind;
  s.slo = workload::SloSetting::kModerate;
  s.load = workload::LoadSetting::kNormal;
  s.nodes = 8;
  s.horizon_ms = 4'000.0;
  s.warmup_ms = 1'000.0;
  s.seed = 11;
  return s;
}

void expect_same_run(const exp::Scenario& scenario) {
  const exp::RunOutput reference = exp::run_scenario(scenario);
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    const perfbench::WiredRun run = perfbench::run_wired(scenario, traced);
    const auto& got = run.metrics;
    const auto& want = reference.metrics;
    ASSERT_EQ(got.requests(), want.requests());
    EXPECT_EQ(got.slo_hit_rate(), want.slo_hit_rate());
    EXPECT_EQ(got.total_cost, want.total_cost);
    EXPECT_EQ(got.latencies(), want.latencies());
    EXPECT_EQ(got.tasks, want.tasks);
    EXPECT_EQ(run.counters.events_fired, reference.counters.events_fired);
    EXPECT_EQ(run.counters.plans, reference.counters.plans);
    EXPECT_EQ(run.counters.dispatches, reference.counters.dispatches);
    EXPECT_EQ(run.scheduler_times.has_value(), traced);
    if (traced) {
      EXPECT_EQ(run.scheduler_times->plan_us.size(), run.counters.plans);
    }
  }
}

TEST(Harness, WiredRunReproducesRunScenarioForEveryScheduler) {
  for (const auto kind : exp::all_schedulers()) {
    SCOPED_TRACE(std::string(exp::to_string(kind)));
    expect_same_run(small_scenario(kind));
  }
}

TEST(Harness, WiredRunReproducesTraceReplay) {
  trace::AzureShapeOptions shape;
  shape.bins = 20;
  shape.bin_ms = 500.0;
  exp::Scenario s = small_scenario(exp::SchedulerKind::kFastGshare);
  s.arrivals.mode = exp::ArrivalMode::kTrace;
  s.arrivals.trace = std::make_shared<const trace::WorkloadTrace>(
      trace::generate_azure_shaped(shape, RngFactory(3).stream("t")));
  s.horizon_ms = s.arrivals.trace->duration_ms();
  expect_same_run(s);
}

TEST(Harness, WiredRunRejectsPartsOnlyRunScenarioWires) {
  exp::Scenario s = small_scenario(exp::SchedulerKind::kInfless);
  s.elastic = elastic::parse_elastic_spec("queue:min=2,max=8");
  EXPECT_THROW((void)perfbench::run_wired(s, false), std::invalid_argument);
  s = small_scenario(exp::SchedulerKind::kFastGshare);
  s.arrivals.mode = exp::ArrivalMode::kTrace;  // but no parsed trace
  EXPECT_THROW((void)perfbench::run_wired(s, false), std::invalid_argument);
}

TEST(Harness, ConservationFlagsADroppedRequest) {
  perfbench::WiredRun run =
      perfbench::run_wired(small_scenario(exp::SchedulerKind::kEsg), false);
  ASSERT_GT(run.metrics.completions.size(), 0u);
  EXPECT_EQ(perfbench::conservation_error(run.measured_arrivals, run.metrics),
            "");
  EXPECT_EQ(run.inflight_after, 0u);
  run.metrics.completions.pop_back();
  EXPECT_NE(perfbench::conservation_error(run.measured_arrivals, run.metrics),
            "");
}

TEST(Harness, ConservationCountsShedAndAbortedRequests) {
  metrics::RunMetrics m;
  m.completions.resize(3);
  m.completions[1].shed = true;
  m.completions[2].failed = true;
  EXPECT_EQ(perfbench::conservation_error(3, m), "");
  EXPECT_NE(perfbench::conservation_error(4, m), "");
}

TEST(Harness, TimedSinkForwardsEveryRecordAndStampsTheFirst) {
  auto memory = std::make_unique<obs::MemorySink>();
  const obs::MemorySink* inner = memory.get();
  auto timed = std::make_unique<perfbench::TimedSink>(std::move(memory), true);
  const perfbench::TimedSink* sink = timed.get();
  obs::TraceRecorder recorder;
  recorder.add_sink(std::move(timed));
  recorder.name_process(1, "p");
  EXPECT_FALSE(sink->first_record().has_value());
  recorder.instant(obs::InstantKind{}, "i", obs::Track{}, 1.0);
  recorder.counter("c", obs::Track{}, 2.0, 3.0);
  EXPECT_TRUE(sink->first_record().has_value());
  EXPECT_EQ(inner->instants().size(), 1u);
  EXPECT_EQ(inner->counters().size(), 1u);
  EXPECT_GE(sink->busy_s(), 0.0);
}

}  // namespace
