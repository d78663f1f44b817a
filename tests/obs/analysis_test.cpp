// Acceptance suite for the SLO-attribution engine (obs/analysis): the
// critical-path decomposition must sum to the end-to-end latency within
// 1e-6 ms, every SLO miss must receive a dominant cause, and the online
// (AnalysisSink) and offline (trace_reader) paths must render byte-identical
// reports for the same run.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "exp/scenario.hpp"
#include "obs/analysis/attribution.hpp"
#include "obs/analysis/critical_path.hpp"
#include "obs/analysis/dataset.hpp"
#include "obs/analysis/trace_reader.hpp"
#include "obs/recorder.hpp"
#include "obs/sinks.hpp"
#include "tenant/tenant_spec.hpp"

namespace esg {
namespace {

using obs::analysis::AnalysisSink;
using obs::analysis::AttributionReport;
using obs::analysis::CriticalPathResult;
using obs::analysis::TraceDataset;

exp::Scenario small_scenario() {
  exp::Scenario scenario;
  scenario.nodes = 4;
  scenario.horizon_ms = 2'000.0;
  scenario.seed = 7;
  return scenario;
}

/// A scenario that reliably produces SLO misses: heavy traffic on a cluster
/// too small for it, under strict SLOs.
exp::Scenario overloaded_scenario() {
  exp::Scenario scenario;
  scenario.nodes = 2;
  scenario.load = workload::LoadSetting::kHeavy;
  scenario.slo = workload::SloSetting::kStrict;
  scenario.horizon_ms = 2'000.0;
  scenario.seed = 7;
  return scenario;
}

/// Runs `scenario` with an in-memory analysis sink and returns its dataset.
TraceDataset run_with_analysis(const exp::Scenario& scenario,
                               std::ostream* trace_out = nullptr) {
  obs::TraceRecorder recorder;
  auto sink = std::make_unique<AnalysisSink>();
  const AnalysisSink* analysis = sink.get();
  recorder.add_sink(std::move(sink));
  if (trace_out != nullptr) {
    recorder.add_sink(std::make_unique<obs::ChromeTraceSink>(*trace_out));
  }
  (void)exp::run_scenario(scenario, &recorder);
  return analysis->dataset();
}

std::string report_json(const AttributionReport& report) {
  std::ostringstream out;
  obs::analysis::write_report_json(report, out);
  return out.str();
}

TEST(Analysis, QuantizeIsIdempotent) {
  for (const double v : {0.0, 0.1234567, 17.5, 12345.000501, 1e7 / 3.0}) {
    const double q = obs::analysis::quantize_ms(v);
    EXPECT_EQ(q, obs::analysis::quantize_ms(q)) << v;
    EXPECT_NEAR(q, v, 5.1e-7) << v;
  }
}

TEST(Analysis, EveryRequestReconstructs) {
  const TraceDataset dataset = run_with_analysis(small_scenario());
  const CriticalPathResult paths =
      obs::analysis::reconstruct_critical_paths(dataset);
  EXPECT_EQ(paths.unreconstructed, 0u);
  ASSERT_GT(paths.requests.size(), 0u);
  for (const auto& request : paths.requests) {
    EXPECT_FALSE(request.path.empty()) << request.request;
  }
}

TEST(Analysis, DecompositionSumsToEndToEndLatency) {
  const TraceDataset dataset = run_with_analysis(small_scenario());
  const CriticalPathResult paths =
      obs::analysis::reconstruct_critical_paths(dataset);
  ASSERT_GT(paths.requests.size(), 0u);
  for (const auto& request : paths.requests) {
    double component_sum = 0.0;
    for (const auto& stage : request.path) {
      component_sum += stage.component_sum_ms();
      // Per-stage components account for that stage's whole interval.
      EXPECT_NEAR(stage.component_sum_ms(), stage.actual_ms(), 1e-9)
          << "request " << request.request << " stage " << stage.stage;
      EXPECT_GE(stage.batch_wait_ms, 0.0);
      EXPECT_GE(stage.cold_start_ms, 0.0);
      EXPECT_GE(stage.queueing_ms, -1e-9);
      EXPECT_GE(stage.sched_overhead_ms, 0.0);
      EXPECT_GE(stage.transfer_ms, 0.0);
      EXPECT_GE(stage.exec_ms, 0.0);
    }
    // The headline invariant: the decomposition telescopes to the
    // end-to-end latency within 1e-6 ms.
    EXPECT_NEAR(component_sum, request.latency_ms(), 1e-6)
        << "request " << request.request;
  }
}

TEST(Analysis, EsgRunsCarryPlannedBudgets) {
  const TraceDataset dataset = run_with_analysis(small_scenario());
  CriticalPathResult paths = obs::analysis::reconstruct_critical_paths(dataset);
  obs::analysis::attribute_slo_budgets(paths, dataset);
  ASSERT_GT(paths.requests.size(), 0u);
  for (const auto& request : paths.requests) {
    EXPECT_FALSE(request.uniform_budget) << request.request;
    for (const auto& stage : request.path) {
      EXPECT_GT(stage.planned_ms, 0.0)
          << "request " << request.request << " stage " << stage.stage;
      EXPECT_LE(stage.planned_ms, request.slo_ms);
    }
  }
}

TEST(Analysis, BaselineRunsFallBackToUniformBudgets) {
  exp::Scenario scenario = small_scenario();
  scenario.scheduler = exp::SchedulerKind::kInfless;
  const TraceDataset dataset = run_with_analysis(scenario);
  CriticalPathResult paths = obs::analysis::reconstruct_critical_paths(dataset);
  obs::analysis::attribute_slo_budgets(paths, dataset);
  ASSERT_GT(paths.requests.size(), 0u);
  for (const auto& request : paths.requests) {
    EXPECT_TRUE(request.uniform_budget) << request.request;
    const double uniform =
        request.slo_ms / static_cast<double>(request.path.size());
    for (const auto& stage : request.path) {
      EXPECT_DOUBLE_EQ(stage.planned_ms, uniform);
    }
  }
}

TEST(Analysis, EveryMissGetsADominantCause) {
  const TraceDataset dataset = run_with_analysis(overloaded_scenario());
  CriticalPathResult paths = obs::analysis::reconstruct_critical_paths(dataset);
  obs::analysis::attribute_slo_budgets(paths, dataset);
  ASSERT_GT(paths.requests.size(), 0u);
  std::size_t misses = 0;
  for (const auto& request : paths.requests) {
    if (request.hit) {
      EXPECT_TRUE(request.miss_cause.empty());
      continue;
    }
    ++misses;
    EXPECT_FALSE(request.miss_cause.empty()) << request.request;
    EXPECT_NE(request.miss_cause.find("@stage"), std::string::npos)
        << request.miss_cause;
  }
  // The overloaded cluster must actually miss, or the test proves nothing.
  EXPECT_GT(misses, 0u);
}

TEST(Analysis, ReportAggregatesConsistently) {
  const TraceDataset dataset = run_with_analysis(overloaded_scenario());
  const AttributionReport report = obs::analysis::build_report(dataset);
  ASSERT_GT(report.requests, 0u);
  EXPECT_EQ(report.unreconstructed, 0u);

  std::size_t app_requests = 0;
  std::size_t app_misses = 0;
  for (const auto& app : report.apps) {
    app_requests += app.requests;
    app_misses += app.misses;
    EXPECT_GT(app.slo_ms, 0.0);
    EXPECT_LE(app.latency_ms.p50, app.latency_ms.p95);
    EXPECT_LE(app.latency_ms.p95, app.latency_ms.p99);
    EXPECT_FALSE(app.stages.empty());
  }
  EXPECT_EQ(app_requests, report.requests);
  EXPECT_EQ(app_misses, report.misses);

  std::size_t cause_total = 0;
  for (const auto& [cause, count] : report.miss_causes) cause_total += count;
  EXPECT_EQ(cause_total, report.misses);

  // ESG re-plans queues mid-workflow; the replan series must be present.
  EXPECT_FALSE(report.replans.empty());

  const std::string table = obs::analysis::render_report_table(report);
  EXPECT_NE(table.find("attribution:"), std::string::npos);
}

TEST(Analysis, OnlineAndOfflineReportsAreByteIdentical) {
  std::ostringstream trace_stream;
  const TraceDataset online = run_with_analysis(small_scenario(), &trace_stream);

  const std::string online_json = report_json(obs::analysis::build_report(online));

  std::istringstream trace_in(trace_stream.str());
  const TraceDataset offline = obs::analysis::read_chrome_trace(trace_in);
  const std::string offline_json =
      report_json(obs::analysis::build_report(offline));

  ASSERT_GT(online.spans.size(), 0u);
  EXPECT_EQ(online.spans.size(), offline.spans.size());
  EXPECT_EQ(online.instants.size(), offline.instants.size());
  EXPECT_EQ(online_json, offline_json);
  EXPECT_NE(online_json.find("\"schema\":\"esg.attribution.v1\""),
            std::string::npos);
}

TEST(Analysis, ReportJsonMeetsItsSchema) {
  // The report contract downstream tools read: schema tag, every request
  // reconstructed, and the miss causes accounting for every miss.
  for (const exp::Scenario& scenario :
       {small_scenario(), overloaded_scenario()}) {
    const json::Value report = json::parse(
        report_json(obs::analysis::build_report(run_with_analysis(scenario))),
        "report");
    const json::Value* schema = report.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->text, "esg.attribution.v1");
    const json::Value* requests = report.find("requests");
    ASSERT_NE(requests, nullptr);
    EXPECT_GT(requests->number, 0.0);
    const json::Value* unreconstructed = report.find("unreconstructed");
    ASSERT_NE(unreconstructed, nullptr);
    EXPECT_EQ(unreconstructed->number, 0.0);
    const json::Value* misses = report.find("misses");
    const json::Value* causes = report.find("miss_causes");
    ASSERT_NE(misses, nullptr);
    ASSERT_NE(causes, nullptr);
    ASSERT_EQ(causes->kind, json::Value::Kind::kObject);
    double cause_total = 0.0;
    for (const json::Member& cause : causes->members) {
      cause_total += cause.second.number;
    }
    EXPECT_EQ(cause_total, misses->number);
  }
}

TEST(Analysis, ReportEscapesTenantNamesReadFromATrace) {
  // Tenant names reach the report from trace args, and a hand-edited trace
  // can hold any string there.
  exp::Scenario scenario = small_scenario();
  scenario.tenants = tenant::parse_tenant_spec("gold:3;bronze:1");
  std::ostringstream trace_stream;
  (void)run_with_analysis(scenario, &trace_stream);
  std::string text = trace_stream.str();
  const std::string from = "\"tenant\":\"gold\"";
  const std::string to = "\"tenant\":\"go\\\"ld\"";
  std::size_t replaced = 0;
  for (std::size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size()), ++replaced) {
    text.replace(pos, from.size(), to);
  }
  ASSERT_GT(replaced, 0u);

  std::istringstream in(text);
  const TraceDataset dataset = obs::analysis::read_chrome_trace(in);
  const json::Value report =
      json::parse(report_json(obs::analysis::build_report(dataset)), "report");
  const json::Value* tenants = report.find("tenants");
  ASSERT_NE(tenants, nullptr);
  bool found = false;
  for (const json::Value& t : tenants->items) {
    found = found || t.find("tenant")->text == "go\"ld";
  }
  EXPECT_TRUE(found);
}

TEST(Analysis, ReaderAcceptsTheTraceEventsObjectForm) {
  std::ostringstream trace_stream;
  (void)run_with_analysis(small_scenario(), &trace_stream);
  std::istringstream bare(trace_stream.str());
  std::istringstream wrapped("{\"displayTimeUnit\":\"ms\",\"traceEvents\":" +
                             trace_stream.str() + ",\"otherData\":{}}");
  const TraceDataset a = obs::analysis::read_chrome_trace(bare);
  const TraceDataset b = obs::analysis::read_chrome_trace(wrapped);

  ASSERT_GT(a.spans.size(), 0u);
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    const obs::Span& x = a.spans[i];
    const obs::Span& y = b.spans[i];
    EXPECT_TRUE(x.kind == y.kind && x.name == y.name &&
                x.track.pid == y.track.pid && x.track.tid == y.track.tid &&
                x.start_ms == y.start_ms && x.end_ms == y.end_ms &&
                x.args == y.args)
        << "span " << i;
  }
  ASSERT_EQ(a.instants.size(), b.instants.size());
  for (std::size_t i = 0; i < a.instants.size(); ++i) {
    const obs::Instant& x = a.instants[i];
    const obs::Instant& y = b.instants[i];
    EXPECT_TRUE(x.kind == y.kind && x.name == y.name &&
                x.track.pid == y.track.pid && x.track.tid == y.track.tid &&
                x.at_ms == y.at_ms && x.args == y.args)
        << "instant " << i;
  }

  for (const char* bad : {"{\"traceEvents\":1}", "{\"traceEvents\":{}}",
                          "{\"other\":[]}",
                          "{\"traceEvents\":[],\"traceEvents\":[]}"}) {
    std::istringstream in(bad);
    EXPECT_THROW((void)obs::analysis::read_chrome_trace(in),
                 std::invalid_argument)
        << bad;
  }
}

TEST(Analysis, ReaderRejectsDeepNestingWithoutCrashing) {
  // One stack frame per level would overflow long before 100,000 levels.
  std::istringstream arrays(std::string(100000, '['));
  EXPECT_THROW((void)obs::analysis::read_chrome_trace(arrays),
               std::invalid_argument);
  std::string objects = "[";
  for (int i = 0; i < 100000; ++i) objects += "{\"args\":";
  std::istringstream in_event(objects);
  EXPECT_THROW((void)obs::analysis::read_chrome_trace(in_event),
               std::invalid_argument);
}

TEST(Analysis, ReaderRejectsIdsThatAreNotUint32) {
  for (const char* pid : {"-1", "4294967296", "1.5", "\"1\""}) {
    std::istringstream in(
        std::string("[{\"name\":\"a\",\"cat\":\"request\",\"ph\":\"X\","
                    "\"ts\":0,\"dur\":1,\"pid\":") +
        pid + ",\"tid\":1}]");
    EXPECT_THROW((void)obs::analysis::read_chrome_trace(in),
                 std::invalid_argument)
        << pid;
  }
}

TEST(Analysis, ReaderRejectsDuplicateObjectKeys) {
  // A duplicated column in a hand-edited trace is corruption, not data; the
  // reader must name the line instead of silently keeping one value.
  std::istringstream dup(
      "[{\"ph\":\"X\",\"name\":\"a\",\"cat\":\"request\",\"ph\":\"X\","
      "\"ts\":0,\"dur\":1,\"pid\":1,\"tid\":1}]");
  try {
    (void)obs::analysis::read_chrome_trace(dup);
    FAIL() << "duplicate key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate object key"),
              std::string::npos)
        << e.what();
  }
}

TEST(Analysis, ReaderRejectsGarbage) {
  // invalid_argument, so esg_report maps malformed traces to its
  // configuration-error exit code (2) instead of a runtime failure (1).
  std::istringstream not_json("this is not a trace");
  EXPECT_THROW(obs::analysis::read_chrome_trace(not_json),
               std::invalid_argument);
  std::istringstream wrong_shape("{\"foo\": 1}");
  EXPECT_THROW(obs::analysis::read_chrome_trace(wrong_shape),
               std::invalid_argument);
}

}  // namespace
}  // namespace esg
