// The layer clock only reads time (DESIGN.md §13). A run with a clock
// running must write the same trace, stats, report and CSVs, and produce the
// same RunMetrics and counters, as the same run without one: for every
// scheduler, and for a run that takes every instrumented path (faults, an
// elastic fleet with spot reclamation, two tenants, a forecaster).
//
// The esg.perf.v2 document is checked here as well: two runs agree on
// everything but the timings, and one document carries the schema's keys,
// sane counters and a layer table whose slots fill the window exactly.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "elastic/elastic_spec.hpp"
#include "exp/scenario.hpp"
#include "fault/fault_spec.hpp"
#include "forecast/forecast_spec.hpp"
#include "metrics/export.hpp"
#include "perf/layer_clock.hpp"
#include "tenant/tenant_spec.hpp"

namespace esg::perf {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// What one run leaves behind, every file read back as text.
struct Artefacts {
  exp::RunOutput out;
  std::vector<std::string> files;  ///< trace, stats, report, then the CSVs
};

Artefacts run_to_files(exp::Scenario scenario, const std::string& stem,
                       bool clocked) {
  scenario.trace.trace_path = stem + "_trace.json";
  scenario.trace.stats_path = stem + "_stats.jsonl";
  scenario.trace.report_path = stem + "_report.json";
  Artefacts run;
  {
    std::optional<LayerClock> clock;
    if (clocked) clock.emplace();
    run.out = exp::run_scenario(scenario);
  }
  for (const std::string* path :
       {&scenario.trace.trace_path, &scenario.trace.stats_path,
        &scenario.trace.report_path}) {
    run.files.push_back(slurp(*path));
  }
  const metrics::RunMetrics& m = run.out.metrics;
  const tenant::TenantSpec tenants =
      tenant::resolve_for_trace(scenario.tenants, 1);
  std::vector<std::string> names;
  for (std::uint32_t t = 0; t < tenants.tenants.size(); ++t) {
    names.push_back(tenants.tenant_name(t));
  }
  std::ostringstream completions, tasks, summary, per_app, per_tenant;
  metrics::write_completions_csv(m, completions);
  metrics::write_task_trace_csv(m, tasks);
  metrics::write_summary_csv(m, "run", summary, true);
  metrics::write_per_app_summary_csv(m, "run", per_app, true);
  metrics::write_per_tenant_summary_csv(m, names, "run", per_tenant, true);
  for (const std::ostringstream* csv :
       {&completions, &tasks, &summary, &per_app, &per_tenant}) {
    run.files.push_back(csv->str());
  }
  return run;
}

/// Every deterministic part of a RunOutput; the CSVs cover the records.
void expect_same_outcome(const exp::RunOutput& a, const exp::RunOutput& b) {
  const metrics::RunMetrics& x = a.metrics;
  const metrics::RunMetrics& y = b.metrics;
  EXPECT_EQ(x.requests(), y.requests());
  EXPECT_EQ(x.total_cost, y.total_cost);
  EXPECT_EQ(x.cost_by_app, y.cost_by_app);
  EXPECT_EQ(x.plan_overhead_ms, y.plan_overhead_ms);
  EXPECT_EQ(x.plan_wall_clock_ms.size(), y.plan_wall_clock_ms.size());
  EXPECT_EQ(x.job_wait_ms, y.job_wait_ms);
  const std::size_t metrics::RunMetrics::*kCounts[] = {
      &metrics::RunMetrics::tasks,
      &metrics::RunMetrics::cold_starts,
      &metrics::RunMetrics::warm_starts,
      &metrics::RunMetrics::local_inputs,
      &metrics::RunMetrics::remote_inputs,
      &metrics::RunMetrics::plan_uses,
      &metrics::RunMetrics::plan_misses,
      &metrics::RunMetrics::forced_min_dispatches,
      &metrics::RunMetrics::task_failures,
      &metrics::RunMetrics::task_timeouts,
      &metrics::RunMetrics::retries,
      &metrics::RunMetrics::retries_exhausted,
      &metrics::RunMetrics::cold_start_failures,
      &metrics::RunMetrics::invoker_crashes,
      &metrics::RunMetrics::shed_requests,
      &metrics::RunMetrics::spot_reclaims,
      &metrics::RunMetrics::scale_outs,
      &metrics::RunMetrics::scale_ins,
  };
  for (const auto count : kCounts) EXPECT_EQ(x.*count, y.*count);
  for (const CounterField& f : kCounterFields) {
    EXPECT_EQ(a.counters.*f.member, b.counters.*f.member) << f.name;
  }
  EXPECT_EQ(a.simulated_end_ms, b.simulated_end_ms);
  EXPECT_EQ(a.truncated, b.truncated);
  ASSERT_EQ(a.forecast_accuracy.size(), b.forecast_accuracy.size());
  for (std::size_t i = 0; i < a.forecast_accuracy.size(); ++i) {
    EXPECT_EQ(a.forecast_accuracy[i].mae, b.forecast_accuracy[i].mae);
    EXPECT_EQ(a.forecast_accuracy[i].smape, b.forecast_accuracy[i].smape);
    EXPECT_EQ(a.forecast_accuracy[i].bins, b.forecast_accuracy[i].bins);
  }
}

std::uint64_t slot_sum(const LayerTimes& times) {
  std::uint64_t sum = 0;
  for (const std::uint64_t ns : times.self_ns) sum += ns;
  return sum;
}

void expect_clock_changes_nothing(const exp::Scenario& scenario,
                                  const std::string& name) {
  SCOPED_TRACE(name);
  const std::string stem = ::testing::TempDir() + "/clocked_run_" + name;
  const Artefacts plain = run_to_files(scenario, stem + "_plain", false);
  const Artefacts clocked = run_to_files(scenario, stem + "_clocked", true);

  ASSERT_EQ(plain.files.size(), clocked.files.size());
  for (std::size_t i = 0; i < plain.files.size(); ++i) {
    EXPECT_FALSE(plain.files[i].empty()) << "file " << i;
    EXPECT_TRUE(plain.files[i] == clocked.files[i]) << "file " << i;
  }
  expect_same_outcome(plain.out, clocked.out);

  EXPECT_EQ(plain.out.layers.window_ns, 0u);
  EXPECT_EQ(slot_sum(plain.out.layers), 0u);
  const LayerTimes& layers = clocked.out.layers;
  EXPECT_GT(layers.window_ns, 0u);
  EXPECT_EQ(slot_sum(layers), layers.window_ns);
  for (const Layer layer : {Layer::kSetup, Layer::kEngine, Layer::kScan,
                            Layer::kPlan, Layer::kDispatch, Layer::kSinks,
                            Layer::kAttribution}) {
    EXPECT_GT(layers.self_ns[static_cast<std::size_t>(layer)], 0u)
        << kLayerNames[static_cast<std::size_t>(layer)];
  }
}

TEST(ClockedRun, EverySchedulerWritesTheSameArtefacts) {
  const exp::SchedulerKind kinds[] = {
      exp::SchedulerKind::kEsg,      exp::SchedulerKind::kInfless,
      exp::SchedulerKind::kFastGshare, exp::SchedulerKind::kOrion,
      exp::SchedulerKind::kAquatope, exp::SchedulerKind::kMqfqSticky};
  for (const exp::SchedulerKind kind : kinds) {
    exp::Scenario scenario;
    scenario.scheduler = kind;
    scenario.horizon_ms = 1'500.0;
    scenario.nodes = 8;
    expect_clock_changes_nothing(scenario,
                                 std::string(exp::to_string(kind)));
  }
}

TEST(ClockedRun, ChurnRunWritesTheSameArtefacts) {
  exp::Scenario scenario;
  scenario.scheduler = exp::SchedulerKind::kInfless;
  scenario.slo = workload::SloSetting::kModerate;
  scenario.horizon_ms = 6'000.0;
  scenario.nodes = 8;
  scenario.tenants = tenant::parse_tenant_spec("gold:3:apps=0,2;bronze:1:apps=1,3");
  scenario.elastic = elastic::parse_elastic_spec(
      "queue:min=4,max=12,out=4,idle-ms=1000,provision-ms=300,shed=on,"
      "shed-margin=1.5");
  scenario.fault = fault::parse_fault_spec(
      "dispatch:prob=0.02;coldstart:prob=0.05;"
      "crash:invoker=1,at=1500,down=1000;spot:at=3000,nodes=2");
  scenario.forecast =
      forecast::parse_forecast_spec("ewma;bin-ms=500,lead-ms=1000");
  expect_clock_changes_nothing(scenario, "churn");
}

json::Value perf_document(const std::string& name) {
  exp::Scenario scenario;
  scenario.horizon_ms = 2'000.0;
  scenario.trace.perf_path = ::testing::TempDir() + "/clocked_run_" + name;
  (void)exp::run_scenario(scenario);
  return json::parse(slurp(scenario.trace.perf_path), name);
}

const json::Value& member(const json::Value& object, const char* key) {
  const json::Value* value = object.find(key);
  if (value == nullptr) throw std::invalid_argument(std::string("no ") + key);
  return *value;
}

std::set<std::string> keys(const json::Value& object) {
  std::set<std::string> out;
  for (const json::Member& m : object.members) out.insert(m.first);
  return out;
}

TEST(PerfDocument, TwoRunsAgreeOnEverythingButTimings) {
  const json::Value a = perf_document("perf_a.json");
  const json::Value b = perf_document("perf_b.json");
  const json::Value& a_counters = member(a, "counters");
  const json::Value& b_counters = member(b, "counters");
  ASSERT_EQ(keys(a_counters), keys(b_counters));
  for (const json::Member& m : a_counters.members) {
    EXPECT_EQ(m.second.text, member(b_counters, m.first.c_str()).text)
        << m.first;
  }
  for (const char* key : {"invocations", "simulated_ms"}) {
    EXPECT_EQ(member(member(a, "run"), key).text,
              member(member(b, "run"), key).text)
        << key;
  }
  EXPECT_EQ(keys(member(a, "layers")), keys(member(b, "layers")));
  EXPECT_EQ(keys(member(member(a, "layers"), "self_ns")),
            keys(member(member(b, "layers"), "self_ns")));
}

TEST(PerfDocument, MeetsItsSchema) {
  const json::Value doc = perf_document("perf_schema.json");
  EXPECT_EQ(member(doc, "schema").text, "esg.perf.v2");
  EXPECT_EQ(keys(member(doc, "meta")),
            (std::set<std::string>{"host", "kernel", "cpus", "commit"}));
  EXPECT_EQ(keys(member(doc, "run")),
            (std::set<std::string>{"scheduler", "seed", "simulated_ms",
                                   "wall_seconds", "invocations",
                                   "events_per_sec", "invocations_per_sec"}));

  const json::Value& counters = member(doc, "counters");
  const auto count = [&counters](const char* key) {
    return member(counters, key).number;
  };
  EXPECT_GT(count("events_fired"), 0.0);
  EXPECT_LE(count("events_fired"), count("events_scheduled"));
  EXPECT_LE(count("heap_pops"), count("heap_pushes"));

  const json::Value& layers = member(doc, "layers");
  EXPECT_EQ(keys(layers), (std::set<std::string>{"window_ns", "self_ns"}));
  const json::Value& self = member(layers, "self_ns");
  ASSERT_EQ(self.members.size(), kLayerCount);
  double sum = 0.0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    EXPECT_EQ(self.members[i].first, kLayerNames[i]);
    sum += self.members[i].second.number;
  }
  const double window = member(layers, "window_ns").number;
  EXPECT_GT(window, 0.0);
  EXPECT_EQ(sum, window);
}

}  // namespace
}  // namespace esg::perf
