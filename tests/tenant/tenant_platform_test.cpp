// Acceptance suite for multi-tenant fair queueing on the platform
// (DESIGN.md §12):
//
//  - an inert --tenants spec reproduces the no-tenant run byte-identically
//    for all five paper schedulers (trace bytes and metrics alike);
//  - a two-tenant MQFQ-Sticky replay is deterministic;
//  - every completion carries its owning tenant and the per-tenant split
//    partitions the run's requests exactly;
//  - the critical-path decomposition still telescopes on tenanted runs that
//    shed at admission and retry after faults;
//  - isolation: MQFQ-Sticky with equal weights keeps the steady tenant's
//    p99 strictly below the undefended shared-queue ESG run on the same
//    bursty-neighbor workload, and a 3:1 weight split measurably shifts
//    attainment toward the favored tenant;
//  - the stats JSONL, attribution report and per_tenant.csv of a
//    two-tenant esg_sim-shaped run, read back with common/json, carry
//    every tenant's gauges and roll the run up per tenant.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "elastic/elastic_spec.hpp"
#include "exp/scenario.hpp"
#include "fault/fault_spec.hpp"
#include "metrics/export.hpp"
#include "obs/analysis/attribution.hpp"
#include "obs/analysis/critical_path.hpp"
#include "obs/analysis/dataset.hpp"
#include "obs/recorder.hpp"
#include "obs/sinks.hpp"
#include "tenant/tenant_spec.hpp"
#include "trace/workload_trace.hpp"

namespace esg {
namespace {

constexpr std::uint32_t kSteadyApps[] = {0, 1};
constexpr std::uint32_t kBurstyApps[] = {2, 3};

/// Steady tenant at a constant rate, neighbor spiking 1 bin in 10 (same
/// shape as bench_fairness, scaled down). `tenanted` controls whether the
/// trace carries the tenant column — without it the run takes the legacy
/// single-tenant path.
std::shared_ptr<const trace::WorkloadTrace> bursty_trace(std::size_t bins,
                                                         bool tenanted) {
  trace::WorkloadTrace t;
  t.bin_ms = 1000.0;
  t.app_count = 4;
  t.tenant_count = tenanted ? 2 : 1;
  for (std::size_t b = 0; b < bins; ++b) {
    for (const std::uint32_t app : kSteadyApps) t.rows.push_back({b, app, 2.0, 0});
    if (b % 10 != 0) continue;
    for (const std::uint32_t app : kBurstyApps) {
      t.rows.push_back({b, app, 30.0, tenanted ? 1u : 0u});
    }
  }
  return std::make_shared<const trace::WorkloadTrace>(std::move(t));
}

exp::Scenario contended_scenario(bool tenanted, const std::string& spec,
                                 exp::SchedulerKind kind) {
  exp::Scenario scenario;
  scenario.scheduler = kind;
  scenario.nodes = 6;
  scenario.seed = 42;
  scenario.horizon_ms = 30'000.0;
  scenario.warmup_ms = 5'000.0;
  scenario.arrivals.mode = exp::ArrivalMode::kTrace;
  scenario.arrivals.trace = bursty_trace(30, tenanted);
  if (!spec.empty()) scenario.tenants = tenant::parse_tenant_spec(spec);
  return scenario;
}

struct TracedRun {
  std::string trace;
  exp::RunOutput output;
};

TracedRun traced_run(const exp::Scenario& scenario) {
  std::ostringstream trace_stream;
  TracedRun run;
  {
    obs::TraceRecorder recorder;
    recorder.add_sink(std::make_unique<obs::ChromeTraceSink>(trace_stream));
    run.output = exp::run_scenario(scenario, &recorder);
  }
  run.trace = trace_stream.str();
  return run;
}

double tenant_p99(const exp::RunOutput& output,
                  std::span<const std::uint32_t> apps) {
  std::vector<double> latencies;
  for (const auto& c : output.metrics.completions) {
    if (std::find(apps.begin(), apps.end(), c.app.get()) == apps.end()) continue;
    if (!c.shed) latencies.push_back(c.latency_ms);
  }
  return percentile(std::move(latencies), 0.99);
}

double tenant_hit_rate(const exp::RunOutput& output, std::uint32_t tenant) {
  std::size_t requests = 0, hits = 0;
  for (const auto& c : output.metrics.completions) {
    if (c.tenant != tenant) continue;
    ++requests;
    if (c.hit) ++hits;
  }
  return requests > 0 ? static_cast<double>(hits) / requests : 0.0;
}

// --- byte-identity contract ---------------------------------------------

TEST(TenantPlatform, InertSpecIsByteIdenticalForEveryScheduler) {
  for (const exp::SchedulerKind kind : exp::all_schedulers()) {
    exp::Scenario baseline;
    baseline.scheduler = kind;
    baseline.nodes = 4;
    baseline.horizon_ms = 2'000.0;
    baseline.seed = 7;
    const TracedRun plain = traced_run(baseline);

    exp::Scenario tenanted = baseline;
    tenanted.tenants = tenant::parse_tenant_spec("solo:1");
    ASSERT_TRUE(tenanted.tenants.inert());
    const TracedRun inert = traced_run(tenanted);

    ASSERT_GT(plain.trace.size(), 0u);
    EXPECT_EQ(plain.trace, inert.trace)
        << "scheduler " << exp::to_string(kind);
    EXPECT_EQ(plain.output.metrics.total_cost,
              inert.output.metrics.total_cost);
    ASSERT_EQ(plain.output.metrics.completions.size(),
              inert.output.metrics.completions.size());
    for (std::size_t i = 0; i < plain.output.metrics.completions.size(); ++i) {
      EXPECT_EQ(plain.output.metrics.completions[i].latency_ms,
                inert.output.metrics.completions[i].latency_ms);
      EXPECT_EQ(inert.output.metrics.completions[i].tenant, 0u);
    }
  }
}

TEST(TenantPlatform, TwoTenantMqfqReplayIsDeterministic) {
  const auto scenario = contended_scenario(
      true, "steady:1:apps=0,1;bursty:1:apps=2,3",
      exp::SchedulerKind::kMqfqSticky);
  const TracedRun a = traced_run(scenario);
  const TracedRun b = traced_run(scenario);
  ASSERT_GT(a.trace.size(), 0u);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.output.metrics.total_cost, b.output.metrics.total_cost);
  ASSERT_EQ(a.output.metrics.completions.size(),
            b.output.metrics.completions.size());
}

// --- per-tenant accounting ----------------------------------------------

TEST(TenantPlatform, CompletionsPartitionAcrossTenants) {
  const auto scenario = contended_scenario(
      true, "steady:1:apps=0,1;bursty:1:apps=2,3",
      exp::SchedulerKind::kMqfqSticky);
  const exp::RunOutput output = exp::run_scenario(scenario);
  ASSERT_GT(output.metrics.completions.size(), 0u);

  std::size_t by_tenant[2] = {0, 0};
  for (const auto& c : output.metrics.completions) {
    ASSERT_LT(c.tenant, 2u);
    ++by_tenant[c.tenant];
    // The static app->tenant map and the trace column must agree.
    const bool steady_app =
        std::find(std::begin(kSteadyApps), std::end(kSteadyApps),
                  c.app.get()) != std::end(kSteadyApps);
    EXPECT_EQ(c.tenant, steady_app ? 0u : 1u);
  }
  EXPECT_GT(by_tenant[0], 0u);
  EXPECT_GT(by_tenant[1], 0u);
  EXPECT_EQ(by_tenant[0] + by_tenant[1], output.metrics.completions.size());
}

// --- decomposition survives tenancy + sheds + retries -------------------

TEST(TenantPlatform, DecompositionTelescopesWithShedsAndRetries) {
  exp::Scenario scenario = contended_scenario(
      true, "steady:1:apps=0,1;bursty:1:apps=2,3",
      exp::SchedulerKind::kMqfqSticky);
  scenario.horizon_ms = 10'000.0;
  scenario.arrivals.trace = bursty_trace(10, true);
  scenario.nodes = 2;
  scenario.elastic = elastic::parse_elastic_spec(
      "queue:min=1,max=2,out=1,idle-ms=2000,provision-ms=500,shed=on");
  scenario.fault = fault::parse_fault_spec("dispatch:prob=0.05");

  obs::TraceRecorder recorder;
  auto sink = std::make_unique<obs::analysis::AnalysisSink>();
  const auto* analysis = sink.get();
  recorder.add_sink(std::move(sink));
  const exp::RunOutput output = exp::run_scenario(scenario, &recorder);

  // The run must actually exercise both hazards, or this proves little.
  EXPECT_GT(output.metrics.retries, 0u);
  EXPECT_GT(output.metrics.shed_requests, 0u);

  const obs::analysis::CriticalPathResult paths =
      obs::analysis::reconstruct_critical_paths(analysis->dataset());
  ASSERT_GT(paths.requests.size(), 0u);
  EXPECT_EQ(paths.unreconstructed, 0u);
  for (const auto& request : paths.requests) {
    double component_sum = 0.0;
    for (const auto& stage : request.path) {
      component_sum += stage.component_sum_ms();
    }
    EXPECT_NEAR(component_sum, request.latency_ms(), 1e-6)
        << "request " << request.request;
  }
}

// --- isolation ----------------------------------------------------------

TEST(TenantPlatform, MqfqShieldsSteadyTenantFromBurstyNeighbor) {
  // Undefended: no tenant column, no spec — one shared queue per stage.
  const exp::RunOutput undefended = exp::run_scenario(
      contended_scenario(false, "", exp::SchedulerKind::kEsg));
  // Defended: same arrivals, MQFQ-Sticky with equal weights.
  const exp::RunOutput defended = exp::run_scenario(contended_scenario(
      true, "steady:1:apps=0,1;bursty:1:apps=2,3",
      exp::SchedulerKind::kMqfqSticky));

  const double undefended_p99 = tenant_p99(undefended, kSteadyApps);
  const double defended_p99 = tenant_p99(defended, kSteadyApps);
  ASSERT_GT(undefended_p99, 0.0);
  ASSERT_GT(defended_p99, 0.0);
  EXPECT_LT(defended_p99, undefended_p99);
}

TEST(TenantPlatform, WeightsShiftAttainmentTowardFavoredTenant) {
  // Weights only bite when the favored flow is itself backlogged, so this
  // test saturates both tenants with flat demand and varies only the split.
  trace::WorkloadTrace flat;
  flat.bin_ms = 1000.0;
  flat.app_count = 4;
  flat.tenant_count = 2;
  for (std::size_t b = 0; b < 20; ++b) {
    for (std::uint32_t app = 0; app < 4; ++app) {
      flat.rows.push_back({b, app, 6.0, app < 2 ? 0u : 1u});
    }
  }
  const auto trace_ptr =
      std::make_shared<const trace::WorkloadTrace>(std::move(flat));

  const auto saturated = [&](const std::string& spec) {
    exp::Scenario scenario;
    scenario.scheduler = exp::SchedulerKind::kMqfqSticky;
    scenario.nodes = 4;
    scenario.seed = 42;
    scenario.horizon_ms = 20'000.0;
    scenario.warmup_ms = 4'000.0;
    scenario.arrivals.mode = exp::ArrivalMode::kTrace;
    scenario.arrivals.trace = trace_ptr;
    scenario.tenants = tenant::parse_tenant_spec(spec);
    return exp::run_scenario(scenario);
  };
  const exp::RunOutput equal =
      saturated("gold:1:apps=0,1;bronze:1:apps=2,3");
  const exp::RunOutput favored =
      saturated("gold:3:apps=0,1;bronze:1:apps=2,3");

  // Tripling gold's weight must measurably raise its attainment relative to
  // the equal split on the identical workload.
  EXPECT_GT(tenant_hit_rate(favored, 0), tenant_hit_rate(equal, 0));
}

// --- artefacts, read back with common/json ------------------------------

/// The two-tenant MQFQ-Sticky run of EsgSim.FairnessSmoke
/// (tenant/esg_sim_fairness.cmake): esg_sim's defaults on 4 nodes.
exp::Scenario fairness_smoke_scenario() {
  exp::Scenario scenario;
  scenario.scheduler = exp::SchedulerKind::kMqfqSticky;
  scenario.nodes = 4;
  scenario.horizon_ms = 3'000.0;
  scenario.tenants =
      tenant::parse_tenant_spec("gold:3:apps=0,2;bronze:1:energy:apps=1,3;throttle=25");
  return scenario;
}

/// A run's stats JSONL, attribution report and per_tenant.csv, as
/// `esg_sim --stats-out --report-out --csv-dir` writes them.
struct Artefacts {
  std::string stats;
  json::Value report;
  std::string per_tenant_csv;
};

Artefacts run_artefacts(const exp::Scenario& scenario) {
  std::ostringstream stats;
  obs::TraceRecorder recorder;
  recorder.add_sink(std::make_unique<obs::JsonlStatsSink>(stats));
  auto sink = std::make_unique<obs::analysis::AnalysisSink>();
  const obs::analysis::AnalysisSink* analysis = sink.get();
  recorder.add_sink(std::move(sink));
  const exp::RunOutput output = exp::run_scenario(scenario, &recorder);
  std::ostringstream report;
  obs::analysis::write_report_json(
      obs::analysis::build_report(analysis->dataset()), report);
  std::vector<std::string> names;
  for (std::uint32_t t = 0; t < scenario.tenants.tenants.size(); ++t) {
    names.push_back(scenario.tenants.tenant_name(t));
  }
  std::ostringstream csv;
  metrics::write_per_tenant_summary_csv(output.metrics, names, "seed1", csv, true);
  return {stats.str(), json::parse(report.str(), "report"), csv.str()};
}

TEST(TenantPlatform, StatsCarryEveryTenantGauge) {
  const Artefacts run = run_artefacts(fairness_smoke_scenario());
  std::set<std::string> names;
  std::istringstream lines(run.stats);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;
    const json::Value row = json::parse(line, "stats line");
    const json::Value* name = row.find("name");
    ASSERT_NE(name, nullptr) << line;
    names.insert(name->text);
  }
  for (const char* tenant : {"gold", "bronze"}) {
    for (const char* gauge : {"tenant_vt", "tenant_backlog", "tenant_throttled"}) {
      EXPECT_TRUE(names.contains(std::string(gauge) + "/" + tenant))
          << gauge << "/" << tenant;
    }
  }
}

TEST(TenantPlatform, ReportAndCsvRollUpPerTenant) {
  const Artefacts run = run_artefacts(fairness_smoke_scenario());
  const json::Value* requests = run.report.find("requests");
  const json::Value* rows = run.report.find("tenants");
  ASSERT_NE(requests, nullptr);
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->kind, json::Value::Kind::kArray);
  std::set<std::string> reported;
  double sum = 0.0;
  for (const json::Value& row : rows->items) {
    const json::Value* tenant = row.find("tenant");
    const json::Value* tenant_requests = row.find("requests");
    ASSERT_NE(tenant, nullptr);
    ASSERT_NE(tenant_requests, nullptr);
    reported.insert(tenant->text);
    sum += tenant_requests->number;
  }
  const std::set<std::string> both = {"gold", "bronze"};
  EXPECT_EQ(reported, both);
  EXPECT_GT(requests->number, 0.0);
  EXPECT_EQ(sum, requests->number);

  // per_tenant.csv: a header naming the columns, then one row per tenant.
  std::istringstream lines(run.per_tenant_csv);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(header.starts_with("label,tenant,name,")) << header;
  std::set<std::string> listed;
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::string label, tenant, name;
    std::getline(fields, label, ',');
    std::getline(fields, tenant, ',');
    std::getline(fields, name, ',');
    listed.insert(name);
  }
  EXPECT_EQ(listed, both);
}

}  // namespace
}  // namespace esg
