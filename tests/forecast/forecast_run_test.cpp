// End-to-end forecast wiring through exp::run_scenario: enabling a
// predictor keeps runs deterministic (same seed, bit-identical outputs —
// including the proactive prewarm path it drives), the inert spec changes
// nothing, and the accuracy/counters surface is populated exactly when a
// forecaster ran: in RunOutput, in the stats JSONL's forecast gauges and in
// the attribution report's forecast_accuracy section, both read back with
// common/json.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "elastic/elastic_spec.hpp"
#include "exp/scenario.hpp"
#include "forecast/forecast_spec.hpp"
#include "obs/analysis/attribution.hpp"
#include "obs/analysis/dataset.hpp"
#include "obs/recorder.hpp"
#include "obs/sinks.hpp"
#include "perf/counters.hpp"

namespace esg::exp {
namespace {

Scenario forecast_scenario(const char* spec) {
  Scenario s;
  s.scheduler = SchedulerKind::kEsg;
  s.load = workload::LoadSetting::kLight;
  s.slo = workload::SloSetting::kRelaxed;
  s.horizon_ms = 4'000.0;
  s.seed = 11;
  s.forecast = forecast::parse_forecast_spec(spec);
  return s;
}

TEST(ForecastRun, EnabledForecasterKeepsRunsDeterministic) {
  const Scenario s = forecast_scenario("ewma:alpha=0.5;lead-ms=1000,bin-ms=500");
  const RunOutput a = run_scenario(s);
  const RunOutput b = run_scenario(s);
  EXPECT_EQ(a.metrics.requests(), b.metrics.requests());
  EXPECT_EQ(a.metrics.total_cost, b.metrics.total_cost);
  EXPECT_EQ(a.metrics.cold_starts, b.metrics.cold_starts);
  for (const perf::CounterField& f : perf::kCounterFields) {
    EXPECT_EQ(a.counters.*f.member, b.counters.*f.member) << f.name;
  }
  // The forecaster actually ran and was consulted by its consumers.
  EXPECT_GT(a.counters.forecasts_issued, 0u);
  EXPECT_GT(a.counters.forecasts_consumed, 0u);
}

TEST(ForecastRun, AccuracyIsReportedPerApp) {
  const RunOutput out =
      run_scenario(forecast_scenario("last-bin;bin-ms=500"));
  ASSERT_FALSE(out.forecast_accuracy.empty());
  bool any_scored = false;
  for (const auto& acc : out.forecast_accuracy) {
    if (acc.bins == 0) continue;
    any_scored = true;
    EXPECT_GE(acc.mae, 0.0);
    EXPECT_GE(acc.smape, 0.0);
    EXPECT_LE(acc.smape, 2.0);  // sMAPE is bounded by construction
    EXPECT_GE(acc.realized_mean, 0.0);
  }
  EXPECT_TRUE(any_scored);  // a 4 s run closes many 500 ms bins
}

TEST(ForecastRun, InertSpecIsInvisible) {
  // "none" must run the exact legacy path: identical metrics and counters
  // to a scenario that never mentions forecasting, and no accuracy rows.
  Scenario off = forecast_scenario("none");
  Scenario unset = off;
  unset.forecast = forecast::ForecastSpec{};
  const RunOutput a = run_scenario(off);
  const RunOutput b = run_scenario(unset);
  EXPECT_EQ(a.metrics.total_cost, b.metrics.total_cost);
  EXPECT_EQ(a.metrics.requests(), b.metrics.requests());
  for (const perf::CounterField& f : perf::kCounterFields) {
    EXPECT_EQ(a.counters.*f.member, b.counters.*f.member) << f.name;
  }
  EXPECT_EQ(a.counters.forecasts_issued, 0u);
  EXPECT_EQ(a.counters.forecasts_consumed, 0u);
  EXPECT_TRUE(a.forecast_accuracy.empty());
}

TEST(ForecastRun, ElasticForecastPolicyNeedsAForecaster) {
  Scenario s = forecast_scenario("none");
  s.elastic = elastic::parse_elastic_spec("forecast");
  EXPECT_THROW(run_scenario(s), std::invalid_argument);
  s.forecast = forecast::parse_forecast_spec("ewma;lead-ms=1000");
  const RunOutput out = run_scenario(s);  // with a forecaster it runs fine
  EXPECT_GT(out.counters.forecasts_consumed, 0u);
}

TEST(ForecastRun, ProactivePrewarmAccountingStaysCoherent) {
  const RunOutput out =
      run_scenario(forecast_scenario("ewma:alpha=0.7;lead-ms=500,bin-ms=250"));
  // Proactive warming flows through the shared issued/skipped accounting;
  // both counters are plumbed into the merged RunOutput view.
  EXPECT_GT(out.counters.prewarms_issued + out.counters.prewarms_skipped, 0u);
}

/// A run's stats JSONL and attribution report, as `esg_sim --stats-out
/// --report-out` writes them.
struct Artefacts {
  std::string stats;
  json::Value report;
};

Artefacts run_artefacts(const Scenario& s) {
  std::ostringstream stats;
  obs::TraceRecorder recorder;
  recorder.add_sink(std::make_unique<obs::JsonlStatsSink>(stats));
  auto sink = std::make_unique<obs::analysis::AnalysisSink>();
  const obs::analysis::AnalysisSink* analysis = sink.get();
  recorder.add_sink(std::move(sink));
  (void)run_scenario(s, &recorder);
  std::ostringstream report;
  obs::analysis::write_report_json(
      obs::analysis::build_report(analysis->dataset()), report);
  return {stats.str(), json::parse(report.str(), "report")};
}

/// esg_sim's defaults on 4 nodes, with a forecaster when `spec` is set.
Scenario cli_scenario(TimeMs horizon_ms, const char* spec) {
  Scenario s;
  s.nodes = 4;
  s.horizon_ms = horizon_ms;
  if (spec != nullptr) s.forecast = forecast::parse_forecast_spec(spec);
  return s;
}

constexpr const char* kSeasonal =
    "seasonal:period-ms=15000,bins=30;lead-ms=3000,bin-ms=500";

TEST(ForecastRun, StatsCarryTheAccuracyGauges) {
  const Artefacts run = run_artefacts(cli_scenario(3'000.0, kSeasonal));
  std::set<std::string> prefixes;
  std::istringstream lines(run.stats);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;
    const json::Value row = json::parse(line, "stats line");
    const json::Value* name = row.find("name");
    ASSERT_NE(name, nullptr) << line;
    for (const char* prefix :
         {"forecast/predicted/", "forecast/mae/", "forecast/smape/"}) {
      if (name->text.starts_with(prefix)) prefixes.insert(prefix);
    }
  }
  EXPECT_EQ(prefixes, (std::set<std::string>{"forecast/predicted/",
                                             "forecast/mae/",
                                             "forecast/smape/"}));
}

TEST(ForecastRun, ReportScoresEveryForecastRow) {
  const Artefacts run = run_artefacts(cli_scenario(3'000.0, kSeasonal));
  const json::Value* rows = run.report.find("forecast_accuracy");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->kind, json::Value::Kind::kArray);
  ASSERT_FALSE(rows->items.empty());
  for (const json::Value& row : rows->items) {
    const json::Value* bins = row.find("bins");
    const json::Value* smape = row.find("smape");
    ASSERT_NE(bins, nullptr);
    ASSERT_NE(smape, nullptr);
    EXPECT_GT(bins->number, 0.0);
    EXPECT_GE(smape->number, 0.0);
    EXPECT_LE(smape->number, 2.0);  // sMAPE is bounded by construction
  }
}

TEST(ForecastRun, PlainReportHasNoForecastSection) {
  const Artefacts run = run_artefacts(cli_scenario(2'000.0, nullptr));
  EXPECT_NE(run.report.find("requests"), nullptr);
  EXPECT_EQ(run.report.find("forecast_accuracy"), nullptr);
  EXPECT_EQ(run.stats.find("forecast/"), std::string::npos);
}

}  // namespace
}  // namespace esg::exp
