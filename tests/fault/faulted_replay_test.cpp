// The resilience smoke run: esg_sim's defaults on 4 nodes for 2 s under
// every fault clause (`esg_sim --horizon-ms 2000 --nodes 4 --fault-spec
// <kFaultSpec> --trace-out --report-out`), with the artefacts kept in
// memory. Two runs give the same trace and report bytes, the offline
// reader rebuilds the report from the trace byte for byte, and the report,
// read back with common/json, gives each miss one cause, among them a fault
// or a spent retry budget.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "exp/cli.hpp"
#include "exp/scenario.hpp"
#include "obs/analysis/attribution.hpp"
#include "obs/analysis/dataset.hpp"
#include "obs/analysis/trace_reader.hpp"
#include "obs/recorder.hpp"
#include "obs/sinks.hpp"

namespace esg {
namespace {

constexpr const char* kFaultSpec =
    "dispatch:prob=0.15;coldstart:prob=0.2;crash:invoker=1,at=800,down=500;"
    "slow:invoker=0,at=200,for=1000,factor=2";

struct Artefacts {
  std::string trace;
  std::string report;
};

Artefacts faulted_run() {
  const std::vector<const char*> args{"--horizon-ms", "2000", "--nodes", "4",
                                      "--fault-spec", kFaultSpec};
  const exp::CliOptions opts = exp::parse_cli({args.data(), args.size()});
  exp::Scenario scenario = opts.scenario;
  scenario.seed = opts.seeds.front();
  std::ostringstream trace;
  std::ostringstream report;
  {
    obs::TraceRecorder recorder;
    recorder.add_sink(std::make_unique<obs::ChromeTraceSink>(trace));
    auto sink = std::make_unique<obs::analysis::AnalysisSink>();
    const obs::analysis::AnalysisSink* analysis = sink.get();
    recorder.add_sink(std::move(sink));
    (void)exp::run_scenario(scenario, &recorder);
    obs::analysis::write_report_json(
        obs::analysis::build_report(analysis->dataset()), report);
  }  // closes the trace's event array
  return {trace.str(), report.str()};
}

TEST(FaultedRun, ReplaysAndExplainsEveryMiss) {
  const Artefacts first = faulted_run();
  const Artefacts second = faulted_run();
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.report, second.report);
  EXPECT_NO_THROW((void)json::parse(first.trace, "trace"));

  std::istringstream trace_in(first.trace);
  std::ostringstream offline;
  obs::analysis::write_report_json(
      obs::analysis::build_report(obs::analysis::read_chrome_trace(trace_in)),
      offline);
  EXPECT_EQ(offline.str(), first.report);

  const json::Value report = json::parse(first.report, "report");
  const json::Value* schema = report.find("schema");
  const json::Value* requests = report.find("requests");
  const json::Value* misses = report.find("misses");
  const json::Value* causes = report.find("miss_causes");
  ASSERT_NE(schema, nullptr);
  ASSERT_NE(requests, nullptr);
  ASSERT_NE(misses, nullptr);
  ASSERT_NE(causes, nullptr);
  EXPECT_EQ(schema->text, "esg.attribution.v1");
  EXPECT_GT(requests->number, 0.0);
  ASSERT_EQ(causes->kind, json::Value::Kind::kObject);
  double counted = 0.0;
  bool fault_cause = false;
  for (const auto& [cause, count] : causes->members) {
    counted += count.number;
    fault_cause = fault_cause || cause.starts_with("fault@stage") ||
                  cause.starts_with("retry_exhausted@stage");
  }
  EXPECT_EQ(counted, misses->number);
  EXPECT_TRUE(fault_cause) << first.report;
}

}  // namespace
}  // namespace esg
