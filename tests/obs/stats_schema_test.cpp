// Schema validation for the StatsSampler's JSONL output: every line must be
// standalone parseable JSON with exactly the documented field names, known
// gauge names, and non-decreasing timestamps — the contract downstream
// pandas/jq pipelines depend on. Lines are read with common/json; the
// independent tests/obs/mini_json.hpp validator checks the raw text.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "exp/scenario.hpp"
#include "mini_json.hpp"
#include "obs/recorder.hpp"
#include "obs/sinks.hpp"

namespace esg {
namespace {

std::vector<std::string> run_stats_lines() {
  exp::Scenario scenario;
  scenario.nodes = 4;
  scenario.horizon_ms = 1'000.0;
  scenario.seed = 11;
  scenario.trace.stats_interval_ms = 50.0;

  std::ostringstream stats_stream;
  obs::TraceRecorder recorder;
  recorder.add_sink(std::make_unique<obs::JsonlStatsSink>(stats_stream));
  (void)exp::run_scenario(scenario, &recorder);

  std::vector<std::string> lines;
  std::istringstream in(stats_stream.str());
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(StatsSchema, EveryLineIsParseableJson) {
  const auto lines = run_stats_lines();
  ASSERT_GT(lines.size(), 0u);
  for (const auto& line : lines) {
    EXPECT_TRUE(test_json::is_valid_json(line)) << line;
  }
}

TEST(StatsSchema, FieldNamesAreExactlyTheDocumentedSet) {
  const auto lines = run_stats_lines();
  ASSERT_GT(lines.size(), 0u);
  // The sink's documented schema: {"ts_ms":..,"pid":..,"name":..,"value":..},
  // with a string name and numbers elsewhere.
  const std::set<std::string> documented = {"ts_ms", "pid", "name", "value"};
  for (const auto& line : lines) {
    const json::Value row = json::parse(line, "stats line");
    std::set<std::string> keys;
    for (const json::Member& m : row.members) keys.insert(m.first);
    EXPECT_EQ(keys, documented) << line;
    for (const json::Member& m : row.members) {
      EXPECT_EQ(m.second.kind, m.first == "name" ? json::Value::Kind::kString
                                                 : json::Value::Kind::kNumber)
          << line;
    }
  }
}

TEST(StatsSchema, GaugeNamesAreKnown) {
  const std::set<std::string> known = {
      "used_vcpus",  "used_vgpus",   "warm_containers",
      "free_vcpus",  "free_vgpus",   "queued_jobs",
      "fleet_active", "fleet_warming", "fleet_draining"};
  const auto lines = run_stats_lines();
  ASSERT_GT(lines.size(), 0u);
  std::set<std::string> seen;
  for (const auto& line : lines) {
    const json::Value row = json::parse(line, "stats line");
    const json::Value* field = row.find("name");
    ASSERT_NE(field, nullptr) << line;
    const std::string& name = field->text;
    EXPECT_TRUE(known.count(name) == 1) << "unknown gauge '" << name << "'";
    seen.insert(name);
  }
  // The sampler emits every documented gauge at least once.
  EXPECT_EQ(seen, known);
}

TEST(StatsSchema, TimestampsAreMonotoneNonDecreasing) {
  const auto lines = run_stats_lines();
  ASSERT_GT(lines.size(), 1u);
  double prev = -1.0;
  for (const auto& line : lines) {
    const json::Value row = json::parse(line, "stats line");
    const json::Value* ts = row.find("ts_ms");
    ASSERT_NE(ts, nullptr) << line;
    EXPECT_GE(ts->number, prev) << line;
    prev = ts->number;
  }
}

}  // namespace
}  // namespace esg
