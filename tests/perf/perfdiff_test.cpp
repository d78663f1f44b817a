// Diff semantics of the perf/BENCH JSON comparator: only *_per_sec leaves
// gate the verdict, rows line up by their key fields rather than position,
// meta.* provenance never participates, and malformed input is a
// std::invalid_argument (the CLI maps it to exit code 2).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "perf/perfdiff.hpp"

namespace esg::perf {
namespace {

const DiffLine* find_line(const DiffResult& result, const std::string& metric) {
  for (const auto& line : result.lines) {
    if (line.metric == metric) return &line;
  }
  return nullptr;
}

std::string run_doc(double events_per_sec, double wall_seconds) {
  return R"({"schema": "esg.perf.v1",)"
         R"( "meta": {"host": "a", "cpus": 1},)"
         R"( "run": {"scheduler": "ESG", "events_per_sec": )" +
         std::to_string(events_per_sec) +
         R"(, "wall_seconds": )" + std::to_string(wall_seconds) + "}}";
}

TEST(PerfDiffTest, IdenticalDocumentsDoNotRegress) {
  const std::string doc = run_doc(1000.0, 1.0);
  const DiffResult result = diff_json(doc, doc, DiffOptions{});
  EXPECT_FALSE(result.regressed);
  EXPECT_TRUE(result.notes.empty());
  const DiffLine* line = find_line(result, "run.events_per_sec");
  ASSERT_NE(line, nullptr);
  EXPECT_TRUE(line->gating);
  EXPECT_FALSE(line->regression);
  EXPECT_DOUBLE_EQ(line->delta_frac, 0.0);
}

TEST(PerfDiffTest, DropPastThresholdIsARegression) {
  const DiffResult result =
      diff_json(run_doc(1000.0, 1.0), run_doc(850.0, 1.0), DiffOptions{});
  EXPECT_TRUE(result.regressed);
  const DiffLine* line = find_line(result, "run.events_per_sec");
  ASSERT_NE(line, nullptr);
  EXPECT_TRUE(line->regression);
  EXPECT_NEAR(line->delta_frac, -0.15, 1e-9);
}

TEST(PerfDiffTest, DropWithinThresholdPasses) {
  const DiffResult result =
      diff_json(run_doc(1000.0, 1.0), run_doc(950.0, 1.0), DiffOptions{});
  EXPECT_FALSE(result.regressed);
}

TEST(PerfDiffTest, ThresholdBoundaryIsNotARegression) {
  // delta == -threshold exactly: the contract is strictly-worse-than.
  const DiffResult result =
      diff_json(run_doc(1000.0, 1.0), run_doc(900.0, 1.0), DiffOptions{});
  EXPECT_FALSE(result.regressed);
}

TEST(PerfDiffTest, TighterThresholdCatchesSmallerDrops) {
  DiffOptions options;
  options.threshold = 0.01;
  const DiffResult result =
      diff_json(run_doc(1000.0, 1.0), run_doc(950.0, 1.0), options);
  EXPECT_TRUE(result.regressed);
}

TEST(PerfDiffTest, ImprovementIsNotARegression) {
  const DiffResult result =
      diff_json(run_doc(1000.0, 1.0), run_doc(2000.0, 1.0), DiffOptions{});
  EXPECT_FALSE(result.regressed);
}

TEST(PerfDiffTest, NonGatingMetricsNeverGate) {
  // Wall time tripled — informational only, because wall_seconds does not
  // end in _per_sec.
  const DiffResult result =
      diff_json(run_doc(1000.0, 1.0), run_doc(1000.0, 3.0), DiffOptions{});
  EXPECT_FALSE(result.regressed);
  const DiffLine* line = find_line(result, "run.wall_seconds");
  ASSERT_NE(line, nullptr);
  EXPECT_FALSE(line->gating);
}

TEST(PerfDiffTest, MetaLeavesAreSkipped) {
  const std::string base = R"({"meta": {"cpus": 1}, "run": {"x": 1}})";
  const std::string cur = R"({"meta": {"cpus": 64}, "run": {"x": 1}})";
  const DiffResult result = diff_json(base, cur, DiffOptions{});
  EXPECT_EQ(find_line(result, "meta.cpus"), nullptr);
  EXPECT_TRUE(result.notes.empty());
}

TEST(PerfDiffTest, RowsMatchByKeyNotPosition) {
  const std::string base = R"({"rows": [
    {"scheduler": "ESG", "rate_scale": 1, "events_per_sec": 100},
    {"scheduler": "Orion", "rate_scale": 1, "events_per_sec": 200}]})";
  // Same rows, reversed order; Orion regressed.
  const std::string cur = R"({"rows": [
    {"scheduler": "Orion", "rate_scale": 1, "events_per_sec": 100},
    {"scheduler": "ESG", "rate_scale": 1, "events_per_sec": 100}]})";
  const DiffResult result = diff_json(base, cur, DiffOptions{});
  EXPECT_TRUE(result.notes.empty()) << "reordered rows must still line up";
  EXPECT_TRUE(result.regressed);
  const DiffLine* esg =
      find_line(result, "rows[scheduler=ESG,rate_scale=1].events_per_sec");
  ASSERT_NE(esg, nullptr);
  EXPECT_FALSE(esg->regression);
  const DiffLine* orion =
      find_line(result, "rows[scheduler=Orion,rate_scale=1].events_per_sec");
  ASSERT_NE(orion, nullptr);
  EXPECT_TRUE(orion->regression);
}

TEST(PerfDiffTest, OneSidedMetricsBecomeNotes) {
  const std::string base = R"({"run": {"old_counter": 5, "shared": 1}})";
  const std::string cur = R"({"run": {"new_counter": 6, "shared": 1}})";
  const DiffResult result = diff_json(base, cur, DiffOptions{});
  EXPECT_FALSE(result.regressed);
  ASSERT_EQ(result.notes.size(), 2u);
  EXPECT_EQ(result.notes[0], "missing in current: run.old_counter");
  EXPECT_EQ(result.notes[1], "missing in baseline: run.new_counter");
}

TEST(PerfDiffTest, MalformedJsonThrowsInvalidArgument) {
  EXPECT_THROW(diff_json("{", "{}", DiffOptions{}), std::invalid_argument);
  EXPECT_THROW(diff_json("{}", "[1, 2,]", DiffOptions{}),
               std::invalid_argument);
  EXPECT_THROW(diff_json("{} trailing", "{}", DiffOptions{}),
               std::invalid_argument);
  EXPECT_THROW(diff_json(R"({"x": nan})", "{}", DiffOptions{}),
               std::invalid_argument);
}

TEST(PerfDiffTest, DuplicateKeyThrowsInvalidArgument) {
  // Both copies would otherwise be diffed against the current file's last.
  const std::string doc = run_doc(1000.0, 1.0);
  const std::string dup =
      R"({"run": {"events_per_sec": 1000, "events_per_sec": 10}})";
  EXPECT_THROW(diff_json(dup, doc, DiffOptions{}), std::invalid_argument);
  EXPECT_THROW(diff_json(doc, dup, DiffOptions{}), std::invalid_argument);
  EXPECT_THROW(diff_json(R"({"rows": [{"seed": 1, "seed": 2}]})", "{}",
                         DiffOptions{}),
               std::invalid_argument);
}

TEST(PerfDiffTest, DeepNestingThrowsInvalidArgument) {
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(diff_json(objects, "{}", DiffOptions{}), std::invalid_argument);
  EXPECT_THROW(diff_json("{}", std::string(100000, '['), DiffOptions{}),
               std::invalid_argument);
}

TEST(PerfDiffTest, UnreadableFileThrowsInvalidArgument) {
  EXPECT_THROW(
      diff_files("/nonexistent/a.json", "/nonexistent/b.json", DiffOptions{}),
      std::invalid_argument);
}

TEST(PerfDiffTest, ZeroBaselineDoesNotDivide) {
  const DiffResult result =
      diff_json(R"({"run": {"events_per_sec": 0}})",
                R"({"run": {"events_per_sec": 10}})", DiffOptions{});
  const DiffLine* line = find_line(result, "run.events_per_sec");
  ASSERT_NE(line, nullptr);
  EXPECT_DOUBLE_EQ(line->delta_frac, 1.0);
  EXPECT_FALSE(result.regressed);
}

TEST(PerfDiffTest, GateSuffixPromotesQualityMetrics) {
  // attainment is informational by default but gates once promoted.
  const std::string base = R"({"rows": [{"scheduler": "ESG",
    "attainment": 0.80, "events_per_sec": 100}]})";
  const std::string cur = R"({"rows": [{"scheduler": "ESG",
    "attainment": 0.60, "events_per_sec": 100}]})";
  EXPECT_FALSE(diff_json(base, cur, DiffOptions{}).regressed);
  DiffOptions options;
  options.gate_suffixes.push_back("attainment");
  const DiffResult result = diff_json(base, cur, options);
  EXPECT_TRUE(result.regressed);
  const DiffLine* line =
      find_line(result, "rows[scheduler=ESG].attainment");
  ASSERT_NE(line, nullptr);
  EXPECT_TRUE(line->gating);
  EXPECT_TRUE(line->regression);
  // The default *_per_sec gate keeps working alongside the extra suffix.
  const DiffLine* eps =
      find_line(result, "rows[scheduler=ESG].events_per_sec");
  ASSERT_NE(eps, nullptr);
  EXPECT_TRUE(eps->gating);
}

TEST(PerfDiffTest, MinusPrefixedSuffixGatesLowerIsBetter) {
  const std::string base = R"({"run": {"cold_start_rate": 0.10}})";
  const std::string worse = R"({"run": {"cold_start_rate": 0.20}})";
  const std::string better = R"({"run": {"cold_start_rate": 0.05}})";
  DiffOptions options;
  options.gate_suffixes.push_back("-cold_start_rate");
  // A rise past the threshold regresses; a drop is an improvement.
  EXPECT_TRUE(diff_json(base, worse, options).regressed);
  EXPECT_FALSE(diff_json(base, better, options).regressed);
  // Without the promotion the same rise is informational.
  EXPECT_FALSE(diff_json(base, worse, DiffOptions{}).regressed);
}

TEST(PerfDiffTest, ReportOnlyStillReportsRegressions) {
  // report_only changes only the CLI exit code; the result keeps the flag
  // so CI logs still show what would have failed.
  DiffOptions options;
  options.report_only = true;
  const DiffResult result =
      diff_json(run_doc(1000.0, 1.0), run_doc(500.0, 1.0), options);
  EXPECT_TRUE(result.regressed);
}

}  // namespace
}  // namespace esg::perf
