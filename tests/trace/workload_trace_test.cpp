#include "trace/workload_trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace esg::trace {
namespace {

WorkloadTrace csv(const std::string& text) {
  std::istringstream in(text);
  return parse_trace_csv(in);
}

WorkloadTrace jsonl(const std::string& text) {
  std::istringstream in(text);
  return parse_trace_jsonl(in);
}

constexpr const char* kValidCsv =
    "# comment\n"
    "esg-trace,v1,bin_ms=500,apps=3\n"
    "0,0,12\n"
    "0,2,3\n"
    "\n"
    "2,1,7.5\n";

TEST(TraceCsv, ParsesValidTrace) {
  const WorkloadTrace t = csv(kValidCsv);
  EXPECT_DOUBLE_EQ(t.bin_ms, 500.0);
  EXPECT_EQ(t.app_count, 3u);
  ASSERT_EQ(t.rows.size(), 3u);
  EXPECT_EQ(t.rows[0].bin, 0u);
  EXPECT_EQ(t.rows[0].app, 0u);
  EXPECT_DOUBLE_EQ(t.rows[0].count, 12.0);
  EXPECT_EQ(t.rows[2].bin, 2u);
  EXPECT_DOUBLE_EQ(t.rows[2].count, 7.5);
  EXPECT_EQ(t.bin_count(), 3u);  // gap bin 1 still counts
  EXPECT_DOUBLE_EQ(t.duration_ms(), 1500.0);
  EXPECT_DOUBLE_EQ(t.total_count(), 22.5);
  EXPECT_EQ(t.bin_totals(), (std::vector<double>{15.0, 0.0, 7.5}));
}

TEST(TraceCsv, EmptyTraceHasHeaderOnly) {
  const WorkloadTrace t = csv("esg-trace,v1,bin_ms=100,apps=1\n");
  EXPECT_TRUE(t.rows.empty());
  EXPECT_EQ(t.bin_count(), 0u);
  EXPECT_DOUBLE_EQ(t.duration_ms(), 0.0);
}

TEST(TraceCsv, RejectsMissingOrMalformedHeader) {
  EXPECT_THROW(csv(""), std::invalid_argument);
  EXPECT_THROW(csv("# only comments\n"), std::invalid_argument);
  EXPECT_THROW(csv("0,0,1\n"), std::invalid_argument);
  EXPECT_THROW(csv("esg-trace,v2,bin_ms=500,apps=3\n"), std::invalid_argument);
  EXPECT_THROW(csv("esg-trace,v1,apps=3,bin_ms=500\n"), std::invalid_argument);
  EXPECT_THROW(csv("esg-trace,v1,bin_ms=500\n"), std::invalid_argument);
}

TEST(TraceCsv, RejectsBadHeaderValues) {
  EXPECT_THROW(csv("esg-trace,v1,bin_ms=0,apps=3\n"), std::invalid_argument);
  EXPECT_THROW(csv("esg-trace,v1,bin_ms=-5,apps=3\n"), std::invalid_argument);
  EXPECT_THROW(csv("esg-trace,v1,bin_ms=nan,apps=3\n"), std::invalid_argument);
  EXPECT_THROW(csv("esg-trace,v1,bin_ms=inf,apps=3\n"), std::invalid_argument);
  EXPECT_THROW(csv("esg-trace,v1,bin_ms=500,apps=0\n"), std::invalid_argument);
  EXPECT_THROW(csv("esg-trace,v1,bin_ms=500,apps=2.5\n"),
               std::invalid_argument);
}

TEST(TraceCsv, RejectsMalformedRows) {
  const std::string header = "esg-trace,v1,bin_ms=500,apps=3\n";
  EXPECT_THROW(csv(header + "0,0\n"), std::invalid_argument);
  EXPECT_THROW(csv(header + "0,0,1,9\n"), std::invalid_argument);
  EXPECT_THROW(csv(header + "0,0,abc\n"), std::invalid_argument);
  EXPECT_THROW(csv(header + "0.5,0,1\n"), std::invalid_argument);
  EXPECT_THROW(csv(header + "0,1.5,1\n"), std::invalid_argument);
}

TEST(TraceCsv, RejectsNanInfNegativeCounts) {
  const std::string header = "esg-trace,v1,bin_ms=500,apps=3\n";
  EXPECT_THROW(csv(header + "0,0,nan\n"), std::invalid_argument);
  EXPECT_THROW(csv(header + "0,0,inf\n"), std::invalid_argument);
  EXPECT_THROW(csv(header + "0,0,-1\n"), std::invalid_argument);
}

TEST(TraceCsv, RejectsUnsortedAndDuplicateRows) {
  const std::string header = "esg-trace,v1,bin_ms=500,apps=3\n";
  EXPECT_THROW(csv(header + "1,0,1\n0,0,1\n"), std::invalid_argument);
  EXPECT_THROW(csv(header + "0,1,1\n0,0,1\n"), std::invalid_argument);
  EXPECT_THROW(csv(header + "0,0,1\n0,0,2\n"), std::invalid_argument);
}

TEST(TraceCsv, RejectsUnknownAppsAndHugeBins) {
  const std::string header = "esg-trace,v1,bin_ms=500,apps=3\n";
  EXPECT_THROW(csv(header + "0,3,1\n"), std::invalid_argument);
  EXPECT_THROW(csv(header + "9999999999,0,1\n"), std::invalid_argument);
}

TEST(TraceCsv, ErrorNamesTheLine) {
  try {
    (void)csv("esg-trace,v1,bin_ms=500,apps=3\n0,0,1\n0,9,1\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown app"), std::string::npos) << what;
  }
}

constexpr const char* kValidJsonl =
    "{\"schema\":\"esg.trace.v1\",\"bin_ms\":250,\"apps\":2}\n"
    "{\"bin\":0,\"app\":0,\"count\":4}\n"
    "{\"bin\":1,\"app\":1,\"count\":2.5}\n";

TEST(TraceJsonl, ParsesValidTrace) {
  const WorkloadTrace t = jsonl(kValidJsonl);
  EXPECT_DOUBLE_EQ(t.bin_ms, 250.0);
  EXPECT_EQ(t.app_count, 2u);
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[1].bin, 1u);
  EXPECT_EQ(t.rows[1].app, 1u);
  EXPECT_DOUBLE_EQ(t.rows[1].count, 2.5);
}

TEST(TraceJsonl, RejectsBadFraming) {
  EXPECT_THROW(jsonl(""), std::invalid_argument);
  EXPECT_THROW(jsonl("not json\n"), std::invalid_argument);
  EXPECT_THROW(jsonl("{\"schema\":\"esg.trace.v2\",\"bin_ms\":1,\"apps\":1}\n"),
               std::invalid_argument);
  EXPECT_THROW(jsonl("{\"bin_ms\":1,\"apps\":1}\n"), std::invalid_argument);
  const std::string header =
      "{\"schema\":\"esg.trace.v1\",\"bin_ms\":250,\"apps\":2}\n";
  EXPECT_THROW(jsonl(header + "{\"bin\":0,\"app\":0}\n"),
               std::invalid_argument);
  EXPECT_THROW(jsonl(header + "{\"bin\":0,\"app\":0,\"count\":1}garbage\n"),
               std::invalid_argument);
  EXPECT_THROW(jsonl(header + "{\"bin\":0,\"app\":0,\"count\":1,\"x\":2}\n"),
               std::invalid_argument);
  EXPECT_THROW(jsonl(header + "{\"bin\":0,\"bin\":1,\"app\":0,\"count\":1}\n"),
               std::invalid_argument);
  EXPECT_THROW(jsonl(header + "{\"bin\":0,\"app\":0,\"count\":nan}\n"),
               std::invalid_argument);
}

TEST(TraceJsonl, DecodesStringEscapes) {
  // Lines are JSON, so an escaped schema tag is the same tag.
  const WorkloadTrace t = jsonl(
      "{\"sch\\u0065ma\":\"esg.trace\\u002ev1\",\"bin_ms\":250,\"apps\":2}\n"
      "{\"bin\":0,\"app\":1,\"count\":3}\n");
  EXPECT_DOUBLE_EQ(t.bin_ms, 250.0);
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_EQ(t.rows[0].app, 1u);
  // A decoded duplicate is still a duplicate.
  EXPECT_THROW(
      jsonl("{\"schema\":\"esg.trace.v1\",\"bin_ms\":1,\"apps\":1,"
            "\"app\\u0073\":1}\n"),
      std::invalid_argument);
}

TEST(TraceJsonl, ErrorsNameTheLineAndClause) {
  const std::string header =
      "{\"schema\":\"esg.trace.v1\",\"bin_ms\":250,\"apps\":2}\n";
  for (const std::string& row :
       {std::string("{\"bin\":0,\"app\":0,\"count\":1"),
        std::string("{\"bin\":0,\"app\":0,\"count\":01}"),
        std::string("[1,2,3]")}) {
    try {
      (void)jsonl(header + "\n" + row + "\n");
      FAIL() << row;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(
                    "workload-trace line 3 '" + row + "': ", 0),
                0u)
          << e.what();
    }
  }
}

TEST(TraceJsonl, RejectsDeepNestingWithoutCrashing) {
  const std::string header =
      "{\"schema\":\"esg.trace.v1\",\"bin_ms\":250,\"apps\":2}\n";
  std::string deep;
  for (int i = 0; i < 100000; ++i) deep += "{\"bin\":";
  EXPECT_THROW(jsonl(header + deep + "\n"), std::invalid_argument);
  EXPECT_THROW(jsonl(std::string(100000, '[') + "\n"), std::invalid_argument);
}

TEST(TraceJsonl, RejectsUnsortedAndUnknownApps) {
  const std::string header =
      "{\"schema\":\"esg.trace.v1\",\"bin_ms\":250,\"apps\":2}\n";
  EXPECT_THROW(jsonl(header + "{\"bin\":1,\"app\":0,\"count\":1}\n"
                              "{\"bin\":0,\"app\":0,\"count\":1}\n"),
               std::invalid_argument);
  EXPECT_THROW(jsonl(header + "{\"bin\":0,\"app\":2,\"count\":1}\n"),
               std::invalid_argument);
}

TEST(TraceWriters, CsvRoundTripsByteIdentically) {
  const WorkloadTrace t = csv(kValidCsv);
  std::ostringstream first;
  write_trace_csv(t, first);
  std::istringstream in(first.str());
  const WorkloadTrace reparsed = parse_trace_csv(in);
  std::ostringstream second;
  write_trace_csv(reparsed, second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_DOUBLE_EQ(reparsed.total_count(), t.total_count());
  EXPECT_EQ(reparsed.rows.size(), t.rows.size());
}

TEST(TraceWriters, JsonlRoundTripsByteIdentically) {
  const WorkloadTrace t = jsonl(kValidJsonl);
  std::ostringstream first;
  write_trace_jsonl(t, first);
  std::istringstream in(first.str());
  const WorkloadTrace reparsed = parse_trace_jsonl(in);
  std::ostringstream second;
  write_trace_jsonl(reparsed, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(TraceWriters, FormatsCrossConvert) {
  const WorkloadTrace t = csv(kValidCsv);
  std::ostringstream as_jsonl;
  write_trace_jsonl(t, as_jsonl);
  std::istringstream in(as_jsonl.str());
  const WorkloadTrace back = parse_trace_jsonl(in);
  EXPECT_DOUBLE_EQ(back.bin_ms, t.bin_ms);
  EXPECT_EQ(back.app_count, t.app_count);
  EXPECT_EQ(back.rows.size(), t.rows.size());
  for (std::size_t i = 0; i < t.rows.size(); ++i) {
    EXPECT_EQ(back.rows[i].bin, t.rows[i].bin);
    EXPECT_EQ(back.rows[i].app, t.rows[i].app);
    EXPECT_DOUBLE_EQ(back.rows[i].count, t.rows[i].count);
  }
}

TEST(TraceValidate, RejectsProgrammaticInvalidTraces) {
  WorkloadTrace t;
  t.bin_ms = 100.0;
  t.app_count = 2;
  t.rows = {{0, 0, 1.0}};
  EXPECT_NO_THROW(validate(t));

  WorkloadTrace bad = t;
  bad.bin_ms = 0.0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = t;
  bad.app_count = 0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = t;
  bad.rows = {{0, 5, 1.0}};
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = t;
  bad.rows = {{0, 0, -1.0}};
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = t;
  bad.rows = {{1, 0, 1.0}, {0, 0, 1.0}};
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

TEST(TraceLoad, UnreadableFileThrows) {
  EXPECT_THROW(load_workload_trace("/no/such/trace.csv"),
               std::invalid_argument);
}

}  // namespace
}  // namespace esg::trace
