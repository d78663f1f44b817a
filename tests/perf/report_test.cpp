// The esg.perf.v2 writer escapes what it embeds: a scheduler name holding
// '"', '\' or a control byte still yields a document that parses back to
// the same string.
#include "perf/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/json.hpp"

namespace esg::perf {
namespace {

std::string perf_json(const RunInfo& run) {
  std::FILE* file = std::tmpfile();
  EXPECT_NE(file, nullptr);
  if (file == nullptr) return {};
  write_perf_json(file, run, Counters{}, LayerTimes{});
  std::rewind(file);
  std::string text;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), file)) > 0;) {
    text.append(buf, n);
  }
  std::fclose(file);
  return text;
}

TEST(PerfJson, EscapedNamesRoundTrip) {
  RunInfo run;
  run.scheduler = "esg \"quoted\" \\ back\tslash";
  const json::Value doc = json::parse(perf_json(run), "perf json");

  const json::Value* run_obj = doc.find("run");
  ASSERT_NE(run_obj, nullptr);
  const json::Value* scheduler = run_obj->find("scheduler");
  ASSERT_NE(scheduler, nullptr);
  EXPECT_EQ(scheduler->text, run.scheduler);

  const json::Value* meta = doc.find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_NE(meta->find("host"), nullptr);
}

}  // namespace
}  // namespace esg::perf
