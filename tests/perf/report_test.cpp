// The esg.perf.v1 writer escapes what it embeds: a scheduler name or scope
// path holding '"', '\' or a control byte still yields a document that
// parses back to the same strings.
#include "perf/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace esg::perf {
namespace {

std::string perf_json(const RunInfo& run,
                      const std::vector<Profiler::ScopeStats>& profile) {
  std::FILE* file = std::tmpfile();
  EXPECT_NE(file, nullptr);
  if (file == nullptr) return {};
  write_perf_json(file, run, Counters{}, profile);
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
  Profiler::ScopeStats scope;
  scope.path = "sim.run/\"a\\b\"\n";
  const json::Value doc = json::parse(perf_json(run, {scope}), "perf json");

  const json::Value* run_obj = doc.find("run");
  ASSERT_NE(run_obj, nullptr);
  const json::Value* scheduler = run_obj->find("scheduler");
  ASSERT_NE(scheduler, nullptr);
  EXPECT_EQ(scheduler->text, run.scheduler);

  const json::Value* profile = doc.find("profile");
  ASSERT_NE(profile, nullptr);
  ASSERT_EQ(profile->items.size(), 1u);
  const json::Value* path = profile->items[0].find("path");
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->text, scope.path);

  const json::Value* meta = doc.find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_NE(meta->find("host"), nullptr);
}

}  // namespace
}  // namespace esg::perf
