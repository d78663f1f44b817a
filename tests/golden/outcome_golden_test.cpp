// A golden digest of request outcomes. TraceGolden's faulted run never
// exhausts a retry budget and no other golden run sheds, so none of them
// sees an aborted request's completion record and span, or a shed request.
// Here two runs abort requests (ESG, and Orion, whose queues also escalate
// to the forced minimum-configuration dispatch) and a third sheds at
// admission. Every CompletionRecord field, the retries_exhausted and
// shed_requests counts and the ChromeTraceSink bytes of each run are folded
// into one FNV-1a hash, so a change to how a request's outcome is booked or
// traced, or to which requests admission sheds, moves the digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "elastic/elastic_spec.hpp"
#include "exp/scenario.hpp"
#include "fault/fault_spec.hpp"
#include "obs/recorder.hpp"
#include "obs/sinks.hpp"
#include "support/fnv1a.hpp"

namespace esg::exp {
namespace {

constexpr std::uint64_t kOutcomeDigest = 0x316103f89072a10aull;

struct Row {
  std::string name;
  Scenario scenario;
};

/// esg_sim's defaults (strict SLO, light load, seed 42) over 8 s.
std::vector<Row> outcome_rows() {
  Scenario base;
  base.horizon_ms = 8'000.0;

  Scenario faulted = base;
  faulted.nodes = 6;
  faulted.fault = fault::parse_fault_spec("dispatch:prob=0.45;coldstart:prob=0.2");
  Scenario orion = faulted;
  orion.scheduler = SchedulerKind::kOrion;

  Scenario shedding = base;
  shedding.nodes = 4;
  shedding.load = workload::LoadSetting::kHeavy;
  shedding.elastic = elastic::parse_elastic_spec(
      "queue:min=1,max=6,out=2,idle-ms=1000,provision-ms=500,shed=on,"
      "shed-margin=1.0");
  return {{"esg-aborting", faulted},
          {"orion-aborting", orion},
          {"esg-shedding", shedding}};
}

void fold(test::Fnv1a& digest, const metrics::CompletionRecord& c) {
  digest.add_u64(c.request.get());
  digest.add_u64(c.app.get());
  digest.add_u64(c.tenant);
  digest.add_f64(c.arrival_ms);
  digest.add_f64(c.completion_ms);
  digest.add_f64(c.latency_ms);
  digest.add_f64(c.slo_ms);
  digest.add_u64(c.hit ? 1 : 0);
  digest.add_u64(c.failed ? 1 : 0);
  digest.add_u64(c.shed ? 1 : 0);
}

TEST(OutcomeGolden, DigestIsPinned) {
  test::Fnv1a digest;
  // Per row, in the order of outcome_rows().
  std::vector<std::uint64_t> aborted;
  std::vector<std::uint64_t> shed;
  std::vector<std::uint64_t> forced;
  for (const Row& row : outcome_rows()) {
    SCOPED_TRACE(row.name);
    std::ostringstream trace_bytes;
    obs::TraceRecorder recorder;
    recorder.add_sink(std::make_unique<obs::ChromeTraceSink>(trace_bytes));
    const RunOutput out = run_scenario(row.scenario, &recorder);
    const metrics::RunMetrics& m = out.metrics;
    EXPECT_GT(m.requests(), 0u);
    std::uint64_t failed = 0;
    std::uint64_t rejected = 0;
    for (const metrics::CompletionRecord& c : m.completions) {
      fold(digest, c);
      failed += c.failed ? 1 : 0;
      rejected += c.shed ? 1 : 0;
    }
    EXPECT_EQ(failed, m.retries_exhausted);
    EXPECT_EQ(rejected, m.shed_requests);
    digest.add_u64(m.retries_exhausted);
    digest.add_u64(m.shed_requests);
    digest.add_bytes(trace_bytes.view());
    aborted.push_back(m.retries_exhausted);
    shed.push_back(m.shed_requests);
    forced.push_back(m.forced_min_dispatches);
  }
  // Each row must reach the outcome it is here for, or the digest would pin
  // less than it claims to.
  EXPECT_GT(aborted[0], 20u);
  EXPECT_GT(aborted[1], 10u);
  EXPECT_GT(forced[1], 0u);
  EXPECT_GT(shed[2], 100u);
  EXPECT_EQ(digest.value(), kOutcomeDigest)
      << "digest 0x" << std::hex << digest.value();
}

}  // namespace
}  // namespace esg::exp
