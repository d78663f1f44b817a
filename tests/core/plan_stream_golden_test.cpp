// A golden digest of what the controller does with ESG's plans. The
// scenarios run through run_scenario with no warm-up, so every plan() call
// and every dispatched task is recorded. Each charged plan overhead and each
// task's function, configuration, dispatch time and cost are folded into one
// FNV-1a hash. SearchGolden pins ESG_1Q's answers; this pins the plan stream
// the simulator acts on: a change to how plan() reaches or reuses a search
// result, to the charged overhead or to the defer and drain rules moves the
// digest. The runs cover the paper's three SLO/load combos, a faulted run
// whose retry pressure moves the search targets, and MQFQ-Sticky's inner ESG
// planner under two tenants.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "fault/fault_spec.hpp"
#include "support/fnv1a.hpp"
#include "tenant/tenant_spec.hpp"

namespace esg::core {
namespace {

constexpr std::uint64_t kPlanStreamDigest = 0x2dac126d4f7eabecull;

struct Row {
  std::string name;
  exp::Scenario scenario;
};

std::vector<Row> plan_stream_rows() {
  std::vector<Row> rows;
  for (const exp::SettingCombo& combo : exp::paper_combos()) {
    exp::Scenario s;
    s.slo = combo.slo;
    s.load = combo.load;
    s.horizon_ms = 5'000.0;
    rows.push_back({exp::combo_name(combo), s});
  }
  exp::Scenario faulted;
  faulted.slo = workload::SloSetting::kModerate;
  faulted.load = workload::LoadSetting::kNormal;
  faulted.nodes = 8;
  faulted.horizon_ms = 5'000.0;
  faulted.fault = fault::parse_fault_spec(
      "dispatch:prob=0.05;coldstart:prob=0.1;crash:invoker=2,at=1500,down=1000");
  rows.push_back({"faulted", faulted});
  exp::Scenario tenants;
  tenants.scheduler = exp::SchedulerKind::kMqfqSticky;
  tenants.slo = workload::SloSetting::kModerate;
  tenants.load = workload::LoadSetting::kNormal;
  tenants.nodes = 8;
  tenants.horizon_ms = 4'000.0;
  tenants.tenants = tenant::parse_tenant_spec("gold:3:apps=0,2;bronze:1:apps=1,3");
  rows.push_back({"mqfq-two-tenants", tenants});
  return rows;
}

TEST(PlanStreamGolden, DigestIsPinned) {
  test::Fnv1a digest;
  for (const Row& row : plan_stream_rows()) {
    SCOPED_TRACE(row.name);
    ASSERT_EQ(row.scenario.warmup_ms, 0.0);
    const exp::RunOutput out = exp::run_scenario(row.scenario);
    const metrics::RunMetrics& m = out.metrics;
    ASSERT_FALSE(m.plan_overhead_ms.empty());
    ASSERT_FALSE(m.task_trace.empty());
    if (row.name == "faulted") {
      EXPECT_GT(m.retries, 0u);
    }
    digest.add_u64(m.plan_overhead_ms.size());
    for (const double ms : m.plan_overhead_ms) digest.add_f64(ms);
    digest.add_u64(m.task_trace.size());
    for (const metrics::TaskRecord& t : m.task_trace) {
      digest.add_u64(t.function.get());
      digest.add_u64(t.batch);
      digest.add_u64(t.vcpus);
      digest.add_u64(t.vgpus);
      digest.add_f64(t.dispatch_ms);
      digest.add_f64(t.cost);
    }
  }
  EXPECT_EQ(digest.value(), kPlanStreamDigest)
      << "digest 0x" << std::hex << digest.value();
}

}  // namespace
}  // namespace esg::core
