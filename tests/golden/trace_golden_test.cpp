// A golden digest of the trace and stats bytes of runs that outlive the
// keep-alive window. Every other end-to-end test runs for seconds, so none
// sees a warm container expire; here the containers of a one-minute burst
// run out of keep-alive while a trickle of invocations goes on, and the
// order in which the warm-pool queries observe those expiries is written
// to the trace. The ChromeTraceSink and JsonlStatsSink bytes of one run per
// scheduler, MQFQ-Sticky with two tenants, and of a faulted ESG run are
// folded into one FNV-1a hash, so a change to which warm pools are queried,
// or in what order, moves the digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "fault/fault_spec.hpp"
#include "obs/recorder.hpp"
#include "obs/sinks.hpp"
#include "support/fnv1a.hpp"
#include "tenant/tenant_spec.hpp"
#include "trace/workload_trace.hpp"
#include "workload/applications.hpp"

namespace esg::exp {
namespace {

// Re-pinned when Invoker::flush_warm_spans and Invoker::total_warm began
// visiting warm pools in sorted function order (was 0xe5510e4ea53fd524,
// hash order): the open and expired keep-alive spans they emit moved.
constexpr std::uint64_t kTraceDigest = 0xce062d4530cc2facull;

constexpr TimeMs kBinMs = 10'000.0;
constexpr std::size_t kBurstBins = 6;     // one minute on every app
constexpr std::size_t kTrickleBins = 72;  // then twelve minutes on app 0
constexpr double kBurstCount = 40.0;
constexpr double kTrickleCount = 3.0;

std::shared_ptr<const trace::WorkloadTrace> keep_alive_trace() {
  auto t = std::make_shared<trace::WorkloadTrace>();
  t->bin_ms = kBinMs;
  t->app_count = workload::kBuiltinAppCount;
  for (std::size_t bin = 0; bin < kBurstBins; ++bin) {
    for (std::uint32_t app = 0; app < t->app_count; ++app) {
      t->rows.push_back({bin, app, kBurstCount});
    }
  }
  for (std::size_t bin = kBurstBins; bin < kBurstBins + kTrickleBins; ++bin) {
    t->rows.push_back({bin, 0, kTrickleCount});
  }
  return t;
}

/// Counts keep-alive spans that end because the window ran out.
class ExpiredSpanCounter final : public obs::TraceSink {
 public:
  explicit ExpiredSpanCounter(std::size_t& count) : count_(count) {}
  void on_span(const obs::Span& span) override {
    if (span.kind != obs::SpanKind::kKeepAlive) return;
    for (const auto& [key, value] : span.args) {
      if (key == "end" && value == "expired") ++count_;
    }
  }
  void on_instant(const obs::Instant&) override {}
  void on_counter(const obs::CounterSample&) override {}

 private:
  std::size_t& count_;
};

struct Row {
  std::string name;
  Scenario scenario;
};

std::vector<Row> trace_rows() {
  const auto trace = keep_alive_trace();
  Scenario base;
  base.slo = workload::SloSetting::kModerate;
  base.nodes = 4;
  base.arrivals.mode = ArrivalMode::kTrace;
  base.arrivals.trace = trace;
  base.horizon_ms = trace->duration_ms();
  base.trace.stats_interval_ms = 5'000.0;

  std::vector<Row> rows;
  for (const SchedulerKind kind : all_schedulers()) {
    Scenario s = base;
    s.scheduler = kind;
    rows.push_back({std::string(to_string(kind)), s});
  }
  Scenario tenants = base;
  tenants.scheduler = SchedulerKind::kMqfqSticky;
  tenants.tenants =
      tenant::parse_tenant_spec("gold:3:apps=0,2;bronze:1:apps=1,3");
  rows.push_back({"mqfq-two-tenants", tenants});
  Scenario faulted = base;
  faulted.fault = fault::parse_fault_spec(
      "dispatch:prob=0.05;coldstart:prob=0.1;"
      "crash:invoker=1,at=300000,down=40000");
  rows.push_back({"esg-faulted", faulted});
  return rows;
}

TEST(TraceGolden, DigestIsPinned) {
  test::Fnv1a digest;
  for (const Row& row : trace_rows()) {
    SCOPED_TRACE(row.name);
    std::ostringstream trace_bytes;
    std::ostringstream stats_bytes;
    std::size_t expired = 0;
    obs::TraceRecorder recorder;
    recorder.add_sink(std::make_unique<obs::ChromeTraceSink>(trace_bytes));
    recorder.add_sink(std::make_unique<obs::JsonlStatsSink>(stats_bytes));
    recorder.add_sink(std::make_unique<ExpiredSpanCounter>(expired));
    const RunOutput out = run_scenario(row.scenario, &recorder);
    EXPECT_GT(out.metrics.requests(), 0u);
    EXPECT_GT(expired, 0u);
    digest.add_bytes(trace_bytes.view());
    digest.add_bytes(stats_bytes.view());
  }
  EXPECT_EQ(digest.value(), kTraceDigest)
      << "digest 0x" << std::hex << digest.value();
}

}  // namespace
}  // namespace esg::exp
