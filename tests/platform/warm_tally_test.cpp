// Cluster::warm_count answers from a per-function tally of parked warm
// containers and a lower bound on their soonest expiry (DESIGN.md §15).
// Cluster::check_index_invariants() cross-validates the tally, the bound,
// the candidate sets and the free sums against the fleet; these runs call
// it after every event, as ScanBitmap.* does for the scan bitmap:
//
//  - a faulted run with a crash and failed cold starts;
//  - an elastic run that scales in and out and loses nodes to a spot
//    reclaim without a warning;
//  - a two-tenant MQFQ-Sticky run;
//  - a forecast-driven run, whose proactive prewarm also counts warm
//    containers;
//  - a 4-node run that outlives the 10-minute keep-alive window, so the
//    bound runs out and warm_count walks the fleet.
//
// Every run outlives the 10-minute keep-alive window and is made twice,
// checked and unchecked. Both must close the same keep-alive windows in
// the same order: the check reads the warm pools without pruning them, so
// it traces no expiry early and changes nothing a run records.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/fast_gshare.hpp"
#include "baselines/infless.hpp"
#include "core/esg_scheduler.hpp"
#include "elastic/elastic_manager.hpp"
#include "elastic/elastic_spec.hpp"
#include "fault/fault_engine.hpp"
#include "fault/fault_spec.hpp"
#include "forecast/forecast_spec.hpp"
#include "forecast/forecaster.hpp"
#include "platform/controller.hpp"
#include "tenant/fair_queue.hpp"
#include "tenant/mqfq_scheduler.hpp"
#include "tenant/tenant_spec.hpp"
#include "workload/applications.hpp"

namespace esg::platform {
namespace {

enum class Policy { kEsg, kInfless, kFastGshare, kMqfqSticky };

/// One hand-wired run; an empty spec leaves its subsystem out.
struct Wiring {
  Policy policy = Policy::kEsg;
  std::size_t nodes = 4;  ///< an elastic run starts with 4 of them active
  std::string fault;
  std::string elastic;
  std::string tenants;
  std::string forecast;
  std::vector<workload::Arrival> arrivals;
};

struct WarmSpan {
  InvokerId invoker;
  FunctionId function;
  TimeMs since = 0.0;
  TimeMs end = 0.0;
  cluster::WarmEnd reason{};
  bool operator==(const WarmSpan&) const = default;
};

struct Outcome {
  std::vector<WarmSpan> spans;  ///< every keep-alive window, flushed at the end
  std::size_t events = 0;
  std::size_t prewarms = 0;  ///< prewarms issued or skipped
  metrics::RunMetrics metrics;
};

std::unique_ptr<Scheduler> make_scheduler(
    Policy policy, const std::vector<workload::AppDag>& apps,
    const profile::ProfileSet& profiles, const tenant::FairQueue* fq) {
  switch (policy) {
    case Policy::kEsg:
      return std::make_unique<core::EsgScheduler>(apps, profiles);
    case Policy::kInfless:
      return std::make_unique<baselines::InflessScheduler>(apps, profiles);
    case Policy::kFastGshare:
      return std::make_unique<baselines::FastGshareScheduler>(apps, profiles);
    case Policy::kMqfqSticky:
      return std::make_unique<tenant::MqfqStickyScheduler>(
          apps, profiles, core::EsgScheduler::Options{}, fq);
  }
  return nullptr;
}

/// Runs `wiring` to the end, checking the cluster index after every event
/// when `checked`.
Outcome run(const Wiring& wiring, bool checked) {
  const profile::ProfileSet profiles = profile::ProfileSet::builtin();
  const std::vector<workload::AppDag> apps = workload::builtin_applications();
  const RngFactory rng(11);
  sim::Simulator sim;
  cluster::Cluster cluster(wiring.nodes);
  Outcome out;
  cluster.set_warm_span_callback(
      [&out](InvokerId i, FunctionId f, TimeMs since, TimeMs end,
             cluster::WarmEnd reason) {
        out.spans.push_back({i, f, since, end, reason});
      });

  ControllerOptions options;
  std::unique_ptr<fault::FaultEngine> faults;
  if (!wiring.fault.empty()) {
    faults = std::make_unique<fault::FaultEngine>(
        fault::parse_fault_spec(wiring.fault), rng.scoped("fault"));
    options.fault = faults.get();
  }
  std::unique_ptr<elastic::ElasticManager> manager;
  if (!wiring.elastic.empty()) {
    manager = std::make_unique<elastic::ElasticManager>(
        sim, cluster, elastic::parse_elastic_spec(wiring.elastic),
        rng.scoped("elastic"), /*initial_nodes=*/4);
    options.elastic = manager.get();
  }
  std::unique_ptr<tenant::FairQueue> fq;
  if (!wiring.tenants.empty()) {
    fq = std::make_unique<tenant::FairQueue>(
        tenant::parse_tenant_spec(wiring.tenants), wiring.nodes,
        /*gate_throttle=*/true);
    options.fair_queue = fq.get();
  }
  std::unique_ptr<forecast::ForecastService> forecaster;
  if (!wiring.forecast.empty()) {
    forecaster = std::make_unique<forecast::ForecastService>(
        forecast::parse_forecast_spec(wiring.forecast), apps.size(), nullptr,
        trace::ReplayOptions{});
    options.forecast = forecaster.get();
  }
  const auto sched = make_scheduler(wiring.policy, apps, profiles, fq.get());
  Controller ctl(sim, cluster, profiles, apps, workload::SloSetting::kModerate,
                 *sched, rng, options);
  ctl.inject(wiring.arrivals);

  if (checked) cluster.check_index_invariants(sim.now());
  while (sim.step()) {
    if (checked) cluster.check_index_invariants(sim.now());
    ++out.events;
  }
  cluster.flush_warm_spans(sim.now());
  const perf::Counters counters = ctl.perf_counters();
  out.prewarms = counters.prewarms_issued + counters.prewarms_skipped;
  out.metrics = ctl.metrics();
  return out;
}

/// Runs `wiring` checked and unchecked; both must fire the same events and
/// close the same keep-alive windows. Returns the checked run.
Outcome run_checked(const Wiring& wiring) {
  Outcome checked = run(wiring, true);
  const Outcome unchecked = run(wiring, false);
  EXPECT_GT(checked.events, 0u);
  EXPECT_EQ(checked.events, unchecked.events);
  EXPECT_EQ(checked.metrics.requests(), unchecked.metrics.requests());
  EXPECT_EQ(checked.spans, unchecked.spans);
  return checked;
}

std::size_t ended(const Outcome& out, cluster::WarmEnd reason) {
  std::size_t count = 0;
  for (const WarmSpan& span : out.spans) count += span.reason == reason;
  return count;
}

/// Every app in turn, one arrival every `gap_ms` from `start_ms`.
std::vector<workload::Arrival> round_robin(std::size_t count, TimeMs gap_ms,
                                           TimeMs start_ms = 0.0) {
  const std::size_t apps = workload::kBuiltinAppCount;
  std::vector<workload::Arrival> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({start_ms + static_cast<TimeMs>(i) * gap_ms,
                   AppId(static_cast<std::uint32_t>(i % apps))});
  }
  return out;
}

constexpr std::size_t kTrickle = 132;

/// Appends kTrickle arrivals of app 0, one every 5 s after the last one,
/// so that the run outlives the keep-alive window of the containers parked
/// before it (those seeded at 0 expire at 10 minutes) while app 0 is still
/// invoked: expiries then happen between checks, where a check that pruned
/// would trace them early.
void add_trickle(std::vector<workload::Arrival>& arrivals) {
  const TimeMs start = arrivals.back().time_ms;
  for (std::size_t i = 1; i <= kTrickle; ++i) {
    arrivals.push_back({start + 5'000.0 * static_cast<TimeMs>(i), AppId(0)});
  }
}

TEST(WarmTally, HoldsThroughCrashesAndFailedColdStarts) {
  Wiring wiring;
  wiring.fault =
      "dispatch:prob=0.05;coldstart:prob=0.2;crash:invoker=1,at=400,down=600";
  wiring.arrivals = round_robin(300, 5.0);
  add_trickle(wiring.arrivals);
  const Outcome out = run_checked(wiring);
  EXPECT_EQ(out.metrics.requests(), 300u + kTrickle);
  EXPECT_GT(ended(out, cluster::WarmEnd::kExpired), 0u);
  EXPECT_GT(out.metrics.cold_start_failures, 0u);
  EXPECT_GT(out.metrics.invoker_crashes, 0u);
  EXPECT_GT(ended(out, cluster::WarmEnd::kCrashed), 0u);
}

TEST(WarmTally, HoldsThroughScalingAndASpotReclaim) {
  Wiring wiring;
  wiring.policy = Policy::kInfless;
  wiring.nodes = 6;
  wiring.elastic =
      "queue:min=1,max=6,out=1,idle-ms=1000,eval-ms=100,provision-ms=200";
  // No warning lead time: a warning can re-activate a re-acquired victim
  // early (the open spot-warning bug).
  wiring.fault = "spot:at=5100,nodes=2";
  // A burst, an idle gap that drains the fleet to one node, and a second
  // burst that acquires nodes again before the reclaim takes two.
  wiring.arrivals = round_robin(40, 10.0);
  const auto later = round_robin(200, 5.0, 5'000.0);
  wiring.arrivals.insert(wiring.arrivals.end(), later.begin(), later.end());
  add_trickle(wiring.arrivals);
  const Outcome out = run_checked(wiring);
  EXPECT_EQ(out.metrics.requests(), 240u + kTrickle);
  EXPECT_GT(ended(out, cluster::WarmEnd::kExpired), 0u);
  EXPECT_GT(out.metrics.scale_ins, 0u);
  EXPECT_GT(out.metrics.scale_outs, 0u);
  EXPECT_GT(out.metrics.spot_reclaims, 0u);
  EXPECT_GT(ended(out, cluster::WarmEnd::kDrained), 0u);
}

TEST(WarmTally, HoldsOnTwoTenantFairQueueRuns) {
  Wiring wiring;
  wiring.policy = Policy::kMqfqSticky;
  wiring.tenants = "gold:3:apps=0,2;bronze:1:energy:apps=1,3;throttle=25";
  wiring.arrivals = round_robin(300, 4.0);
  add_trickle(wiring.arrivals);
  const Outcome out = run_checked(wiring);
  EXPECT_EQ(out.metrics.requests(), 300u + kTrickle);
  EXPECT_GT(ended(out, cluster::WarmEnd::kExpired), 0u);
  EXPECT_GT(ended(out, cluster::WarmEnd::kAcquired), 0u);
}

TEST(WarmTally, HoldsWhenForecastsDrivePrewarm) {
  Wiring wiring;
  wiring.forecast = "ewma:alpha=0.7;lead-ms=500,bin-ms=250";
  wiring.arrivals = round_robin(300, 10.0);
  add_trickle(wiring.arrivals);
  const Outcome out = run_checked(wiring);
  EXPECT_EQ(out.metrics.requests(), 300u + kTrickle);
  EXPECT_GT(ended(out, cluster::WarmEnd::kExpired), 0u);
  EXPECT_GT(out.prewarms, 0u);
}

TEST(WarmTally, HoldsWhenKeepAliveWindowsRunOut) {
  // TraceGolden's shape: a minute of every app, then twelve minutes of a
  // trickle on app 0, so containers parked in the first minute (and those
  // seeded at 0) expire while app 0 is still invoked.
  Wiring wiring;
  wiring.policy = Policy::kFastGshare;
  wiring.arrivals = round_robin(960, 62.5);
  for (std::size_t i = 0; i < 216; ++i) {
    wiring.arrivals.push_back(
        {60'000.0 + 3'333.0 * static_cast<TimeMs>(i), AppId(0)});
  }
  const Outcome out = run_checked(wiring);
  EXPECT_EQ(out.metrics.requests(), 1'176u);
  EXPECT_GT(out.prewarms, 0u);
  EXPECT_GT(ended(out, cluster::WarmEnd::kExpired), 0u);
}

}  // namespace
}  // namespace esg::platform
