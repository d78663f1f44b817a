// The controller scan visits only the queues whose bit is set in its
// non-empty bitmap (DESIGN.md §15). Controller::check_queue_invariants()
// cross-validates the bitmap against the queues; these runs call it after
// every event on the three paths that push and pop outside the plain
// enqueue/dispatch pair:
//
//  - a faulted split/join run that exhausts its retries, so abort_request
//    drops an aborted request's job waiting on the other branch;
//  - a run whose failures retry, so requeue_job pushes to the front;
//  - a two-tenant MQFQ-Sticky run, whose per-tenant queues are appended to
//    the scan order as their tenant first sends work.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/infless.hpp"
#include "core/esg_scheduler.hpp"
#include "fault/fault_engine.hpp"
#include "fault/fault_spec.hpp"
#include "platform/controller.hpp"
#include "profile/function_spec.hpp"
#include "tenant/fair_queue.hpp"
#include "tenant/mqfq_scheduler.hpp"
#include "tenant/tenant_spec.hpp"
#include "workload/applications.hpp"

namespace esg::platform {
namespace {

constexpr std::size_t kNodes = 4;

struct World {
  profile::ProfileSet profiles = profile::ProfileSet::builtin();
  std::vector<workload::AppDag> apps = workload::builtin_applications();
  sim::Simulator sim;
  cluster::Cluster cluster{kNodes};
  RngFactory rng{11};
};

/// A diamond: deblur fans out to super-resolution and segmentation, and
/// classification joins them. A request has a job on each branch at once.
workload::AppDag diamond() {
  using profile::Function;
  workload::AppDag dag(AppId(0), "diamond");
  const auto deblur = dag.add_node(profile::id_of(Function::kDeblur));
  const auto sr = dag.add_node(profile::id_of(Function::kSuperResolution));
  const auto seg = dag.add_node(profile::id_of(Function::kSegmentation));
  const auto cls = dag.add_node(profile::id_of(Function::kClassification));
  dag.add_edge(deblur, sr);
  dag.add_edge(deblur, seg);
  dag.add_edge(sr, cls);
  dag.add_edge(seg, cls);
  return dag;
}

/// Every app in turn, one arrival every `gap_ms`, with tenant 0 (the
/// controller maps apps to tenants on fair-queue runs).
std::vector<workload::Arrival> arrivals(const World& w, std::size_t count,
                                        TimeMs gap_ms) {
  std::vector<workload::Arrival> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({static_cast<TimeMs>(i) * gap_ms,
                   w.apps[i % w.apps.size()].id()});
  }
  return out;
}

/// Fires every event, checking the bitmap after each; returns the count.
std::size_t run_checked(sim::Simulator& sim, const Controller& ctl) {
  ctl.check_queue_invariants();
  std::size_t events = 0;
  while (sim.step()) {
    ctl.check_queue_invariants();
    ++events;
  }
  return events;
}

TEST(ScanBitmap, HoldsWhenRetriesRunOutAndRequestsAbort) {
  World w;
  w.apps = {diamond()};
  core::EsgScheduler sched(w.apps, w.profiles);
  // Failed cold starts keep a branch's job waiting, so an abort can take
  // the last job out of a queue.
  fault::FaultEngine faults(
      fault::parse_fault_spec("dispatch:prob=0.5;coldstart:prob=0.5"),
      w.rng.scoped("fault"));
  ControllerOptions options;
  options.fault = &faults;
  options.max_task_retries = 1;
  Controller ctl(w.sim, w.cluster, w.profiles, w.apps,
                 workload::SloSetting::kModerate, sched, w.rng, options);
  ctl.inject(arrivals(w, 200, 10.0));

  EXPECT_GT(run_checked(w.sim, ctl), 0u);
  EXPECT_GT(ctl.metrics().retries_exhausted, 0u);
  EXPECT_EQ(ctl.total_queued_jobs(), 0u);
}

TEST(ScanBitmap, HoldsWhenFailedJobsRequeueAtTheFront) {
  World w;
  baselines::InflessScheduler sched(w.apps, w.profiles);
  fault::FaultEngine faults(
      fault::parse_fault_spec(
          "dispatch:prob=0.1;crash:invoker=1,at=300,down=200"),
      w.rng.scoped("fault"));
  ControllerOptions options;
  options.fault = &faults;
  options.max_task_retries = 10;
  Controller ctl(w.sim, w.cluster, w.profiles, w.apps,
                 workload::SloSetting::kModerate, sched, w.rng, options);
  ctl.inject(arrivals(w, 200, 4.0));

  EXPECT_GT(run_checked(w.sim, ctl), 0u);
  EXPECT_GT(ctl.metrics().retries, 0u);
  EXPECT_EQ(ctl.metrics().retries_exhausted, 0u);
  EXPECT_EQ(ctl.metrics().requests(), 200u);
}

TEST(ScanBitmap, HoldsOnTwoTenantFairQueueScans) {
  World w;
  tenant::FairQueue fq(
      tenant::parse_tenant_spec(
          "gold:3:apps=0,2;bronze:1:energy:apps=1,3;throttle=25"),
      kNodes, /*gate_throttle=*/true);
  tenant::MqfqStickyScheduler sched(w.apps, w.profiles, {}, &fq);
  ControllerOptions options;
  options.fair_queue = &fq;
  Controller ctl(w.sim, w.cluster, w.profiles, w.apps,
                 workload::SloSetting::kModerate, sched, w.rng, options);
  ctl.inject(arrivals(w, 200, 4.0));

  EXPECT_GT(run_checked(w.sim, ctl), 0u);
  EXPECT_EQ(ctl.metrics().requests(), 200u);
  // Both flows were served, so tenant 1's queues joined the scan mid-run.
  EXPECT_GT(fq.charged_ms(0), 0.0);
  EXPECT_GT(fq.charged_ms(1), 0.0);
}

}  // namespace
}  // namespace esg::platform
