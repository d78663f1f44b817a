// MQFQ-Sticky fair-queueing core (PAPERS.md: "Fair Queueing For Serverless
// GPU Functions"; DESIGN.md §12).
//
// One flow per tenant. A flow's *virtual time* (VT) advances by the charge of
// every task dispatched on its behalf (ChargeModel — time, energy, or hybrid
// service) divided by the tenant's weight, so equal-VT flows have received
// weight-proportional service. The three MQFQ mechanisms:
//
//   start-time catch-up   a flow activating after idling resumes at the
//                         global virtual time (max over the min active VT
//                         seen so far), so sleeping tenants bank no credit;
//   throttle threshold T  when gating is enabled (the MQFQ-Sticky scheduler),
//                         a flow whose VT runs more than T ahead of the
//                         slowest active flow is paused until the laggard
//                         catches up — this bounds unfairness to T per pair;
//   locality stickiness   each flow owns a contiguous, weight-proportional
//                         slice of the device ring and prefers dispatching
//                         there, keeping its working set warm on few devices.
//
// The core is pure bookkeeping — deterministic, no clock, no RNG — shared by
// the controller (accounting + scan order + gating) and the MqfqSticky
// scheduler (sticky placement). Weighted-share mode (any other scheduler with
// --tenants) uses the same object with gating off: VT ordering biases the
// round-robin scan, but nothing is ever paused.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "perf/counters.hpp"
#include "tenant/charge.hpp"
#include "tenant/tenant_spec.hpp"

namespace esg::tenant {

class FairQueue {
 public:
  /// `spec` must be non-inert or gating enabled; `device_count` sizes the
  /// sticky device ring (the fleet's invoker count).
  FairQueue(TenantSpec spec, std::size_t device_count, bool gate_throttle);

  [[nodiscard]] std::size_t tenant_count() const { return flows_.size(); }
  [[nodiscard]] const TenantSpec& spec() const { return spec_; }
  [[nodiscard]] bool gating() const { return gate_; }

  /// --- flow accounting (controller hooks) -------------------------------
  void on_enqueue(std::uint32_t t);
  void on_dequeue(std::uint32_t t, std::size_t jobs);
  /// Books one dispatched task: VT += charge(mode, occupancy)/weight.
  void on_charge(std::uint32_t t, double occupancy_ms, std::uint32_t vcpus,
                 std::uint32_t vgpus);

  [[nodiscard]] double virtual_time(std::uint32_t t) const {
    return flows_[t].vt;
  }
  [[nodiscard]] std::size_t backlog(std::uint32_t t) const {
    return flows_[t].backlog;
  }
  /// Cumulative charge (service-ms) billed to the tenant.
  [[nodiscard]] double charged_ms(std::uint32_t t) const {
    return flows_[t].charged_ms;
  }

  /// True when gating is on and flow `t` has run more than T ahead of the
  /// slowest *other* active flow. Each positive answer is counted (gauge).
  [[nodiscard]] bool throttled(std::uint32_t t) const;
  [[nodiscard]] std::uint64_t throttle_events(std::uint32_t t) const {
    return flows_[t].throttle_events;
  }

  /// Tenant indices in dispatch-priority order: ascending VT, ties by id.
  [[nodiscard]] std::vector<std::uint32_t> ordered_tenants() const;

  /// --- sticky device affinity -------------------------------------------
  /// True when `invoker` lies in tenant `t`'s slice of the device ring.
  [[nodiscard]] bool sticky(std::uint32_t t, InvokerId invoker) const;
  /// First device of the tenant's slice (deterministic warm anchor).
  [[nodiscard]] InvokerId sticky_home(std::uint32_t t) const;

  /// Always-on hot-path counters (vt_updates; DESIGN.md §13).
  [[nodiscard]] const perf::Counters& counters() const { return counters_; }

 private:
  struct Flow {
    double vt = 0.0;
    double charged_ms = 0.0;
    std::size_t backlog = 0;
    std::size_t ring_start = 0;  ///< sticky slice [start, start+len) mod D
    std::size_t ring_len = 1;
    mutable std::uint64_t throttle_events = 0;
  };

  /// Min VT over active (backlogged) flows folded into the monotone global
  /// virtual time.
  void refresh_global_vt();

  TenantSpec spec_;
  ChargeModel charge_;
  std::vector<Flow> flows_;
  std::size_t devices_ = 1;
  bool gate_ = false;
  double global_vt_ = 0.0;
  perf::Counters counters_;
};

}  // namespace esg::tenant
