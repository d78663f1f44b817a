// Job and task records flowing through the platform. A *job* is one request's
// inference at one DAG stage; a *task* is a batch of jobs dispatched as a
// single function invocation (Section 3.2, task model).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "profile/config.hpp"
#include "workload/dag.hpp"

namespace esg::platform {

struct Job {
  JobId id;
  RequestId request;
  AppId app;
  workload::NodeIndex stage = 0;
  FunctionId function;
  TimeMs request_arrival_ms = 0.0;  ///< when the end-to-end request arrived
  TimeMs enqueue_ms = 0.0;          ///< when this job entered its AFW queue
  /// Where this job's input currently lives: the invoker that ran the
  /// predecessor stage, or invalid for entry-stage jobs (input at ingress).
  InvokerId input_location;
  /// Dispatch attempts already made for this stage (0 = first try). Bumped
  /// by the recovery path; caps the retry loop.
  std::uint8_t attempts = 0;
  /// Invoker the previous attempt failed on (invalid on the first attempt);
  /// placement must avoid it.
  InvokerId exclude_invoker;
};

struct Task {
  TaskId id;
  AppId app;
  workload::NodeIndex stage = 0;
  std::uint32_t tenant = 0;  ///< owning flow (0 on single-tenant runs)
  FunctionId function;
  profile::Config config;
  InvokerId invoker;
  std::vector<Job> jobs;

  TimeMs dispatch_ms = 0.0;  ///< when resources were allocated
  TimeMs transfer_ms = 0.0;  ///< input staging component
  TimeMs exec_ms = 0.0;      ///< noisy execution latency
  Usd cost = 0.0;
  /// vGPU-slice rows this task occupies in the trace (empty when tracing is
  /// off); released when the task completes.
  std::vector<std::uint32_t> trace_lanes;

  /// Full node-occupancy duration. A task always runs in a warm container:
  /// cold starts are container provisioning, off the execution resources.
  [[nodiscard]] TimeMs occupancy_ms() const { return transfer_ms + exec_ms; }
};

}  // namespace esg::platform
