// The serverless controller: owns the AFW job queues, scans them round-robin,
// invokes the pluggable scheduling strategy, dispatches tasks to invokers and
// drives their lifecycle (cold start, input staging, execution, keep-alive),
// advances request DAGs, and collects metrics.
//
// This mirrors the OpenWhisk controller the paper builds on (Section 2) plus
// the paper's platform-level mechanisms shared by all schedulers
// (Section 4.2): GPU sharing, batching, data locality and pre-warming.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "elastic/elastic_manager.hpp"
#include "forecast/forecaster.hpp"
#include "fault/fault_engine.hpp"
#include "metrics/run_metrics.hpp"
#include "obs/recorder.hpp"
#include "perf/counters.hpp"
#include "platform/job.hpp"
#include "platform/scheduler.hpp"
#include "prewarm/prewarm_manager.hpp"
#include "profile/profile_table.hpp"
#include "sim/simulator.hpp"
#include "tenant/fair_queue.hpp"
#include "workload/applications.hpp"
#include "workload/arrivals.hpp"
#include "workload/dag.hpp"

namespace esg::platform {

struct ControllerOptions {
  /// Coefficient of variation of the multiplicative Gaussian execution noise
  /// (Section 4: "the emulations add Gaussian noises to the performance").
  double noise_cv = 0.06;
  bool enable_prewarm = true;
  /// Ablation switches (Figure 12). With GPU sharing disabled every task
  /// occupies (and is billed for) the node's entire GPU; with batching
  /// disabled every task carries exactly one job.
  bool enable_gpu_sharing = true;
  bool enable_batching = true;
  /// Measurement warm-up: requests arriving before this time are simulated
  /// normally but excluded from the completion/cost/start metrics, so
  /// experiments report steady-state behaviour rather than the initial
  /// cold-start wave (every scheduler shares the same warm-up).
  TimeMs metrics_warmup_ms = 0.0;
  /// Structured-tracing handle (non-owning; nullptr or a recorder with no
  /// sinks disables all instrumentation at a single-branch cost). Spans and
  /// instants follow the metrics warm-up window so trace counts line up
  /// with the exported CSVs.
  obs::TraceRecorder* recorder = nullptr;
  /// Fault-injection engine (non-owning; nullptr = fault-free run, which
  /// keeps every legacy code path untouched — traces stay byte-identical).
  /// When set, the controller registers the crash/rejoin handlers, installs
  /// the engine on the simulator, and tracks every task in flight so it can
  /// fail, time out, and retry them.
  fault::FaultEngine* fault = nullptr;
  /// Recovery policy (only consulted when `fault` is set). A failed task's
  /// jobs are re-enqueued with capped exponential backoff, excluding the
  /// invoker that failed, at most `max_task_retries` times per job; after
  /// that the request is aborted and counted as an SLO miss.
  int max_task_retries = 3;
  /// Elastic fleet manager (non-owning; nullptr = static fleet). When set,
  /// the controller wires the manager's hooks (queue depth, activation
  /// re-scan, drain-time provisioning cancellation), notifies it of
  /// arrivals, and — when the spec enables shedding — applies admission
  /// control: requests whose projected latency cannot meet the SLO on the
  /// current fleet are rejected up front and counted as `shed@admission`.
  elastic::ElasticManager* elastic = nullptr;
  /// Arrival forecaster (non-owning; nullptr = reactive run on the exact
  /// legacy code path — outputs stay byte-identical). When set, the
  /// controller feeds it every arrival, surfaces its per-app predictions in
  /// QueueView::forecast_rate_per_s (the ESG planner's look-ahead), and
  /// drives the prewarm manager's proactive mode from its bin callback.
  forecast::ForecastService* forecast = nullptr;
  /// Multi-tenant fair queueing (non-owning; nullptr = single-tenant run on
  /// the exact legacy code path — outputs stay byte-identical). When set, the
  /// controller keeps one AFW queue per (tenant, app, stage), scans tenants
  /// in ascending virtual-time order (skipping throttled flows when the fair
  /// queue gates), books every dispatch's charge against its tenant's flow,
  /// and stamps completion records and request spans with the tenant.
  tenant::FairQueue* fair_queue = nullptr;
};

class Controller {
 public:
  /// All references must outlive the controller.
  Controller(sim::Simulator& sim, cluster::Cluster& cluster,
             const profile::ProfileSet& profiles,
             const std::vector<workload::AppDag>& apps,
             workload::SloSetting slo_setting, Scheduler& scheduler,
             const RngFactory& rng, ControllerOptions options = {});

  /// Schedules the given arrivals as future request events.
  void inject(const std::vector<workload::Arrival>& arrivals);

  /// Injects one request immediately (at sim.now()). Returns its id. The
  /// single-argument form maps the app through the tenant spec's static
  /// app→tenant assignment (tenant 0 on single-tenant runs).
  RequestId inject_request(AppId app);
  RequestId inject_request(AppId app, std::uint32_t tenant);

  /// Runs the simulation until all injected requests complete (or the event
  /// queue drains).
  void run_to_completion();

  [[nodiscard]] const metrics::RunMetrics& metrics() const { return metrics_; }
  [[nodiscard]] metrics::RunMetrics& metrics() { return metrics_; }
  [[nodiscard]] TimeMs slo_of(AppId app) const;
  [[nodiscard]] const workload::AppDag& dag_of(AppId app) const;
  [[nodiscard]] const cluster::Cluster& cluster() const { return cluster_; }
  [[nodiscard]] std::size_t inflight_requests() const { return requests_.size(); }
  /// Jobs currently waiting across all AFW queues (stats-sampler gauge).
  [[nodiscard]] std::size_t total_queued_jobs() const;
  /// Always-on hot-path counters (DESIGN.md §13), with the prewarm
  /// subsystem's issue/skip tallies folded in.
  [[nodiscard]] perf::Counters perf_counters() const;

  /// Cross-validates the scan's bitmap against the queues: a queue's bit is
  /// set exactly when the queue holds jobs, and an empty queue holds no plan. Throws via check() on violation (test
  /// hook, run between events).
  void check_queue_invariants() const;

 private:
  struct AfwQueue {
    AppId app;
    workload::NodeIndex stage = 0;
    FunctionId function;
    std::uint32_t tenant = 0;  ///< owning flow (always 0 without fair queueing)
    std::size_t slot = 0;      ///< position in tenant_queues_[tenant]
    std::deque<Job> jobs;
    int placement_failures = 0;  ///< consecutive recheck rounds

    // Incremental min-trackers over the queued jobs (DESIGN.md §15): multiset
    // mirrors of the enqueue/arrival stamps make make_view O(1) instead of
    // rescanning the deque per plan. The deque is not sorted by either stamp
    // once fault retries push_front at interleaved backoffs, hence explicit
    // tracking. Every jobs mutation must go through the helpers below.
    std::multiset<TimeMs> enqueue_times;
    std::multiset<TimeMs> arrival_times;

    void push_back_job(Job job);
    void push_front_job(Job job);
    Job pop_front_job();
    /// Removes every job of `request`; returns how many were dropped.
    std::size_t erase_request_jobs(RequestId request);

    // Cached plan (cleared on dispatch or when the queue length changes).
    std::vector<profile::Config> pending_candidates;
    TimeMs pending_overhead_ms = 0.0;
    bool pending_defer = false;
    std::size_t planned_length = kNoPlan;
    TimeMs replan_at_ms = 0.0;

    static constexpr std::size_t kNoPlan = static_cast<std::size_t>(-1);
  };

  struct RequestState {
    TimeMs arrival_ms = 0.0;
    AppId app;
    std::uint32_t tenant = 0;
    TimeMs slo_ms = 0.0;
    std::vector<std::uint8_t> remaining_preds;  ///< per DAG node
    std::vector<InvokerId> input_location;      ///< per DAG node (merged)
    std::size_t remaining_sinks = 0;
  };

  /// Why a dispatched task failed (fault-injection runs only).
  enum class FailureCause : std::uint8_t {
    kTransient,  ///< fault-injected mid-run dispatch failure
    kTimeout,    ///< watchdog fired before the task completed
    kCrash,      ///< the hosting invoker crashed
    kReclaimed,  ///< the hosting invoker was spot-reclaimed mid-task
  };
  [[nodiscard]] static std::string_view cause_name(FailureCause cause);

  /// A dispatched task awaiting its outcome (fault-injection runs only: the
  /// fault-free path schedules completion directly and never books here).
  struct InFlightTask {
    Task task;
    TimeMs overhead_ms = 0.0;
    sim::EventHandle outcome;  ///< completion or injected failure
    sim::EventHandle timeout;  ///< the watchdog
  };

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  const profile::ProfileSet& profiles_;
  std::vector<const workload::AppDag*> apps_;  // indexed by AppId value
  std::vector<TimeMs> slo_ms_;                 // indexed by AppId value
  /// Best-case critical path (every stage at its fastest profiled
  /// configuration), indexed by AppId value: admission's latency floor.
  std::vector<TimeMs> floor_ms_;
  Scheduler& scheduler_;
  ControllerOptions options_;
  profile::PriceModel prices_;

  std::vector<AfwQueue> queues_;  // one per (app, stage), in app-major order;
                                  // tenant>0 queues appended on first use
  std::unordered_map<std::uint64_t, std::size_t> queue_index_;  // (tenant,app,stage)
  std::size_t rr_cursor_ = 0;
  bool scan_scheduled_ = false;
  /// Queue indices per tenant, in creation order. Tenant 0 holds the base
  /// queues built at construction, which are all the queues of a run
  /// without fair queueing.
  std::vector<std::vector<std::size_t>> tenant_queues_;
  /// One bit per queue of each tenant, bit i standing for
  /// tenant_queues_[t][i], set while that queue holds jobs. The scan visits
  /// only set bits (DESIGN.md §15).
  std::vector<std::vector<std::uint64_t>> nonempty_;
  /// Per-invoker vote tally of majority_input_location, all zero between
  /// calls.
  std::vector<std::uint32_t> votes_;

  std::unordered_map<RequestId, RequestState> requests_;
  std::uint32_t next_request_ = 0;
  std::uint32_t next_job_ = 0;
  std::uint32_t next_task_ = 0;

  RngStream noise_rng_;
  metrics::RunMetrics metrics_;
  /// mutable: make_view() is const but afw_peeks must tally its calls.
  mutable perf::Counters counters_;
  std::unique_ptr<prewarm::PrewarmManager> prewarm_;
  obs::TraceRecorder* rec_ = nullptr;     ///< = options_.recorder
  obs::LaneAllocator trace_gpu_lanes_;    ///< vGPU-slice rows for the trace
  /// Running tasks per function (any app). A queue that can place nothing
  /// waits on them without counting a placement failure.
  std::unordered_map<FunctionId, std::size_t> active_by_function_;
  /// (invoker, function) pairs with a container currently being provisioned,
  /// mapped to the landing event so a crash can cancel it.
  std::unordered_map<std::uint64_t, sim::EventHandle> provisioning_;

  fault::FaultEngine* fault_ = nullptr;  ///< = options_.fault
  elastic::ElasticManager* elastic_ = nullptr;  ///< = options_.elastic
  forecast::ForecastService* forecast_ = nullptr;  ///< = options_.forecast
  tenant::FairQueue* fq_ = nullptr;      ///< = options_.fair_queue
  /// Tasks in flight, by TaskId value (fault-injection runs only).
  std::unordered_map<std::uint32_t, InFlightTask> inflight_;
  /// Requests aborted after exhausting their retry budget; sibling in-flight
  /// jobs of these requests complete into the void.
  std::unordered_set<std::uint32_t> aborted_requests_;

  /// Tracing is live and the current time is inside the measured window.
  [[nodiscard]] bool traced_now() const {
    return rec_ != nullptr && rec_->is_enabled() &&
           sim_.now() >= options_.metrics_warmup_ms;
  }
  /// Names the controller/request/invoker tracks once at construction.
  void announce_trace_tracks();

  [[nodiscard]] bool function_active_anywhere(FunctionId function) const;
  /// Starts provisioning a container (container create + model load) on
  /// `invoker`; it joins the warm pool after the cold-start time. No-op if
  /// one is already being provisioned there.
  void provision_container(InvokerId invoker, FunctionId function);

  void ensure_scan_scheduled();
  void scan();
  /// Visits tenant `t`'s queues that hold jobs, round-robin from rr_cursor_.
  void scan_tenant(std::uint32_t t);
  /// Attempts to plan + dispatch one task from queue `qi`, which holds jobs.
  void process_queue(std::size_t qi);
  /// Appends queue `qi` to its tenant's scan order, with a clear bit.
  void add_to_scan(std::size_t qi);
  /// Sets the queue's bit; called after every push.
  void mark_nonempty(const AfwQueue& queue);
  /// Clears the queue's bit if it has no jobs left; called after every pop.
  void mark_if_drained(const AfwQueue& queue);
  void dispatch(AfwQueue& queue, const profile::Config& config,
                InvokerId invoker, TimeMs overhead_ms);
  /// A finished task: frees what it held and returns its warm container.
  void complete_task(const Task& task);
  /// Frees a task's vCPU/vGPU and trace lanes and drops it from the active
  /// count (both outcomes).
  void release_task(const Task& task);
  /// Books a task's cost and TaskRecord when it was dispatched in the
  /// measured window.
  void book_task(const Task& task);
  void advance_job(const Job& job, InvokerId ran_on, TimeMs completion_ms);
  void enqueue_job(RequestId request, AppId app, workload::NodeIndex stage,
                   InvokerId input_location, TimeMs now);
  /// Books a request's outcome, once: its completion record and request
  /// span when it arrived in the measured window. `abort_stage` is the stage
  /// whose retries ran out; the request then counts as failed and missed.
  void finish_request(RequestId request, TimeMs completion_ms,
                      std::optional<workload::NodeIndex> abort_stage = {});

  /// Emits the per-job wait/run spans and the invoker staging/exec/slice
  /// spans of a task ending (successfully or not) at `done`. Shared by the
  /// fault-free dispatch path and the deferred fault-run outcome paths.
  void emit_task_spans(const Task& task, TimeMs overhead_ms, TimeMs done,
                       bool failed, std::string_view cause);
  /// Outcome of a tracked task: success (cancel the watchdog, account, and
  /// complete) or failure (release everything, bill the partial occupancy,
  /// and retry or abort each job).
  void finish_inflight(std::uint32_t task_id);
  void fail_inflight(std::uint32_t task_id, FailureCause cause);
  /// Fails every task in flight on `invoker`, in task-id order.
  void fail_tasks_on(InvokerId invoker, FailureCause cause);
  void retry_or_abort(const Task& task, FailureCause cause);
  void requeue_job(const Job& job);
  /// Drops every queued job of `request` and finishes it as aborted at
  /// `stage`; a request already finished is left alone.
  void abort_request(RequestId request, workload::NodeIndex stage, TimeMs now);
  void on_invoker_crash(InvokerId invoker, TimeMs rejoin_at_ms);
  void on_invoker_rejoin(InvokerId invoker);

  /// Cancels every container still being provisioned on `invoker` (shared
  /// by the crash, drain, and reclamation paths).
  void cancel_provisioning_on(InvokerId invoker);
  /// Spot warning: picks the `count` highest-id in-fleet nodes, drains
  /// them, and schedules their reclamation at `reclaim_at_ms`.
  void on_spot_warning(std::size_t count, TimeMs reclaim_at_ms);
  /// Reclamation deadline: kills what is still running on the node
  /// (FailureCause::kReclaimed, retried elsewhere) and retires it.
  void reclaim_invoker(InvokerId invoker);
  /// Admission control (shedding enabled only): true when the projected
  /// latency of a new `app` request exceeds shed-margin x SLO on the
  /// current fleet. Deterministic: a capacity floor from the performance
  /// model plus a backlog penalty; no randomness.
  [[nodiscard]] bool should_shed(AppId app) const;
  /// Records a shed request: completion record (miss), kShed instant.
  void shed_request(RequestId request, AppId app, std::uint32_t tenant,
                    TimeMs now);

  [[nodiscard]] QueueView make_view(const AfwQueue& queue) const;
  [[nodiscard]] profile::Config clamp_for_ablation(profile::Config c) const;
  /// The invoker holding the most inputs of the first `batch` jobs, the
  /// lowest id on a tie; invalid when none has a location.
  [[nodiscard]] InvokerId majority_input_location(const AfwQueue& queue,
                                                  std::uint16_t batch);
  [[nodiscard]] std::uint64_t queue_key(AppId app, workload::NodeIndex stage,
                                        std::uint32_t tenant) const;
  /// Index of the (tenant, app, stage) queue, creating the per-tenant queue
  /// on first use (tenant>0 queues exist only once their tenant sends work).
  [[nodiscard]] std::size_t queue_of(AppId app, workload::NodeIndex stage,
                                     std::uint32_t tenant);
  /// True while any queue's bit is set: the scan re-arms.
  [[nodiscard]] bool any_queue_nonempty() const;
};

}  // namespace esg::platform
