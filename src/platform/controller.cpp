#include "platform/controller.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "perf/layer_clock.hpp"
#include "profile/perf_model.hpp"

namespace esg::platform {

namespace {

/// Floor on the multiplicative execution-noise factor so a pathological
/// Gaussian draw can never produce a non-positive latency.
constexpr double kNoiseFloor = 0.3;

}  // namespace

Controller::Controller(sim::Simulator& sim, cluster::Cluster& cluster,
                       const profile::ProfileSet& profiles,
                       const std::vector<workload::AppDag>& apps,
                       workload::SloSetting slo_setting, Scheduler& scheduler,
                       const RngFactory& rng, ControllerOptions options)
    : sim_(sim),
      cluster_(cluster),
      profiles_(profiles),
      scheduler_(scheduler),
      options_(options),
      noise_rng_(rng.stream("controller-noise")),
      rec_(options.recorder),
      fault_(options.fault),
      elastic_(options.elastic),
      forecast_(options.forecast),
      fq_(options.fair_queue) {
  if (apps.empty()) throw std::invalid_argument("Controller: no applications");

  // Apps are indexed by AppId value; ids must be dense starting at 0.
  std::size_t max_id = 0;
  for (const auto& app : apps) max_id = std::max<std::size_t>(max_id, app.id().get());
  apps_.assign(max_id + 1, nullptr);
  slo_ms_.assign(max_id + 1, 0.0);
  for (const auto& app : apps) {
    app.validate();
    if (apps_[app.id().get()] != nullptr) {
      throw std::invalid_argument("Controller: duplicate AppId");
    }
    apps_[app.id().get()] = &app;
    slo_ms_[app.id().get()] = workload::slo_latency_ms(app, profiles_, slo_setting);
  }
  for (const auto* app : apps_) {
    if (app == nullptr) throw std::invalid_argument("Controller: AppIds not dense");
  }

  // One AFW queue per (application, stage) — Section 3.1. Fair-queue runs
  // key these to tenant 0; other tenants get their queues lazily, the first
  // time they send work, so the base layout (and warm-pool seeding below)
  // is identical to a single-tenant run.
  for (const auto* app : apps_) {
    for (workload::NodeIndex stage = 0; stage < app->size(); ++stage) {
      queue_index_.emplace(queue_key(app->id(), stage, 0), queues_.size());
      AfwQueue queue;
      queue.app = app->id();
      queue.stage = stage;
      queue.function = app->node(stage).function;
      queues_.push_back(std::move(queue));
    }
  }
  tenant_queues_.assign(fq_ != nullptr ? fq_->tenant_count() : 1, {});
  nonempty_.assign(tenant_queues_.size(), {});
  for (std::size_t qi = 0; qi < queues_.size(); ++qi) add_to_scan(qi);
  votes_.assign(cluster_.size(), 0);

  if (rec_ != nullptr && rec_->is_enabled()) announce_trace_tracks();

  if (options_.enable_prewarm) {
    prewarm_ = std::make_unique<prewarm::PrewarmManager>(sim_, cluster_, profiles_);
    prewarm_->set_trace(rec_);
    // The system is assumed to have been serving for a while already: one
    // warm container per AFW function on its home invoker (a single node
    // cannot host a whole application's steady-state load — roughly six of
    // its seven slices — so chains necessarily spread over the fleet).
    // Without this, short experiments measure nothing but the initial
    // cold-start storm.
    for (const AfwQueue& queue : queues_) {
      InvokerId home = cluster_.home_invoker(queue.app, queue.function);
      if (!cluster_.invoker(home).accepts_placements()) {
        // The hash spans the whole cluster; when an elastic fleet starts
        // below its ceiling the home node may be retired, so the seed
        // migrates to the next accepting node (wrapping). Static fleets
        // never take this branch.
        for (std::size_t off = 1; off < cluster_.size(); ++off) {
          const InvokerId cand(static_cast<std::uint32_t>(
              (home.get() + off) % cluster_.size()));
          if (cluster_.invoker(cand).accepts_placements()) {
            home = cand;
            break;
          }
        }
      }
      cluster_.invoker(home).add_warm(queue.function, 0.0,
                                      options_.keep_alive_ms);
    }
  }

  if (forecast_ != nullptr && prewarm_ != nullptr) {
    // Proactive prewarm: every closed forecast bin re-derives per-stream
    // warm targets from the predicted rates lead-ms ahead.
    prewarm_->enable_proactive(forecast_);
    forecast_->set_bin_callback(
        [this](TimeMs now) { prewarm_->on_forecast_bin(now); });
  }

  if (elastic_ != nullptr) {
    elastic_->set_queue_depth_provider([this] { return total_queued_jobs(); });
    elastic_->set_on_activate(
        [this](InvokerId) { ensure_scan_scheduled(); });
    elastic_->set_on_drain(
        [this](InvokerId id) { cancel_provisioning_on(id); });
    elastic_->set_observability(rec_, &metrics_, options_.metrics_warmup_ms);
  }

  if (fault_ != nullptr) {
    fault_->set_crash_handler([this](InvokerId id, TimeMs rejoin_at) {
      on_invoker_crash(id, rejoin_at);
    });
    fault_->set_rejoin_handler([this](InvokerId id) { on_invoker_rejoin(id); });
    fault_->set_spot_handler([this](std::size_t count, TimeMs reclaim_at) {
      on_spot_warning(count, reclaim_at);
    });
    fault_->install(sim_);
  }
}

std::string_view Controller::cause_name(FailureCause cause) {
  switch (cause) {
    case FailureCause::kTransient:
      return "transient";
    case FailureCause::kTimeout:
      return "timeout";
    case FailureCause::kCrash:
      return "crash";
    case FailureCause::kReclaimed:
      return "reclaimed";
  }
  return "unknown";
}

void Controller::announce_trace_tracks() {
  rec_->name_process(obs::kControllerPid, "controller");
  rec_->name_process(obs::kRequestsPid, "requests");
  rec_->name_thread(obs::controller_track(), "scheduler decisions");
  for (const auto& inv : cluster_.invokers()) {
    const std::uint32_t pid = obs::kInvokerPidBase + inv.id().get();
    rec_->name_process(pid, "invoker " + std::to_string(inv.id().get()));
    for (std::uint32_t lane = 0; lane < inv.capacity().vgpus; ++lane) {
      rec_->name_thread({pid, lane}, "gpu slice " + std::to_string(lane));
    }
    rec_->name_thread({pid, obs::kProvisionLane}, "provisioning");
    rec_->name_thread({pid, obs::kWarmPoolLane}, "warm pool");
    trace_gpu_lanes_.configure(inv.id().get(), inv.capacity().vgpus);
  }
}

std::size_t Controller::total_queued_jobs() const {
  std::size_t total = 0;
  for (const AfwQueue& queue : queues_) total += queue.jobs.size();
  return total;
}

std::uint64_t Controller::queue_key(AppId app, workload::NodeIndex stage,
                                    std::uint32_t tenant) const {
  // tenant : bits 44-63, app : bits 12-43, stage : bits 0-11. DAGs are a
  // handful of stages and the trace format caps tenants at 2^10.
  check(stage < (1u << 12), "queue_key: stage out of range");
  return (std::uint64_t{tenant} << 44) | (std::uint64_t{app.get()} << 12) |
         static_cast<std::uint64_t>(stage);
}

std::size_t Controller::queue_of(AppId app, workload::NodeIndex stage,
                                 std::uint32_t tenant) {
  const std::uint64_t key = queue_key(app, stage, tenant);
  const auto it = queue_index_.find(key);
  if (it != queue_index_.end()) return it->second;
  check(fq_ != nullptr && tenant > 0 && tenant < fq_->tenant_count(),
        "queue_of: unknown queue");
  AfwQueue queue;
  queue.app = app;
  queue.stage = stage;
  queue.function = dag_of(app).node(stage).function;
  queue.tenant = tenant;
  const std::size_t qi = queues_.size();
  queue_index_.emplace(key, qi);
  queues_.push_back(std::move(queue));
  add_to_scan(qi);
  return qi;
}

void Controller::add_to_scan(std::size_t qi) {
  AfwQueue& queue = queues_[qi];
  std::vector<std::size_t>& order = tenant_queues_[queue.tenant];
  queue.slot = order.size();
  order.push_back(qi);
  nonempty_[queue.tenant].resize((order.size() + 63) / 64);
}

void Controller::mark_nonempty(const AfwQueue& queue) {
  nonempty_[queue.tenant][queue.slot / 64] |= std::uint64_t{1}
                                              << (queue.slot % 64);
}

void Controller::mark_if_drained(const AfwQueue& queue) {
  if (!queue.jobs.empty()) return;
  // Every path that empties a queue drops its plan first, so a queue that
  // gains a job later plans afresh whether or not a scan saw it empty.
  check(queue.planned_length == AfwQueue::kNoPlan,
        "mark_if_drained: a drained queue keeps its plan");
  nonempty_[queue.tenant][queue.slot / 64] &=
      ~(std::uint64_t{1} << (queue.slot % 64));
}

bool Controller::any_queue_nonempty() const {
  return std::any_of(nonempty_.begin(), nonempty_.end(), [](const auto& bits) {
    return std::any_of(bits.begin(), bits.end(),
                       [](std::uint64_t word) { return word != 0; });
  });
}

void Controller::check_queue_invariants() const {
  for (std::size_t t = 0; t < tenant_queues_.size(); ++t) {
    const std::vector<std::size_t>& order = tenant_queues_[t];
    check(nonempty_[t].size() == (order.size() + 63) / 64,
          "check_queue_invariants: bitmap size differs from the scan order");
    for (std::size_t slot = 0; slot < order.size(); ++slot) {
      const AfwQueue& queue = queues_[order[slot]];
      check(queue.tenant == t && queue.slot == slot,
            "check_queue_invariants: queue filed under the wrong slot");
      const bool bit = ((nonempty_[t][slot / 64] >> (slot % 64)) & 1u) != 0;
      check(bit == !queue.jobs.empty(),
            "check_queue_invariants: bit differs from the queue's emptiness");
      check(!queue.jobs.empty() || queue.planned_length == AfwQueue::kNoPlan,
            "check_queue_invariants: an empty queue holds a plan");
    }
  }
}

TimeMs Controller::slo_of(AppId app) const { return slo_ms_.at(app.get()); }

const workload::AppDag& Controller::dag_of(AppId app) const {
  return *apps_.at(app.get());
}

void Controller::inject(const std::vector<workload::Arrival>& arrivals) {
  for (const auto& arrival : arrivals) {
    // The trace's tenant column only matters on fair-queue runs; a nonzero
    // tenant carried by the arrival overrides the spec's static app→tenant
    // mapping (synthetic/bursty arrivals always carry 0 and fall through to
    // the mapping).
    const std::uint32_t tenant =
        fq_ != nullptr
            ? (arrival.tenant != 0 ? arrival.tenant
                                   : fq_->spec().tenant_of(arrival.app.get()))
            : 0;
    sim_.schedule_at(arrival.time_ms, [this, app = arrival.app, tenant] {
      inject_request(app, tenant);
    });
  }
}

RequestId Controller::inject_request(AppId app) {
  return inject_request(
      app, fq_ != nullptr ? fq_->spec().tenant_of(app.get()) : 0);
}

RequestId Controller::inject_request(AppId app, std::uint32_t tenant) {
  if (forecast_ != nullptr) {
    // Observed before admission control: shed requests are still offered
    // load, and the predictors must see the demand that caused the shed.
    forecast_->on_arrival(app.get(), sim_.now());
  }
  if (elastic_ != nullptr) {
    elastic_->on_arrival(sim_.now());
    if (elastic_->spec().shed && should_shed(app)) {
      const RequestId shed_id(next_request_++);
      shed_request(shed_id, app, tenant, sim_.now());
      return shed_id;
    }
  }
  const workload::AppDag& dag = dag_of(app);
  const RequestId id(next_request_++);

  RequestState state;
  state.arrival_ms = sim_.now();
  state.app = app;
  state.tenant = tenant;
  state.slo_ms = slo_of(app);
  state.remaining_preds.resize(dag.size());
  state.input_location.assign(dag.size(), InvokerId{});
  for (workload::NodeIndex i = 0; i < dag.size(); ++i) {
    state.remaining_preds[i] =
        static_cast<std::uint8_t>(dag.node(i).predecessors.size());
  }
  state.remaining_sinks = dag.sinks().size();
  requests_.emplace(id, std::move(state));

  if (traced_now()) {
    rec_->name_thread(obs::request_track(id),
                      "req " + std::to_string(id.get()) + " (app " +
                          std::to_string(app.get()) + ")");
    // Fix the per-stage SLO budgets the strategy plans with at arrival —
    // the baseline the attribution passes measure drift against. Strategies
    // without an explicit distribution emit nothing (uniform fallback).
    const std::vector<double> fractions =
        scheduler_.planned_stage_fractions(app);
    if (!fractions.empty()) {
      obs::ArgList args{{"app", std::to_string(app.get())},
                        {"slo_ms", std::to_string(slo_of(app))}};
      for (std::size_t stage = 0; stage < fractions.size(); ++stage) {
        args.emplace_back("b" + std::to_string(stage),
                          std::to_string(slo_of(app) * fractions[stage]));
      }
      rec_->instant(obs::InstantKind::kBudgetPlan, "budget plan",
                    obs::request_track(id), sim_.now(), std::move(args));
    }
  }

  scheduler_.on_request(id, app, sim_.now());
  enqueue_job(id, app, dag.entry(), InvokerId{}, sim_.now());
  return id;
}

void Controller::enqueue_job(RequestId request, AppId app,
                             workload::NodeIndex stage,
                             InvokerId input_location, TimeMs now) {
  const auto& dag = dag_of(app);
  const RequestState& req = requests_.at(request);
  AfwQueue& queue = queues_[queue_of(app, stage, req.tenant)];
  if (fq_ != nullptr) fq_->on_enqueue(queue.tenant);

  Job job;
  job.id = JobId(next_job_++);
  job.request = request;
  job.app = app;
  job.stage = stage;
  job.function = dag.node(stage).function;
  job.request_arrival_ms = requests_.at(request).arrival_ms;
  job.enqueue_ms = now;
  job.input_location = input_location;
  queue.push_back_job(std::move(job));
  mark_nonempty(queue);

  ensure_scan_scheduled();
}

void Controller::AfwQueue::push_back_job(Job job) {
  enqueue_times.insert(job.enqueue_ms);
  arrival_times.insert(job.request_arrival_ms);
  jobs.push_back(std::move(job));
}

void Controller::AfwQueue::push_front_job(Job job) {
  enqueue_times.insert(job.enqueue_ms);
  arrival_times.insert(job.request_arrival_ms);
  jobs.push_front(std::move(job));
}

Job Controller::AfwQueue::pop_front_job() {
  Job job = std::move(jobs.front());
  jobs.pop_front();
  enqueue_times.erase(enqueue_times.find(job.enqueue_ms));
  arrival_times.erase(arrival_times.find(job.request_arrival_ms));
  return job;
}

std::size_t Controller::AfwQueue::erase_request_jobs(RequestId request) {
  std::size_t removed = 0;
  for (const Job& job : jobs) {
    if (job.request != request) continue;
    enqueue_times.erase(enqueue_times.find(job.enqueue_ms));
    arrival_times.erase(arrival_times.find(job.request_arrival_ms));
    ++removed;
  }
  if (removed > 0) {
    std::erase_if(jobs,
                  [request](const Job& j) { return j.request == request; });
  }
  return removed;
}

void Controller::ensure_scan_scheduled() {
  if (scan_scheduled_) return;
  scan_scheduled_ = true;
  sim_.schedule_in(0.0, [this] { scan(); });
}

perf::Counters Controller::perf_counters() const {
  perf::Counters c = counters_;
  if (prewarm_) {
    c.prewarms_issued = prewarm_->prewarms_issued();
    c.prewarms_skipped = prewarm_->prewarms_skipped();
  }
  return c;
}

void Controller::scan() {
  const perf::LayerScope layer(perf::Layer::kScan);
  scan_scheduled_ = false;
  ++counters_.scan_rounds;
  if (fq_ == nullptr) {
    // Round-robin over the AFW queues; queues whose placement failed are
    // naturally rechecked on the next scan (Section 3.1's recheck list).
    scan_tenant(0);
  } else {
    // Fair-queue scan: tenants in ascending virtual-time order (the flow
    // that has received the least weighted service goes first), round-robin
    // inside each tenant's queues. A flow more than T ahead of the slowest
    // active one is skipped this round when gating is on (MQFQ throttle);
    // its queues still hold jobs, so the scan re-arms below and the flow
    // resumes as soon as the laggard catches up.
    for (const std::uint32_t t : fq_->ordered_tenants()) {
      if (fq_->gating() && fq_->throttled(t)) continue;
      scan_tenant(t);
    }
  }
  rr_cursor_ = (rr_cursor_ + 1) % queues_.size();

  if (any_queue_nonempty()) {
    scan_scheduled_ = true;
    sim_.schedule_in(options_.scan_interval_ms, [this] { scan(); });
  }
}

void Controller::scan_tenant(std::uint32_t t) {
  const std::vector<std::size_t>& order = tenant_queues_[t];
  const std::vector<std::uint64_t>& bits = nonempty_[t];
  const std::size_t n = order.size();
  if (n == 0) return;
  // The first set bit in [from, end), or `end`. Reads the live words: a
  // dispatch may clear bits behind the walk, and no queue gains jobs during
  // a scan (dispatch and provisioning only schedule events).
  const auto next = [&bits](std::size_t from, std::size_t end) {
    while (from < end) {
      const std::uint64_t word = bits[from / 64] >> (from % 64);
      if (word != 0) {
        return std::min(end, from + static_cast<std::size_t>(
                                        std::countr_zero(word)));
      }
      from = (from / 64 + 1) * 64;
    }
    return end;
  };
  // Positions rr_cursor_ % n .. n-1, then 0 .. rr_cursor_ % n - 1: the
  // order of visiting every queue (rr_cursor_ + k) % n, less the empty ones.
  const std::size_t start = rr_cursor_ % n;
  for (std::size_t i = next(start, n); i < n; i = next(i + 1, n)) {
    process_queue(order[i]);
  }
  for (std::size_t i = next(0, start); i < start; i = next(i + 1, start)) {
    process_queue(order[i]);
  }
}

QueueView Controller::make_view(const AfwQueue& queue) const {
  ++counters_.afw_peeks;
  QueueView view;
  view.app = queue.app;
  view.stage = queue.stage;
  view.function = queue.function;
  view.tenant = queue.tenant;
  view.dag = apps_.at(queue.app.get());
  view.profiles = &profiles_;
  view.queue_length = queue.jobs.size();
  view.slo_ms = slo_of(queue.app);
  view.now_ms = sim_.now();
  view.head_wait_ms = 0.0;
  view.oldest_elapsed_ms = 0.0;
  if (!queue.jobs.empty()) {
    // max(now - stamp) over the queue == now - min(stamp); both stamps are
    // <= now, so the O(1) multiset minimum reproduces the old full rescan.
    view.head_wait_ms = sim_.now() - *queue.enqueue_times.begin();
    view.oldest_elapsed_ms = sim_.now() - *queue.arrival_times.begin();
  }
  if (forecast_ != nullptr) {
    view.forecast_rate_per_s = forecast_->predicted_rate(
        queue.app.get(), sim_.now(), forecast_->spec().lead_ms);
  }
  return view;
}

profile::Config Controller::clamp_for_ablation(profile::Config c) const {
  if (!options_.enable_batching) c.batch = 1;
  if (!options_.enable_gpu_sharing) {
    // Exclusive GPU: the task takes (and is billed for) the whole GPU.
    c.vgpus = cluster_.invokers().front().capacity().vgpus;
  }
  return c;
}

InvokerId Controller::majority_input_location(const AfwQueue& queue,
                                              std::uint16_t batch) {
  const auto first = queue.jobs.begin();
  const auto last =
      first + static_cast<std::ptrdiff_t>(
                  std::min<std::size_t>(batch, queue.jobs.size()));
  for (auto it = first; it != last; ++it) {
    if (it->input_location.valid()) ++votes_[it->input_location.get()];
  }
  // The most votes win and the lowest id breaks a tie, whatever the order
  // the jobs are read in. Reading a tally resets it for the next call.
  InvokerId best;
  std::uint32_t best_votes = 0;
  for (auto it = first; it != last; ++it) {
    if (!it->input_location.valid()) continue;
    const std::uint32_t id = it->input_location.get();
    const std::uint32_t n = std::exchange(votes_[id], 0);
    if (n > best_votes || (n == best_votes && best.valid() && id < best.get())) {
      best = it->input_location;
      best_votes = n;
    }
  }
  return best;
}

void Controller::process_queue(std::size_t qi) {
  ++counters_.queue_visits;
  AfwQueue& queue = queues_[qi];
  check(!queue.jobs.empty(), "process_queue: the scan visited an empty queue");

  // Re-plan when the queue has changed or the cached plan has aged out;
  // otherwise reuse the cached candidates — the recheck-list retry against
  // the (meanwhile changed) worker states.
  const bool need_plan = queue.jobs.size() != queue.planned_length ||
                         sim_.now() >= queue.replan_at_ms;
  if (need_plan) {
    ++counters_.plans;
    if (queue.planned_length != AfwQueue::kNoPlan) ++counters_.replans;
    const QueueView view = make_view(queue);
    const auto wall_start = std::chrono::steady_clock::now();
    PlanResult plan = [&] {
      const perf::LayerScope layer(perf::Layer::kPlan);
      return scheduler_.plan(view);
    }();
    const auto wall_end = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
    if (sim_.now() >= options_.metrics_warmup_ms) {
      metrics_.plan_overhead_ms.push_back(plan.overhead_ms);
      metrics_.plan_wall_clock_ms.push_back(wall_ms);
      if (plan.used_preplanned) {
        ++metrics_.plan_uses;
        if (plan.preplanned_miss) ++metrics_.plan_misses;
      }
    }
    queue.pending_candidates = std::move(plan.candidates);
    queue.pending_overhead_ms = plan.overhead_ms;
    queue.pending_defer = plan.defer;
    queue.planned_length = queue.jobs.size();
    queue.replan_at_ms = sim_.now() + options_.replan_interval_ms;

    if (queue.pending_defer && traced_now()) {
      rec_->instant(obs::InstantKind::kDefer, "defer", obs::controller_track(),
                    sim_.now(),
                    {{"app", std::to_string(queue.app.get())},
                     {"stage", std::to_string(queue.stage)},
                     {"queue_len", std::to_string(queue.jobs.size())}});
    }
    if (plan.planned_budget_ms > 0.0 && traced_now()) {
      rec_->instant(obs::InstantKind::kBudgetReplan, "budget replan",
                    obs::controller_track(), sim_.now(),
                    {{"app", std::to_string(queue.app.get())},
                     {"stage", std::to_string(queue.stage)},
                     {"budget_ms", std::to_string(plan.planned_budget_ms)},
                     {"queue_len", std::to_string(queue.jobs.size())}});
    }
  }

  const TimeMs head_wait = sim_.now() - queue.jobs.front().enqueue_ms;
  const bool forced =
      queue.placement_failures >= options_.recheck_rounds_before_min ||
      head_wait > options_.defer_cap_ms;
  if (queue.pending_defer && !forced) return;

  std::vector<profile::Config> candidates;
  if (forced) {
    // Escape hatch: dispatch with the minimum resource configuration
    // (1 vCPU, 1 vGPU) to guarantee progress, regardless of what the
    // strategy proposes. The whole backlog goes as one batch — paying one
    // container start per queued job would melt the cluster in cold starts.
    const auto& spec = profiles_.table(queue.function).spec();
    profile::Config min_config = profile::kMinConfig;
    min_config.batch = static_cast<std::uint16_t>(std::min<std::size_t>(
        {queue.jobs.size(), spec.max_batch, std::size_t{8}}));
    candidates.push_back(clamp_for_ablation(min_config));
    ++metrics_.forced_min_dispatches;
    if (traced_now()) {
      rec_->instant(
          obs::InstantKind::kForcedMinDispatch, "forced min dispatch",
          obs::controller_track(), sim_.now(),
          {{"app", std::to_string(queue.app.get())},
           {"stage", std::to_string(queue.stage)},
           {"queue_len", std::to_string(queue.jobs.size())},
           {"failed_rounds", std::to_string(queue.placement_failures)},
           {"head_wait_ms", std::to_string(head_wait)}});
    }
  } else {
    candidates.reserve(queue.pending_candidates.size());
    for (profile::Config c : queue.pending_candidates) {
      c.batch = static_cast<std::uint16_t>(
          std::min<std::size_t>(c.batch, queue.jobs.size()));
      if (c.batch == 0) continue;
      candidates.push_back(clamp_for_ablation(c));
    }
    if (candidates.empty()) {
      candidates.push_back(clamp_for_ablation(profile::kMinConfig));
    }
  }

  PlacementContext ctx;
  ctx.app = queue.app;
  ctx.stage = queue.stage;
  ctx.function = queue.function;
  ctx.tenant = queue.tenant;
  ctx.home_invoker = cluster_.home_invoker(queue.app, queue.function);
  ctx.now_ms = sim_.now();

  for (const profile::Config& config : candidates) {
    ctx.config = config;
    ctx.predecessor_invoker = majority_input_location(queue, config.batch);

    // Retried jobs must avoid the invoker their last attempt failed on.
    // Escape hatches: a single-node cluster has nowhere else to go, and a
    // forced dispatch prioritises progress over placement hygiene.
    ctx.excluded_invoker = InvokerId{};
    if (!forced && cluster_.size() > 1) {
      std::uint16_t scanned = 0;
      for (const Job& job : queue.jobs) {
        if (scanned++ == config.batch) break;
        if (job.exclude_invoker.valid()) {
          ctx.excluded_invoker = job.exclude_invoker;
          break;
        }
      }
    }

    // Phase A — reuse: any fitting invoker that already holds a warm
    // container serves the task (that is what keep-alive instances are
    // for, on every platform); locality breaks ties.
    const std::optional<InvokerId> warm_fit = [&]() -> std::optional<InvokerId> {
      const auto fits_warm = [&](InvokerId id) {
        if (ctx.excluded_invoker.valid() && id == ctx.excluded_invoker) {
          return false;
        }
        const auto& inv = cluster_.invoker(id);
        return inv.can_fit(config.vcpus, config.vgpus) &&
               inv.has_warm(queue.function, sim_.now());
      };
      if (scheduler_.prefers_locality()) {
        if (ctx.predecessor_invoker.valid() &&
            fits_warm(ctx.predecessor_invoker)) {
          return ctx.predecessor_invoker;
        }
        if (fits_warm(ctx.home_invoker)) return ctx.home_invoker;
      }
      // Fleet scan through the warm-pool index: candidates come back in
      // ascending id order, reproducing the historical whole-fleet first
      // fit without visiting nodes that never parked a container. Stale
      // candidates (keep-alive expired, crashed, drained) are dropped as
      // they are observed — they can only re-enter via add_warm.
      const std::set<InvokerId>& warm_ids =
          cluster_.warm_candidates(queue.function);
      for (auto it = warm_ids.begin(); it != warm_ids.end();) {
        const InvokerId id = *it;
        ++it;  // advance before the erase below invalidates `id`'s position
        if (!cluster_.invoker(id).has_warm(queue.function, sim_.now())) {
          cluster_.drop_warm_candidate(queue.function, id);
          continue;
        }
        if (ctx.excluded_invoker.valid() && id == ctx.excluded_invoker) {
          continue;
        }
        if (cluster_.invoker(id).can_fit(config.vcpus, config.vgpus)) {
          return id;
        }
      }
      return std::nullopt;
    }();
    if (warm_fit.has_value()) {
      ++counters_.warm_hits;
      queue.placement_failures = 0;
      const TimeMs overhead = queue.pending_overhead_ms;
      queue.planned_length = AfwQueue::kNoPlan;  // plan consumed
      queue.pending_candidates.clear();
      dispatch(queue, config, *warm_fit, overhead);
      return;
    }

    // Phase B — no warm container fits. Start provisioning a new container
    // right away (create + model load, off the execution resources; the
    // per-invoker in-flight guard stops runaway growth) while the jobs keep
    // queueing: they dispatch on whichever comes first — a running
    // container turning idle or the new one becoming warm. The provisioning
    // target follows the strategy's instance-placement policy (locality for
    // ESG/Orion/Aquatope, packing for INFless and FaST-GShare). Either way
    // the cold start surfaces as queueing delay.
    const std::optional<InvokerId> target = [&] {
      const perf::LayerScope layer(perf::Layer::kPlace);
      return forced ? locality_first_place(ctx, cluster_)
                    : scheduler_.place(ctx, cluster_);
    }();
    if (target.has_value()) {
      provision_container(*target, queue.function);
      queue.placement_failures = 0;
      return;
    }
    if (function_active_anywhere(queue.function)) {
      // Nothing fits right now, but containers of this function are busy
      // elsewhere: wait for one instead of counting a placement failure.
      queue.placement_failures = 0;
      return;
    }
  }
  if (traced_now()) {
    rec_->instant(obs::InstantKind::kNoPlacement, "no placement",
                  obs::controller_track(), sim_.now(),
                  {{"app", std::to_string(queue.app.get())},
                   {"stage", std::to_string(queue.stage)},
                   {"candidates", std::to_string(candidates.size())},
                   {"free_vcpus", std::to_string(cluster_.total_free_vcpus())},
                   {"free_vgpus", std::to_string(cluster_.total_free_vgpus())},
                   {"queue_len", std::to_string(queue.jobs.size())}});
  }
  ++queue.placement_failures;
}

void Controller::dispatch(AfwQueue& queue, const profile::Config& config,
                          InvokerId invoker_id, TimeMs overhead_ms) {
  const perf::LayerScope layer(perf::Layer::kDispatch);
  ++counters_.dispatches;
  check(config.batch > 0 && config.batch <= queue.jobs.size(),
        "dispatch: batch exceeds queue length");

  auto& invoker = cluster_.invoker(invoker_id);
  check(invoker.can_fit(config.vcpus, config.vgpus),
        "dispatch: placement chose an overloaded invoker");
  invoker.allocate(config.vcpus, config.vgpus);

  Task task;
  task.id = TaskId(next_task_++);
  task.app = queue.app;
  task.stage = queue.stage;
  task.tenant = queue.tenant;
  task.function = queue.function;
  task.config = config;
  task.invoker = invoker_id;
  task.dispatch_ms = sim_.now();
  for (std::uint16_t i = 0; i < config.batch; ++i) {
    task.jobs.push_back(queue.pop_front_job());
  }
  mark_if_drained(queue);
  if (fq_ != nullptr) fq_->on_dequeue(queue.tenant, task.jobs.size());

  const auto& table = profiles_.table(task.function);
  const auto& spec = table.spec();

  const bool measured = sim_.now() >= options_.metrics_warmup_ms;

  // Tasks always consume a warm container: cold starts run as container
  // provisioning in process_queue, off the execution resources, and show up
  // as queueing delay for the affected jobs.
  task.warm_start = invoker.acquire_warm(task.function, sim_.now());
  check(task.warm_start, "dispatch: no warm container on the chosen invoker");
  task.cold_ms = 0.0;
  if (measured) ++metrics_.warm_starts;

  // Input staging: per-job inputs are fetched in parallel; the batch waits
  // for the slowest. Entry-stage inputs always come from the ingress store.
  TimeMs transfer = 0.0;
  for (const Job& job : task.jobs) {
    const bool local =
        job.input_location.valid() && job.input_location == invoker_id;
    if (measured) {
      if (local) {
        ++metrics_.local_inputs;
      } else {
        ++metrics_.remote_inputs;
      }
      metrics_.job_wait_ms.push_back(sim_.now() - job.enqueue_ms);
    }
    transfer = std::max(
        transfer, cluster_.transfer_model().transfer_ms(spec.input_mb, local));
  }
  task.transfer_ms = transfer;

  // Execution with multiplicative Gaussian noise. The latency comes from
  // the analytical model directly (not the table): batch clamping and the
  // ablation overrides can produce configurations outside the enumerated
  // space (e.g. more vGPU slices than jobs), which still execute fine.
  const TimeMs nominal_ms = profile::PerfModel::latency_ms(spec, config);
  const double noise =
      std::max(kNoiseFloor, noise_rng_.gaussian(1.0, options_.noise_cv));
  task.exec_ms = nominal_ms * noise;

  // Fault injection: stretch the execution by any slowdown window covering
  // this invoker, then draw whether this task dies mid-run. Both are absent
  // (no branch, no draw) on fault-free runs.
  bool will_fail = false;
  if (fault_ != nullptr) {
    task.exec_ms = profile::PerfModel::degraded_ms(
        task.exec_ms, fault_->slowdown_factor(invoker_id, sim_.now()));
    will_fail = fault_->dispatch_fails(task.function);
  }

  ++active_by_function_[task.function];

  // The tenant's flow is charged at dispatch, for the full occupancy the
  // task was billed (a fault-run failure does not refund virtual time: the
  // service was reserved on the flow's behalf either way).
  if (fq_ != nullptr) {
    fq_->on_charge(task.tenant, task.occupancy_ms(), config.vcpus,
                   config.vgpus);
  }

  task.cost = prices_.cost(config.vcpus, config.vgpus, task.occupancy_ms());
  // Fault runs account the task when its outcome is known: a completed task
  // books here retroactively from finish_inflight(); a failed one bills only
  // the occupancy it actually held, in fail_inflight().
  if (fault_ == nullptr) book_task(task);

  const TimeMs start = sim_.now() + overhead_ms;  // work begins post-overhead
  const TimeMs done = start + task.occupancy_ms();
  if (traced_now()) {
    task.trace_lanes = trace_gpu_lanes_.acquire(invoker_id.get(), config.vgpus);
  }
  // Fault runs emit the task spans when the outcome is known, so the spans
  // show what actually happened (a failure cuts them short).
  if (fault_ == nullptr) {
    emit_task_spans(task, overhead_ms, done, false, {});
  }
  if (traced_now()) {
    std::string stage_tag = "a";
    stage_tag += std::to_string(task.app.get());
    stage_tag += "/s";
    stage_tag += std::to_string(task.stage);
    rec_->instant(obs::InstantKind::kDispatch, "dispatch " + stage_tag,
                  obs::controller_track(), sim_.now(),
                  {{"app", std::to_string(task.app.get())},
                   {"stage", std::to_string(task.stage)},
                   {"batch", std::to_string(config.batch)},
                   {"vcpus", std::to_string(config.vcpus)},
                   {"vgpus", std::to_string(config.vgpus)},
                   {"invoker", std::to_string(invoker_id.get())},
                   {"overhead_ms", std::to_string(overhead_ms)}});
  }

  if (prewarm_) {
    prewarm_->on_invocation(task.app, task.function, invoker_id, sim_.now(),
                            task.occupancy_ms());
  }

  // The scheduling overhead delays the start of the work; the resources are
  // reserved now (the controller has committed them) but the occupancy bill
  // covers only the task itself.
  if (fault_ == nullptr) {
    const TimeMs completion = sim_.now() + overhead_ms + task.occupancy_ms();
    sim_.schedule_at(completion, [this, task = std::move(task)] {
      complete_task(task);
    });
    return;
  }

  // Fault run: book the task in flight and race its outcome against the
  // watchdog. The outcome is scheduled first, so an exact tie (completion on
  // the watchdog deadline) resolves as the outcome.
  InFlightTask entry;
  entry.overhead_ms = overhead_ms;
  const std::uint32_t tid = task.id.get();
  if (will_fail) {
    // An injected failure surfaces halfway through the execution.
    const TimeMs fail_at = start + task.transfer_ms + 0.5 * task.exec_ms;
    entry.outcome = sim_.schedule_at(fail_at, [this, tid] {
      fail_inflight(tid, FailureCause::kTransient);
    });
  } else {
    entry.outcome = sim_.schedule_at(done, [this, tid] { finish_inflight(tid); });
  }
  // The watchdog runs off the noise-free expectation: a straggler stretched
  // past `factor` x nominal is killed and retried even though it would have
  // finished eventually.
  const TimeMs watchdog_ms =
      std::max(options_.task_timeout_floor_ms,
               options_.task_timeout_factor * (task.transfer_ms + nominal_ms));
  entry.timeout = sim_.schedule_at(start + watchdog_ms, [this, tid] {
    fail_inflight(tid, FailureCause::kTimeout);
  });
  entry.task = std::move(task);
  inflight_.emplace(tid, std::move(entry));
}

void Controller::emit_task_spans(const Task& task, TimeMs overhead_ms,
                                 TimeMs done, bool failed,
                                 std::string_view cause) {
  if (rec_ == nullptr || !rec_->is_enabled() ||
      task.dispatch_ms < options_.metrics_warmup_ms) {
    return;
  }
  const TimeMs start = task.dispatch_ms + overhead_ms;
  std::string stage_tag = "a";
  stage_tag += std::to_string(task.app.get());
  stage_tag += "/s";
  stage_tag += std::to_string(task.stage);

  for (const Job& job : task.jobs) {
    const obs::Track req_track = obs::request_track(job.request);
    rec_->span(obs::SpanKind::kQueueWait, "wait " + stage_tag, req_track,
               job.enqueue_ms, task.dispatch_ms,
               {{"job", std::to_string(job.id.get())},
                {"stage", std::to_string(task.stage)},
                {"task", std::to_string(task.id.get())}});
    obs::ArgList run_args{{"task", std::to_string(task.id.get())},
                          {"stage", std::to_string(task.stage)},
                          {"invoker", std::to_string(task.invoker.get())},
                          {"batch", std::to_string(task.config.batch)},
                          {"overhead_ms", std::to_string(overhead_ms)}};
    if (failed) {
      run_args.emplace_back("failed", "true");
      run_args.emplace_back("cause", std::string(cause));
      run_args.emplace_back("attempt", std::to_string(job.attempts));
    }
    rec_->span(obs::SpanKind::kStage, "run " + stage_tag, req_track,
               task.dispatch_ms, done, std::move(run_args));
  }

  const std::uint32_t primary =
      task.trace_lanes.empty() ? 0u : task.trace_lanes.front();
  const obs::Track exec_track = obs::invoker_track(task.invoker, primary);
  if (task.transfer_ms > 0.0) {
    rec_->span(obs::SpanKind::kStaging, "staging " + stage_tag, exec_track,
               start, std::min(start + task.transfer_ms, done),
               {{"task", std::to_string(task.id.get())}});
  }
  if (done > start + task.transfer_ms) {
    obs::ArgList exec_args{{"task", std::to_string(task.id.get())},
                           {"function", std::to_string(task.function.get())},
                           {"batch", std::to_string(task.config.batch)},
                           {"vcpus", std::to_string(task.config.vcpus)},
                           {"vgpus", std::to_string(task.config.vgpus)},
                           {"cost_usd", std::to_string(task.cost)}};
    if (failed) {
      exec_args.emplace_back("failed", "true");
      exec_args.emplace_back("cause", std::string(cause));
    }
    rec_->span(obs::SpanKind::kExec, "exec " + stage_tag, exec_track,
               start + task.transfer_ms, done, std::move(exec_args));
  }
  for (std::size_t i = 1; i < task.trace_lanes.size(); ++i) {
    rec_->span(obs::SpanKind::kSliceOccupied, "slice " + stage_tag,
               obs::invoker_track(task.invoker, task.trace_lanes[i]), start,
               done, {{"task", std::to_string(task.id.get())}});
  }
}

void Controller::finish_inflight(std::uint32_t task_id) {
  auto it = inflight_.find(task_id);
  check(it != inflight_.end(), "finish_inflight: task not in flight");
  InFlightTask entry = std::move(it->second);
  inflight_.erase(it);
  sim_.cancel(entry.timeout);
  const Task& task = entry.task;
  book_task(task);
  emit_task_spans(task, entry.overhead_ms, sim_.now(), false, {});
  complete_task(task);
}

void Controller::book_task(const Task& task) {
  if (task.dispatch_ms < options_.metrics_warmup_ms) return;
  metrics_.total_cost += task.cost;
  metrics_.cost_by_app[task.app] += task.cost;
  ++metrics_.tasks;
  metrics_.task_trace.push_back(metrics::TaskRecord{
      task.id, task.app, task.stage, task.function, task.invoker,
      task.config.batch, task.config.vcpus, task.config.vgpus,
      task.dispatch_ms, task.transfer_ms, task.exec_ms, task.cost});
}

void Controller::fail_inflight(std::uint32_t task_id, FailureCause cause) {
  auto it = inflight_.find(task_id);
  if (it == inflight_.end()) return;  // raced with a crash that killed it
  InFlightTask entry = std::move(it->second);
  inflight_.erase(it);
  sim_.cancel(entry.outcome);
  sim_.cancel(entry.timeout);
  Task& task = entry.task;

  // Release everything the task held. The container itself is lost — no
  // warm entry returns to the pool, unlike a completion.
  release_task(task);

  // Bill the occupancy actually held (post-overhead up to the failure).
  const TimeMs start = task.dispatch_ms + entry.overhead_ms;
  const TimeMs held_ms = std::max(0.0, sim_.now() - start);
  task.cost = prices_.cost(task.config.vcpus, task.config.vgpus, held_ms);
  if (task.dispatch_ms >= options_.metrics_warmup_ms) {
    metrics_.total_cost += task.cost;
    metrics_.cost_by_app[task.app] += task.cost;
    ++metrics_.task_failures;
    if (cause == FailureCause::kTimeout) ++metrics_.task_timeouts;
  }

  emit_task_spans(task, entry.overhead_ms, sim_.now(), true, cause_name(cause));
  retry_or_abort(task, cause);
  ensure_scan_scheduled();
}

void Controller::fail_tasks_on(InvokerId invoker, FailureCause cause) {
  // Sorted ids: inflight_ is an unordered_map and the failure path feeds
  // the trace, which must stay byte-reproducible.
  std::vector<std::uint32_t> victims;
  for (const auto& [tid, entry] : inflight_) {
    if (entry.task.invoker == invoker) victims.push_back(tid);
  }
  std::sort(victims.begin(), victims.end());
  for (const std::uint32_t tid : victims) fail_inflight(tid, cause);
}

void Controller::retry_or_abort(const Task& task, FailureCause cause) {
  const TimeMs now = sim_.now();
  const auto& dag = dag_of(task.app);
  const std::vector<double> fractions =
      scheduler_.planned_stage_fractions(task.app);
  const double fraction = (task.stage < fractions.size())
                              ? fractions[task.stage]
                              : 1.0 / static_cast<double>(dag.size());
  const TimeMs stage_budget_ms = slo_of(task.app) * fraction;

  bool budget_eaten = false;
  for (const Job& job : task.jobs) {
    if (now - job.enqueue_ms > stage_budget_ms) budget_eaten = true;
    if (aborted_requests_.count(job.request.get()) > 0) continue;

    Job retry = job;
    ++retry.attempts;
    retry.exclude_invoker = task.invoker;

    if (traced_now()) {
      rec_->instant(obs::InstantKind::kFault, "fault",
                    obs::request_track(job.request), now,
                    {{"stage", std::to_string(task.stage)},
                     {"cause", std::string(cause_name(cause))},
                     {"attempt", std::to_string(retry.attempts)},
                     {"invoker", std::to_string(task.invoker.get())},
                     {"task", std::to_string(task.id.get())}});
    }

    if (static_cast<int>(retry.attempts) > options_.max_task_retries) {
      if (traced_now()) {
        rec_->instant(obs::InstantKind::kRetryExhausted, "retry exhausted",
                      obs::request_track(job.request), now,
                      {{"stage", std::to_string(task.stage)},
                       {"attempts", std::to_string(retry.attempts)}});
      }
      abort_request(job.request, task.stage, now);
      continue;
    }

    if (now >= options_.metrics_warmup_ms) ++metrics_.retries;
    const TimeMs backoff_ms =
        std::min(options_.retry_backoff_cap_ms,
                 options_.retry_backoff_base_ms *
                     std::exp2(static_cast<double>(retry.attempts - 1)));
    if (traced_now()) {
      rec_->instant(obs::InstantKind::kRetry, "retry",
                    obs::controller_track(), now,
                    {{"app", std::to_string(task.app.get())},
                     {"stage", std::to_string(task.stage)},
                     {"attempt", std::to_string(retry.attempts)},
                     {"backoff_ms", std::to_string(backoff_ms)},
                     {"exclude", std::to_string(task.invoker.get())}});
    }
    sim_.schedule_in(backoff_ms, [this, retry] { requeue_job(retry); });
  }

  scheduler_.on_stage_retry(task.app, task.stage, now);

  if (budget_eaten) {
    // The failed attempt consumed the stage's SLO share: force the next scan
    // to re-plan this queue (ESG renormalises the remaining budget against
    // the elapsed time — its natural re-plan path).
    auto qit = queue_index_.find(queue_key(task.app, task.stage, task.tenant));
    if (qit != queue_index_.end()) {
      AfwQueue& queue = queues_[qit->second];
      queue.planned_length = AfwQueue::kNoPlan;
      queue.replan_at_ms = now;
    }
  }
}

void Controller::requeue_job(const Job& job) {
  if (aborted_requests_.count(job.request.get()) > 0) return;
  const RequestState& req = requests_.at(job.request);
  AfwQueue& queue = queues_[queue_of(job.app, job.stage, req.tenant)];
  if (fq_ != nullptr) fq_->on_enqueue(queue.tenant);
  // Front of the queue: the retried job is the oldest work this stage has.
  queue.push_front_job(job);
  queue.planned_length = AfwQueue::kNoPlan;
  mark_nonempty(queue);
  ensure_scan_scheduled();
}

void Controller::abort_request(RequestId request, workload::NodeIndex stage,
                               TimeMs now) {
  auto it = requests_.find(request);
  if (it == requests_.end()) return;
  aborted_requests_.insert(request.get());

  // Drop the request's queued jobs everywhere (parallel DAG branches may
  // have siblings waiting at other stages).
  for (AfwQueue& queue : queues_) {
    const std::size_t removed = queue.erase_request_jobs(request);
    if (removed > 0) {
      queue.planned_length = AfwQueue::kNoPlan;
      mark_if_drained(queue);
      if (fq_ != nullptr) fq_->on_dequeue(queue.tenant, removed);
    }
  }

  const RequestState req = it->second;
  requests_.erase(it);

  if (req.arrival_ms < options_.metrics_warmup_ms) return;

  ++metrics_.retries_exhausted;
  metrics::CompletionRecord record;
  record.request = request;
  record.app = req.app;
  record.tenant = req.tenant;
  record.arrival_ms = req.arrival_ms;
  record.completion_ms = now;
  record.latency_ms = now - req.arrival_ms;
  record.slo_ms = req.slo_ms;
  record.hit = false;
  record.failed = true;
  metrics_.completions.push_back(record);

  if (rec_ != nullptr && rec_->is_enabled()) {
    obs::ArgList args{{"app", std::to_string(req.app.get())},
                      {"latency_ms", std::to_string(record.latency_ms)},
                      {"slo_ms", std::to_string(req.slo_ms)},
                      {"hit", "false"},
                      {"aborted", "true"},
                      {"abort_stage", std::to_string(stage)}};
    if (fq_ != nullptr) {
      args.emplace_back("tenant", fq_->spec().tenant_name(req.tenant));
    }
    rec_->span(obs::SpanKind::kRequest,
               "request " + std::to_string(request.get()),
               obs::request_track(request), req.arrival_ms, now,
               std::move(args));
  }
}

void Controller::on_invoker_crash(InvokerId invoker, TimeMs rejoin_at_ms) {
  const TimeMs now = sim_.now();
  if (now >= options_.metrics_warmup_ms) ++metrics_.invoker_crashes;

  if (traced_now()) {
    rec_->instant(obs::InstantKind::kInvokerCrash, "invoker crash",
                  obs::controller_track(), now,
                  {{"invoker", std::to_string(invoker.get())},
                   {"rejoin_at_ms", std::to_string(rejoin_at_ms)}});
    rec_->span(obs::SpanKind::kInvokerDown,
               "down invoker " + std::to_string(invoker.get()),
               obs::invoker_track(invoker, obs::kProvisionLane), now,
               rejoin_at_ms, {{"invoker", std::to_string(invoker.get())}});
  }

  fail_tasks_on(invoker, FailureCause::kCrash);

  // Cancel in-flight container provisioning targeting the dead node.
  cancel_provisioning_on(invoker);

  // Finally drop the warm pool and mark the node dead.
  cluster_.invoker(invoker).crash(now);
}

void Controller::cancel_provisioning_on(InvokerId invoker) {
  for (auto pit = provisioning_.begin(); pit != provisioning_.end();) {
    if (static_cast<std::uint32_t>(pit->first >> 32) == invoker.get()) {
      sim_.cancel(pit->second);
      pit = provisioning_.erase(pit);
    } else {
      ++pit;
    }
  }
}

void Controller::on_spot_warning(std::size_t count, TimeMs reclaim_at_ms) {
  const TimeMs now = sim_.now();
  // Victims: the highest-id in-fleet (Active or Warming) nodes — the most
  // recently acquired capacity, which is what spot markets take back first.
  // Deterministic, so two replays of the same spec pick the same nodes.
  std::vector<InvokerId> victims;
  for (std::size_t i = cluster_.size(); i-- > 0 && victims.size() < count;) {
    const auto& inv = cluster_.invokers()[i];
    if (inv.state() == cluster::NodeState::kActive ||
        inv.state() == cluster::NodeState::kWarming) {
      victims.push_back(inv.id());
    }
  }
  std::sort(victims.begin(), victims.end(),
            [](InvokerId a, InvokerId b) { return a.get() < b.get(); });
  for (const InvokerId id : victims) {
    if (now >= options_.metrics_warmup_ms) ++metrics_.spot_reclaims;
    if (traced_now()) {
      rec_->instant(obs::InstantKind::kSpotWarning, "spot warning",
                    obs::controller_track(), now,
                    {{"invoker", std::to_string(id.get())},
                     {"reclaim_at_ms", std::to_string(reclaim_at_ms)}});
    }
    // Drain: nothing new lands here; in-flight tasks get the warning lead
    // time to finish before the deadline kills the stragglers.
    cluster_.invoker(id).begin_drain();
    cancel_provisioning_on(id);
    sim_.schedule_at(reclaim_at_ms, [this, id] { reclaim_invoker(id); });
  }
}

void Controller::reclaim_invoker(InvokerId invoker) {
  auto& node = cluster_.invoker(invoker);
  // Already retired: every task finished inside the warning window and the
  // elastic manager released the node early.
  if (node.state() == cluster::NodeState::kRetired) return;
  const TimeMs now = sim_.now();
  if (traced_now()) {
    rec_->instant(obs::InstantKind::kSpotReclaim, "spot reclaim",
                  obs::controller_track(), now,
                  {{"invoker", std::to_string(invoker.get())}});
  }
  // Kill what is still running here; the jobs retry on surviving nodes with
  // this invoker excluded.
  fail_tasks_on(invoker, FailureCause::kReclaimed);
  cancel_provisioning_on(invoker);
  // retire() drops the warm pool (WarmEnd::kDrained) and asserts no
  // vCPU/vGPU is still held — the no-leak invariant of every reclaim.
  node.retire(now);
  if (traced_now()) {
    rec_->instant(obs::InstantKind::kNodeRetired, "node_retired",
                  obs::controller_track(), now,
                  {{"invoker", std::to_string(invoker.get())}});
  }
}

bool Controller::should_shed(AppId app) const {
  // Serving capacity, counting nodes already warming (they arrive within a
  // provisioning lead time, well inside any DNN workflow SLO).
  std::size_t slices = 0;
  for (const auto& inv : cluster_.invokers()) {
    const auto state = inv.state();
    if (state == cluster::NodeState::kActive ||
        state == cluster::NodeState::kWarming) {
      slices += inv.capacity().vgpus;
    }
  }
  if (slices == 0) return true;  // no capacity and none on the way

  // Best-case critical path: every stage at its fastest profiled config.
  const auto& dag = dag_of(app);
  std::vector<TimeMs> longest(dag.size(), -1.0);
  std::function<TimeMs(workload::NodeIndex)> path_to =
      [&](workload::NodeIndex i) -> TimeMs {
    if (longest[i] >= 0.0) return longest[i];
    TimeMs best_pred = 0.0;
    for (workload::NodeIndex p : dag.node(i).predecessors) {
      best_pred = std::max(best_pred, path_to(p));
    }
    longest[i] =
        best_pred + profiles_.table(dag.node(i).function).min_latency();
    return longest[i];
  };
  TimeMs floor_ms = 0.0;
  for (workload::NodeIndex sink : dag.sinks()) {
    floor_ms = std::max(floor_ms, path_to(sink));
  }

  // Backlog penalty: the queued tasks ahead of this request, each at a
  // best-case mean stage latency, spread over the fleet's slices.
  const TimeMs mean_stage_ms = floor_ms / static_cast<double>(dag.size());
  const TimeMs penalty_ms =
      static_cast<double>(total_queued_jobs()) * mean_stage_ms /
      static_cast<double>(slices);
  return floor_ms + penalty_ms >
         elastic_->spec().shed_margin * slo_of(app);
}

void Controller::shed_request(RequestId request, AppId app,
                              std::uint32_t tenant, TimeMs now) {
  if (now >= options_.metrics_warmup_ms) {
    ++metrics_.shed_requests;
    metrics::CompletionRecord record;
    record.request = request;
    record.app = app;
    record.tenant = tenant;
    record.arrival_ms = now;
    record.completion_ms = now;
    record.latency_ms = 0.0;
    record.slo_ms = slo_of(app);
    record.hit = false;
    record.failed = false;
    record.shed = true;
    metrics_.completions.push_back(record);
  }
  if (traced_now()) {
    rec_->name_thread(obs::request_track(request),
                      "req " + std::to_string(request.get()) + " (app " +
                          std::to_string(app.get()) + ")");
    obs::ArgList args{{"app", std::to_string(app.get())},
                      {"slo_ms", std::to_string(slo_of(app))},
                      {"queued", std::to_string(total_queued_jobs())}};
    if (fq_ != nullptr) {
      args.emplace_back("tenant", fq_->spec().tenant_name(tenant));
    }
    rec_->instant(obs::InstantKind::kShed, "shed",
                  obs::request_track(request), now, std::move(args));
  }
}

void Controller::on_invoker_rejoin(InvokerId invoker) {
  cluster_.invoker(invoker).rejoin();
  if (traced_now()) {
    rec_->instant(obs::InstantKind::kInvokerRejoin, "invoker rejoin",
                  obs::controller_track(), sim_.now(),
                  {{"invoker", std::to_string(invoker.get())}});
  }
  ensure_scan_scheduled();
}

void Controller::provision_container(InvokerId invoker, FunctionId function) {
  const std::uint64_t key = (std::uint64_t{invoker.get()} << 32) | function.get();
  auto [slot, inserted] = provisioning_.emplace(key, sim::EventHandle{});
  if (!inserted) return;  // already underway
  ++counters_.warm_misses;
  if (sim_.now() >= options_.metrics_warmup_ms) ++metrics_.cold_starts;
  const TimeMs cold = profiles_.table(function).spec().cold_start_ms;
  // Fault injection: the provisioning burns the full cold-start time and
  // then fails — no warm container joins the pool. Drawn up front so the
  // trace can flag the doomed span.
  const bool fails = fault_ != nullptr && fault_->cold_start_fails(function);
  if (traced_now()) {
    obs::ArgList args{{"function", std::to_string(function.get())},
                      {"cold_ms", std::to_string(cold)}};
    if (fails) args.emplace_back("failed", "true");
    rec_->span(obs::SpanKind::kColdStart,
               "cold start f" + std::to_string(function.get()),
               obs::invoker_track(invoker, obs::kProvisionLane), sim_.now(),
               sim_.now() + cold, std::move(args));
  }
  slot->second = sim_.schedule_in(cold, [this, key, invoker, function, fails] {
    provisioning_.erase(key);
    if (fails) {
      if (sim_.now() >= options_.metrics_warmup_ms) {
        ++metrics_.cold_start_failures;
      }
      if (traced_now()) {
        rec_->instant(obs::InstantKind::kColdStartFailure, "cold start failure",
                      obs::invoker_track(invoker, obs::kProvisionLane),
                      sim_.now(),
                      {{"function", std::to_string(function.get())}});
      }
    } else {
      cluster_.invoker(invoker).add_warm(function, sim_.now(),
                                         options_.keep_alive_ms);
    }
    ensure_scan_scheduled();
  });
}

bool Controller::function_active_anywhere(FunctionId function) const {
  auto it = active_by_function_.find(function);
  if (it != active_by_function_.end() && it->second > 0) return true;
  // Warm-pool index instead of a fleet scan; stale candidates are dropped
  // as observed (same lazy contract as the placement path).
  const std::set<InvokerId>& warm_ids = cluster_.warm_candidates(function);
  for (auto cit = warm_ids.begin(); cit != warm_ids.end();) {
    const InvokerId id = *cit;
    ++cit;
    if (cluster_.invoker(id).has_warm(function, sim_.now())) return true;
    cluster_.drop_warm_candidate(function, id);
  }
  return false;
}

void Controller::complete_task(const Task& task) {
  release_task(task);
  cluster_.invoker(task.invoker)
      .add_warm(task.function, sim_.now(), options_.keep_alive_ms);
  for (const Job& job : task.jobs) {
    advance_job(job, task.invoker, sim_.now());
  }
  ensure_scan_scheduled();
}

void Controller::release_task(const Task& task) {
  cluster_.invoker(task.invoker).release(task.config.vcpus, task.config.vgpus);
  if (!task.trace_lanes.empty()) {
    trace_gpu_lanes_.release(task.invoker.get(), task.trace_lanes);
  }
  auto active = active_by_function_.find(task.function);
  check(active != active_by_function_.end() && active->second > 0,
        "release_task: active-task accounting underflow");
  --active->second;
}

void Controller::advance_job(const Job& job, InvokerId ran_on,
                             TimeMs completion_ms) {
  auto req_it = requests_.find(job.request);
  if (req_it == requests_.end()) {
    // The request was aborted (retries exhausted) while this sibling task
    // was still in flight; its result has nowhere to go.
    check(aborted_requests_.count(job.request.get()) > 0,
          "advance_job: unknown request");
    return;
  }
  RequestState& req = req_it->second;
  const auto& dag = dag_of(job.app);
  const auto& node = dag.node(job.stage);

  for (workload::NodeIndex succ : node.successors) {
    // Merge the input location: a join stage whose inputs live on different
    // invokers has no single local source, so it degrades to remote.
    InvokerId& loc = req.input_location[succ];
    if (!loc.valid()) {
      loc = ran_on;
    } else if (loc != ran_on) {
      loc = InvokerId{};  // mixed sources -> remote
    }
    check(req.remaining_preds[succ] > 0, "advance_job: predecessor underflow");
    if (--req.remaining_preds[succ] == 0) {
      enqueue_job(job.request, job.app, succ, req.input_location[succ],
                  completion_ms);
    }
  }

  if (node.successors.empty()) {
    check(req.remaining_sinks > 0, "advance_job: sink underflow");
    if (--req.remaining_sinks == 0) {
      finish_request(job.request, completion_ms);
    }
  }
}

void Controller::finish_request(RequestId request, TimeMs completion_ms) {
  auto it = requests_.find(request);
  check(it != requests_.end(), "finish_request: unknown request");
  const RequestState& req = it->second;

  if (req.arrival_ms < options_.metrics_warmup_ms) {
    requests_.erase(it);  // simulated, but outside the measurement window
    return;
  }

  metrics::CompletionRecord record;
  record.request = request;
  record.app = req.app;
  record.tenant = req.tenant;
  record.arrival_ms = req.arrival_ms;
  record.completion_ms = completion_ms;
  record.latency_ms = completion_ms - req.arrival_ms;
  record.slo_ms = req.slo_ms;
  record.hit = record.latency_ms <= req.slo_ms;
  metrics_.completions.push_back(record);

  if (rec_ != nullptr && rec_->is_enabled()) {
    obs::ArgList args{{"app", std::to_string(req.app.get())},
                      {"latency_ms", std::to_string(record.latency_ms)},
                      {"slo_ms", std::to_string(req.slo_ms)},
                      {"hit", record.hit ? "true" : "false"}};
    if (fq_ != nullptr) {
      args.emplace_back("tenant", fq_->spec().tenant_name(req.tenant));
    }
    rec_->span(obs::SpanKind::kRequest,
               "request " + std::to_string(request.get()),
               obs::request_track(request), req.arrival_ms, completion_ms,
               std::move(args));
  }

  requests_.erase(it);
}

void Controller::run_to_completion() { sim_.run(); }

}  // namespace esg::platform
