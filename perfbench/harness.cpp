#include "harness.hpp"

#include <sys/resource.h>

#include <stdexcept>

#include "baselines/aquatope.hpp"
#include "baselines/fast_gshare.hpp"
#include "baselines/infless.hpp"
#include "baselines/orion.hpp"
#include "cluster/cluster.hpp"
#include "core/esg_scheduler.hpp"
#include "platform/controller.hpp"
#include "sim/simulator.hpp"
#include "tenant/tenant_spec.hpp"

namespace perfbench {

using namespace esg;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

platform::PlanResult TimedScheduler::plan(const platform::QueueView& view) {
  const auto start = Clock::now();
  platform::PlanResult result = inner_.plan(view);
  const double s = seconds_since(start);
  times_.plan_s += s;
  times_.plan_us.push_back(s * 1e6);
  return result;
}

std::optional<InvokerId> TimedScheduler::place(
    const platform::PlacementContext& ctx, const cluster::Cluster& cluster) {
  const auto start = Clock::now();
  std::optional<InvokerId> invoker = inner_.place(ctx, cluster);
  times_.place_s += seconds_since(start);
  ++times_.place_calls;
  return invoker;
}

void TimedScheduler::on_request(RequestId request, AppId app, TimeMs now_ms) {
  const auto start = Clock::now();
  inner_.on_request(request, app, now_ms);
  times_.on_request_s += seconds_since(start);
}

template <typename Call>
void TimedSink::forward(Call&& call) {
  if (!timed_) {
    call();
    return;
  }
  const auto start = Clock::now();
  call();
  busy_s_ += seconds_since(start);
}

void TimedSink::on_span(const obs::Span& span) {
  if (!first_record_) first_record_ = Clock::now();
  forward([&] { inner_->on_span(span); });
}

void TimedSink::on_instant(const obs::Instant& instant) {
  if (!first_record_) first_record_ = Clock::now();
  forward([&] { inner_->on_instant(instant); });
}

void TimedSink::on_counter(const obs::CounterSample& sample) {
  if (!first_record_) first_record_ = Clock::now();
  forward([&] { inner_->on_counter(sample); });
}

void TimedSink::on_process_name(std::uint32_t pid, std::string_view name) {
  forward([&] { inner_->on_process_name(pid, name); });
}

void TimedSink::on_thread_name(obs::Track track, std::string_view name) {
  forward([&] { inner_->on_thread_name(track, name); });
}

void TimedSink::flush() {
  forward([&] { inner_->flush(); });
}

std::unique_ptr<platform::Scheduler> make_scheduler(
    const exp::Scenario& scenario, const std::vector<workload::AppDag>& apps,
    const profile::ProfileSet& profiles, const RngFactory& rng) {
  switch (scenario.scheduler) {
    case exp::SchedulerKind::kEsg:
      return std::make_unique<core::EsgScheduler>(apps, profiles, scenario.esg);
    case exp::SchedulerKind::kInfless:
      return std::make_unique<baselines::InflessScheduler>(apps, profiles,
                                                           scenario.infless);
    case exp::SchedulerKind::kFastGshare:
      return std::make_unique<baselines::FastGshareScheduler>(
          apps, profiles, scenario.fast_gshare);
    case exp::SchedulerKind::kOrion:
      return std::make_unique<baselines::OrionScheduler>(apps, profiles,
                                                         scenario.orion);
    case exp::SchedulerKind::kAquatope:
      return std::make_unique<baselines::AquatopeScheduler>(
          apps, profiles, scenario.slo, rng, scenario.aquatope);
    case exp::SchedulerKind::kMqfqSticky:
      break;
  }
  throw std::invalid_argument("make_scheduler: unsupported scheduler");
}

WiredRun run_wired(const exp::Scenario& scenario, bool traced) {
  const std::size_t trace_tenants = scenario.arrivals.trace != nullptr
                                        ? scenario.arrivals.trace->tenant_count
                                        : 1;
  if (!scenario.fault.inert() || scenario.elastic.enabled() ||
      !tenant::resolve_for_trace(scenario.tenants, trace_tenants).inert() ||
      scenario.forecast.enabled() || scenario.trace.enabled() ||
      scenario.wall_budget_ms > 0.0 ||
      (scenario.arrivals.mode == exp::ArrivalMode::kTrace &&
       scenario.arrivals.trace == nullptr)) {
    throw std::invalid_argument(
        "run_wired: scenario needs a part only run_scenario wires");
  }

  WiredRun run;
  const auto setup_start = Clock::now();
  const RngFactory rng(scenario.seed);

  auto phase = Clock::now();
  const profile::ProfileSet profiles =
      profile::ProfileSet::builtin(scenario.config_space);
  run.profile_build_s = seconds_since(phase);
  const std::vector<workload::AppDag> apps = workload::builtin_applications();

  sim::Simulator sim(scenario.engine);
  cluster::Cluster cluster(scenario.nodes);

  phase = Clock::now();
  const std::unique_ptr<platform::Scheduler> inner =
      make_scheduler(scenario, apps, profiles, rng);
  run.construct_s = seconds_since(phase);
  std::optional<TimedScheduler> timed;
  if (traced) timed.emplace(*inner);
  platform::Scheduler& scheduler = traced ? *timed : *inner;

  platform::ControllerOptions options = scenario.controller;
  options.metrics_warmup_ms = scenario.warmup_ms;
  platform::Controller controller(sim, cluster, profiles, apps, scenario.slo,
                                  scheduler, rng, options);

  std::vector<AppId> app_ids;
  app_ids.reserve(apps.size());
  for (const auto& app : apps) app_ids.push_back(app.id());
  phase = Clock::now();
  const auto source =
      exp::make_arrival_source(scenario, std::move(app_ids), rng);
  const std::vector<workload::Arrival> arrivals =
      source->generate_until(scenario.horizon_ms);
  run.arrivals_s = seconds_since(phase);
  controller.inject(arrivals);
  run.setup_s = seconds_since(setup_start);

  const auto loop_start = Clock::now();
  controller.run_to_completion();
  run.loop_s = seconds_since(loop_start);

  run.arrivals = arrivals.size();
  run.measured_arrivals = count_measured(arrivals, scenario.warmup_ms);
  run.inflight_after = controller.inflight_requests();
  run.metrics = controller.metrics();
  run.counters = sim.counters();
  run.counters.merge(controller.perf_counters());
  if (traced) run.scheduler_times = timed->times();
  return run;
}

std::size_t count_measured(const std::vector<workload::Arrival>& arrivals,
                           TimeMs warmup_ms) {
  std::size_t n = 0;
  for (const auto& a : arrivals) n += a.time_ms >= warmup_ms ? 1 : 0;
  return n;
}

std::string conservation_error(std::size_t measured_arrivals,
                               const metrics::RunMetrics& metrics) {
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t aborted = 0;
  for (const auto& c : metrics.completions) {
    if (c.shed) {
      ++shed;
    } else if (c.failed) {
      ++aborted;
    } else {
      ++completed;
    }
  }
  if (completed + shed + aborted == measured_arrivals) return "";
  return "conservation: " + std::to_string(completed) + " completed + " +
         std::to_string(shed) + " shed + " + std::to_string(aborted) +
         " aborted != " + std::to_string(measured_arrivals) + " injected";
}

double retained_bytes(const metrics::RunMetrics& m) {
  return static_cast<double>(
      m.completions.capacity() * sizeof(metrics::CompletionRecord) +
      m.task_trace.capacity() * sizeof(metrics::TaskRecord) +
      (m.plan_overhead_ms.capacity() + m.plan_wall_clock_ms.capacity() +
       m.job_wait_ms.capacity()) *
          sizeof(double));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
