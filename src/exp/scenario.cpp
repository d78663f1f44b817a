#include "exp/scenario.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "fault/fault_engine.hpp"
#include "obs/analysis/attribution.hpp"
#include "obs/analysis/dataset.hpp"
#include "obs/sampler.hpp"
#include "obs/sinks.hpp"
#include "perf/layer_clock.hpp"
#include "perf/report.hpp"
#include "sim/simulator.hpp"
#include "sweep/thread_pool.hpp"
#include "tenant/fair_queue.hpp"
#include "tenant/mqfq_scheduler.hpp"

namespace esg::exp {

std::string_view to_string(ArrivalMode mode) {
  switch (mode) {
    case ArrivalMode::kSynthetic:
      return "synthetic";
    case ArrivalMode::kBursty:
      return "bursty";
    case ArrivalMode::kTrace:
      return "trace";
  }
  throw std::invalid_argument("to_string: bad ArrivalMode");
}

std::string_view to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kEsg:
      return "ESG";
    case SchedulerKind::kInfless:
      return "INFless";
    case SchedulerKind::kFastGshare:
      return "FaST-GShare";
    case SchedulerKind::kOrion:
      return "Orion";
    case SchedulerKind::kAquatope:
      return "Aquatope";
    case SchedulerKind::kMqfqSticky:
      return "MQFQ-Sticky";
  }
  throw std::invalid_argument("to_string: bad SchedulerKind");
}

std::span<const SchedulerKind> all_schedulers() {
  static constexpr std::array<SchedulerKind, 5> kAll = {
      SchedulerKind::kEsg, SchedulerKind::kInfless, SchedulerKind::kFastGshare,
      SchedulerKind::kOrion, SchedulerKind::kAquatope};
  return kAll;
}

std::span<const SettingCombo> paper_combos() {
  static constexpr std::array<SettingCombo, 3> kCombos = {{
      {workload::SloSetting::kStrict, workload::LoadSetting::kLight},
      {workload::SloSetting::kModerate, workload::LoadSetting::kNormal},
      {workload::SloSetting::kRelaxed, workload::LoadSetting::kHeavy},
  }};
  return kCombos;
}

std::string combo_name(const SettingCombo& combo) {
  return std::string(workload::to_string(combo.slo)) + "-" +
         std::string(workload::to_string(combo.load));
}

namespace {

std::unique_ptr<platform::Scheduler> make_scheduler(
    const Scenario& scenario, const std::vector<workload::AppDag>& apps,
    const profile::ProfileSet& profiles, const RngFactory& rng,
    const tenant::FairQueue* fair_queue) {
  switch (scenario.scheduler) {
    case SchedulerKind::kEsg:
      return std::make_unique<core::EsgScheduler>(apps, profiles, scenario.esg);
    case SchedulerKind::kInfless:
      return std::make_unique<baselines::InflessScheduler>(apps, profiles,
                                                           scenario.infless);
    case SchedulerKind::kFastGshare:
      return std::make_unique<baselines::FastGshareScheduler>(
          apps, profiles, scenario.fast_gshare);
    case SchedulerKind::kOrion:
      return std::make_unique<baselines::OrionScheduler>(apps, profiles,
                                                         scenario.orion);
    case SchedulerKind::kAquatope:
      return std::make_unique<baselines::AquatopeScheduler>(
          apps, profiles, scenario.slo, rng, scenario.aquatope);
    case SchedulerKind::kMqfqSticky:
      // run_scenario always builds a FairQueue for this kind, even on an
      // otherwise inert tenant spec (one flow owning the whole ring).
      return std::make_unique<tenant::MqfqStickyScheduler>(
          apps, profiles, scenario.esg, fair_queue);
  }
  throw std::invalid_argument("make_scheduler: bad SchedulerKind");
}

}  // namespace

std::unique_ptr<workload::ArrivalSource> make_arrival_source(
    const Scenario& scenario, std::vector<AppId> apps, const RngFactory& rng) {
  switch (scenario.arrivals.mode) {
    case ArrivalMode::kSynthetic:
      return std::make_unique<workload::ArrivalGenerator>(
          scenario.load, std::move(apps), rng.stream("arrivals"));
    case ArrivalMode::kBursty:
      return std::make_unique<workload::BurstyArrivalGenerator>(
          scenario.arrivals.burst, std::move(apps), rng.stream("arrivals"));
    case ArrivalMode::kTrace: {
      std::shared_ptr<const trace::WorkloadTrace> t = scenario.arrivals.trace;
      if (t == nullptr) {
        if (scenario.arrivals.trace_path.empty()) {
          throw std::invalid_argument(
              "make_arrival_source: trace mode needs a trace or trace_path");
        }
        t = std::make_shared<const trace::WorkloadTrace>(
            trace::load_workload_trace(scenario.arrivals.trace_path));
      }
      return std::make_unique<trace::TraceArrivalGenerator>(
          std::move(t), std::move(apps), scenario.arrivals.replay,
          rng.scoped("trace").stream("replay"));
    }
  }
  throw std::invalid_argument("make_arrival_source: bad ArrivalMode");
}

namespace {

/// Opens one of the run's output files, throwing when it cannot.
std::unique_ptr<std::ofstream> open_output(const std::string& what,
                                           const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path);
  if (!*file) {
    throw std::runtime_error("run_scenario: cannot open " + what + " file '" +
                             path + "'");
  }
  return file;
}

/// Flushes `file` and throws when any write to it failed (a full disk).
void check_written(std::ostream& file, const std::string& what,
                   const std::string& path) {
  if (!file.flush()) {
    throw std::runtime_error("run_scenario: cannot write " + what + " file '" +
                             path + "'");
  }
}

/// The recorded run: sinks for the trace, stats and report paths, the run
/// itself, then the online attribution report.
RunOutput run_recorded(const Scenario& scenario) {
  // Declared first so the sinks' teardown counts as theirs.
  perf::LayerScope layer(perf::Layer::kSetup);
  obs::TraceRecorder recorder;
  const TraceConfig& paths = scenario.trace;
  std::ofstream* trace_file = nullptr;
  if (!paths.trace_path.empty()) {
    auto file = open_output("trace", paths.trace_path);
    trace_file = file.get();
    recorder.add_sink(std::make_unique<obs::ChromeTraceSink>(std::move(file)));
  }
  std::ofstream* stats_file = nullptr;
  if (!paths.stats_path.empty()) {
    auto file = open_output("stats", paths.stats_path);
    stats_file = file.get();
    recorder.add_sink(std::make_unique<obs::JsonlStatsSink>(std::move(file)));
  }
  obs::analysis::AnalysisSink* analysis = nullptr;
  if (!paths.report_path.empty()) {
    auto sink = std::make_unique<obs::analysis::AnalysisSink>();
    analysis = sink.get();
    recorder.add_sink(std::move(sink));
  }
  RunOutput out = run_scenario(scenario, &recorder);
  layer.switch_to(perf::Layer::kSinks);
  if (trace_file != nullptr) check_written(*trace_file, "trace", paths.trace_path);
  if (stats_file != nullptr) check_written(*stats_file, "stats", paths.stats_path);
  if (analysis != nullptr) {
    const perf::LayerScope report_layer(perf::Layer::kAttribution);
    const std::unique_ptr<std::ofstream> file =
        open_output("report", paths.report_path);
    obs::analysis::write_report_json(
        obs::analysis::build_report(analysis->dataset()), *file);
    check_written(*file, "report", paths.report_path);
  }
  return out;
}

/// Writes the run's esg.perf.v2 document to scenario.trace.perf_path.
void write_perf_file(const Scenario& scenario, const RunOutput& out) {
  const std::string& path = scenario.trace.perf_path;
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    throw std::runtime_error("run_scenario: cannot open perf file '" + path +
                             "'");
  }
  perf::RunInfo info;
  info.scheduler = to_string(scenario.scheduler);
  info.seed = scenario.seed;
  info.simulated_ms = out.simulated_end_ms;
  info.wall_seconds = out.wall_seconds;
  info.invocations = out.metrics.requests();
  perf::write_perf_json(file, info, out.counters, out.layers);
  const bool failed = std::ferror(file) != 0;
  if (std::fclose(file) != 0 || failed) {
    throw std::runtime_error("run_scenario: cannot write perf file '" + path +
                             "'");
  }
}

}  // namespace

RunOutput run_scenario(const Scenario& scenario) {
  // A perf report times the run's layers; a clock the caller already runs
  // on this thread (esg_sim --perf-summary) serves as well.
  const bool perf_report = !scenario.trace.perf_path.empty();
  std::optional<perf::LayerClock> clock;
  if (perf_report && perf::LayerClock::running() == nullptr) clock.emplace();
  RunOutput out = scenario.trace.enabled() ? run_recorded(scenario)
                                           : run_scenario(scenario, nullptr);
  if (perf::LayerClock* running = perf::LayerClock::running()) {
    out.layers = running->read();
  }
  if (perf_report) write_perf_file(scenario, out);
  return out;
}

RunOutput run_scenario(const Scenario& scenario_in,
                       obs::TraceRecorder* recorder) {
  const auto wall_start = std::chrono::steady_clock::now();
  // Set-up runs until the first event. The loop, the epilogue and the
  // teardown of everything declared below belong to the engine.
  perf::LayerScope layer(perf::Layer::kSetup);

  // Local copy so the trace can be loaded eagerly: the tenant resolution
  // below needs the trace's tenant count before the arrival source exists.
  Scenario scenario = scenario_in;
  if (scenario.arrivals.mode == ArrivalMode::kTrace &&
      scenario.arrivals.trace == nullptr &&
      !scenario.arrivals.trace_path.empty()) {
    scenario.arrivals.trace = std::make_shared<const trace::WorkloadTrace>(
        trace::load_workload_trace(scenario.arrivals.trace_path));
  }

  const RngFactory rng(scenario.seed);
  const profile::ProfileSet profiles =
      profile::ProfileSet::builtin(scenario.config_space);
  const std::vector<workload::AppDag> apps = workload::builtin_applications();

  // An elastic scenario builds the cluster at max size; nodes beyond the
  // initial fleet start retired and are acquired by the policy on demand.
  elastic::ElasticSpec elastic_spec = scenario.elastic;
  if (elastic_spec.enabled()) {
    if (elastic_spec.max_nodes == 0) elastic_spec.max_nodes = scenario.nodes;
    if (elastic_spec.min_nodes > elastic_spec.max_nodes) {
      throw std::invalid_argument(
          "run_scenario: elastic min exceeds the resolved max fleet size");
    }
    if (scenario.nodes < 1 || scenario.nodes > elastic_spec.max_nodes) {
      throw std::invalid_argument(
          "run_scenario: --nodes (the initial fleet) must be in [1, elastic "
          "max]");
    }
  }
  const std::size_t cluster_nodes =
      elastic_spec.enabled() ? elastic_spec.max_nodes : scenario.nodes;

  // Multi-tenant fair queueing: resolve the spec against the trace's tenant
  // column, then build the shared FairQueue when tenancy can change any
  // decision. Inert spec + paper scheduler leaves fair_queue null, so the
  // controller runs the exact single-tenant code path.
  const std::size_t trace_tenants = scenario.arrivals.trace != nullptr
                                        ? scenario.arrivals.trace->tenant_count
                                        : 1;
  const tenant::TenantSpec tenant_spec =
      tenant::resolve_for_trace(scenario.tenants, trace_tenants);
  for (const auto& def : tenant_spec.tenants) {
    for (const std::uint32_t claimed : def.apps) {
      if (claimed >= apps.size()) {
        throw std::invalid_argument(
            "run_scenario: tenant '" + def.name + "' claims app " +
            std::to_string(claimed) + " but the workload has only " +
            std::to_string(apps.size()) + " apps");
      }
    }
  }
  const bool mqfq = scenario.scheduler == SchedulerKind::kMqfqSticky;
  std::unique_ptr<tenant::FairQueue> fair_queue;
  if (!tenant_spec.inert() || mqfq) {
    fair_queue =
        std::make_unique<tenant::FairQueue>(tenant_spec, cluster_nodes, mqfq);
  }

  sim::Simulator sim(scenario.engine);
  cluster::Cluster cluster(cluster_nodes);
  const auto scheduler =
      make_scheduler(scenario, apps, profiles, rng, fair_queue.get());

  const bool tracing = recorder != nullptr && recorder->is_enabled();
  if (tracing) {
    cluster.set_warm_span_callback([recorder](InvokerId inv, FunctionId fn,
                                              TimeMs since, TimeMs end,
                                              cluster::WarmEnd reason) {
      if (end <= since) return;
      const char* state = reason == cluster::WarmEnd::kAcquired ? "acquired"
                          : reason == cluster::WarmEnd::kExpired ? "expired"
                          : reason == cluster::WarmEnd::kCrashed ? "crashed"
                          : reason == cluster::WarmEnd::kDrained ? "drained"
                                                                 : "open";
      recorder->span(obs::SpanKind::kKeepAlive,
                     "warm f" + std::to_string(fn.get()),
                     obs::invoker_track(inv, obs::kWarmPoolLane), since, end,
                     {{"function", std::to_string(fn.get())},
                      {"end", state}});
    });
  }

  // Fault injection: an inert spec creates no engine at all, so the
  // controller runs the exact fault-free code path (byte-identical outputs).
  // The engine draws from a factory scoped off the master seed, never from
  // the base streams, so arrivals and noise are unperturbed by faults.
  std::unique_ptr<fault::FaultEngine> fault_engine;
  if (!scenario.fault.inert()) {
    for (const auto& crash : scenario.fault.crashes) {
      if (crash.invoker.get() >= cluster_nodes) {
        throw std::invalid_argument(
            "run_scenario: fault-spec crash invoker out of range");
      }
    }
    for (const auto& slow : scenario.fault.slowdowns) {
      if (slow.invoker.get() >= cluster_nodes) {
        throw std::invalid_argument(
            "run_scenario: fault-spec slow invoker out of range");
      }
    }
    if (!scenario.fault.spot.empty() && !elastic_spec.enabled()) {
      throw std::invalid_argument(
          "run_scenario: spot: clauses need --elastic (a static fleet has no "
          "lifecycle to reclaim)");
    }
    fault_engine = std::make_unique<fault::FaultEngine>(scenario.fault,
                                                        rng.scoped("fault"));
  }

  // The manager retires the beyond-initial nodes before the controller seeds
  // warm pools, so construction order matters here.
  std::unique_ptr<elastic::ElasticManager> elastic_manager;
  if (elastic_spec.enabled()) {
    elastic_manager = std::make_unique<elastic::ElasticManager>(
        sim, cluster, elastic_spec, rng.scoped("elastic"), scenario.nodes);
  }

  // Arrival forecasting: an inert spec builds no service at all, so the
  // run takes the exact reactive code path (byte-identical outputs). The
  // service is draw-free — enabling it perturbs no RNG substream.
  std::unique_ptr<forecast::ForecastService> forecast_service;
  if (scenario.forecast.enabled()) {
    forecast_service = std::make_unique<forecast::ForecastService>(
        scenario.forecast, apps.size(), scenario.arrivals.trace,
        scenario.arrivals.replay);
    if (tracing) forecast_service->set_trace(recorder);
    if (elastic_manager != nullptr &&
        elastic_spec.policy == elastic::ElasticPolicy::kForecast) {
      elastic_manager->set_forecast_provider(
          [svc = forecast_service.get(),
           provision = elastic_spec.provision_ms](TimeMs now) {
            return svc->predicted_total_rate(now, provision);
          });
    }
  }
  if (elastic_spec.policy == elastic::ElasticPolicy::kForecast &&
      forecast_service == nullptr) {
    throw std::invalid_argument(
        "run_scenario: --elastic forecast needs --forecast (the policy has "
        "no signal without a forecaster)");
  }

  platform::ControllerOptions controller_options = scenario.controller;
  controller_options.metrics_warmup_ms = scenario.warmup_ms;
  controller_options.recorder = recorder;
  controller_options.fault = fault_engine.get();
  controller_options.elastic = elastic_manager.get();
  controller_options.forecast = forecast_service.get();
  controller_options.fair_queue = fair_queue.get();
  platform::Controller controller(sim, cluster, profiles, apps, scenario.slo,
                                  *scheduler, rng, controller_options);
  // The run's counters: the event loop's, the controller's (prewarm
  // included), the fair queue's and the forecaster's.
  const auto merged_counters = [&sim, &controller, fq = fair_queue.get(),
                                fc = forecast_service.get()] {
    perf::Counters merged = sim.counters();
    merged.merge(controller.perf_counters());
    if (fq != nullptr) merged.merge(fq->counters());
    if (fc != nullptr) merged.merge(fc->counters());
    return merged;
  };

  obs::TraceRecorder disabled_recorder;  // sampler needs a reference
  obs::StatsSampler sampler(sim, cluster,
                            tracing ? *recorder : disabled_recorder,
                            scenario.trace.stats_interval_ms);
  if (tracing) {
    sampler.set_queue_depth_provider(
        [&controller] { return controller.total_queued_jobs(); });
    // Per-tenant fairness gauges, absent on single-tenant runs so the stats
    // JSONL stays byte-identical to pre-tenant builds.
    if (fair_queue != nullptr) {
      const tenant::FairQueue* fq = fair_queue.get();
      for (std::uint32_t t = 0; t < fq->tenant_count(); ++t) {
        const std::string name = fq->spec().tenant_name(t);
        sampler.add_gauge("tenant_vt/" + name,
                          [fq, t] { return fq->virtual_time(t); });
        sampler.add_gauge("tenant_backlog/" + name, [fq, t] {
          return static_cast<double>(fq->backlog(t));
        });
        sampler.add_gauge("tenant_throttled/" + name, [fq, t] {
          return static_cast<double>(fq->throttle_events(t));
        });
      }
    }
    // Per-app forecast gauges, absent on reactive runs so the stats JSONL
    // stays byte-identical to pre-forecast builds.
    if (forecast_service != nullptr) {
      forecast::ForecastService* svc = forecast_service.get();
      for (std::uint32_t a = 0; a < svc->app_count(); ++a) {
        const std::string app = "app" + std::to_string(a);
        sampler.add_gauge("forecast/predicted/" + app, [svc, a] {
          return svc->current_prediction(a);
        });
        sampler.add_gauge("forecast/mae/" + app,
                          [svc, a] { return svc->accuracy(a).mae; });
        sampler.add_gauge("forecast/smape/" + app,
                          [svc, a] { return svc->accuracy(a).smape; });
      }
    }
    // Self-profiling counter tracks, only on perf-enabled runs so existing
    // stats/trace artefacts stay byte-identical (DESIGN.md §13).
    if (!scenario.trace.perf_path.empty()) {
      for (const perf::CounterField& field : perf::kCounterFields) {
        sampler.add_gauge(std::string(perf::kGaugePrefix) + field.name,
                          [merged_counters, member = field.member] {
                            return static_cast<double>(merged_counters().*member);
                          });
      }
    }
    sampler.start();
  }

  std::vector<AppId> app_ids;
  app_ids.reserve(apps.size());
  for (const auto& app : apps) app_ids.push_back(app.id());
  const auto source = make_arrival_source(scenario, std::move(app_ids), rng);
  controller.inject(source->generate_until(scenario.horizon_ms));
  layer.switch_to(perf::Layer::kEngine);
  bool truncated = false;
  if (scenario.wall_budget_ms <= 0.0) {
    controller.run_to_completion();
  } else {
    // Budgeted run (bench rows): fire events until the wall-clock budget is
    // spent. The clock check is batched per 1024 events so the steady-state
    // loop stays as hot as run_to_completion.
    const auto deadline =
        wall_start +
        std::chrono::duration<double, std::milli>(scenario.wall_budget_ms);
    std::uint64_t fired = 0;
    while (sim.step()) {
      if ((++fired & 0x3FFu) == 0 &&
          std::chrono::steady_clock::now() >= deadline) {
        break;
      }
    }
    truncated = !sim.empty();
  }

  if (tracing) {
    cluster.flush_warm_spans(sim.now());
    recorder->flush();
  }

  RunOutput out;
  out.metrics = controller.metrics();
  out.simulated_end_ms = sim.now();
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
  out.counters = merged_counters();
  if (forecast_service != nullptr) {
    out.forecast_accuracy.reserve(apps.size());
    for (std::uint32_t a = 0; a < apps.size(); ++a) {
      out.forecast_accuracy.push_back(forecast_service->accuracy(a));
    }
  }
  out.truncated = truncated;
  return out;
}

std::vector<RunOutput> run_replicas(const Scenario& base,
                                    std::span<const std::uint64_t> seeds,
                                    unsigned max_threads) {
  std::vector<RunOutput> outputs(seeds.size());
  if (seeds.empty()) return outputs;
  if (max_threads == 0) {
    max_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Each replica writes only its own slot, so the merged outputs are ordered
  // like `seeds` (and byte-identical) for any worker count. Pool tasks must
  // not throw: a replica's failure is kept in its slot and rethrown here.
  std::vector<std::exception_ptr> errors(seeds.size());
  sweep::ThreadPool pool(
      static_cast<unsigned>(std::min<std::size_t>(max_threads, seeds.size())));
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    pool.submit([&base, &seeds, &outputs, &errors, i] {
      Scenario scenario = base;
      scenario.seed = seeds[i];
      scenario.trace = TraceConfig{};  // replicas would race on the files
      try {
        outputs[i] = run_scenario(scenario);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  pool.wait_idle();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return outputs;
}

Aggregate aggregate(std::span<const RunOutput> outputs) {
  Aggregate agg;
  if (outputs.empty()) return agg;
  double uses = 0.0;
  double misses = 0.0;
  double wait_sum = 0.0;
  std::size_t wait_count = 0;
  for (const auto& out : outputs) {
    agg.slo_hit_rate += out.metrics.slo_hit_rate();
    agg.total_cost += out.metrics.total_cost;
    agg.requests += out.metrics.requests();
    uses += static_cast<double>(out.metrics.plan_uses);
    misses += static_cast<double>(out.metrics.plan_misses);
    for (double w : out.metrics.job_wait_ms) {
      wait_sum += w;
      ++wait_count;
    }
  }
  const auto n = static_cast<double>(outputs.size());
  agg.slo_hit_rate /= n;
  agg.total_cost /= n;
  agg.config_miss_rate = uses > 0.0 ? misses / uses : 0.0;
  agg.mean_job_wait_ms = wait_count > 0 ? wait_sum / wait_count : 0.0;
  return agg;
}

}  // namespace esg::exp
