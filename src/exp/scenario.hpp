// Experiment scenarios: a scheduler + workload + SLO combination with all
// knobs, and a runner that executes it on a fresh simulated cluster. The
// bench binaries (one per paper table/figure) are thin loops over these.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/aquatope.hpp"
#include "baselines/fast_gshare.hpp"
#include "baselines/infless.hpp"
#include "baselines/orion.hpp"
#include "core/esg_scheduler.hpp"
#include "elastic/elastic_spec.hpp"
#include "fault/fault_spec.hpp"
#include "forecast/forecaster.hpp"
#include "metrics/run_metrics.hpp"
#include "perf/counters.hpp"
#include "perf/layer_clock.hpp"
#include "platform/controller.hpp"
#include "profile/profile_table.hpp"
#include "sim/simulator.hpp"
#include "tenant/tenant_spec.hpp"
#include "trace/replay.hpp"
#include "workload/applications.hpp"
#include "workload/arrival_source.hpp"
#include "workload/arrivals.hpp"
#include "workload/bursty_arrivals.hpp"

namespace esg::exp {

/// The paper's five compared schedulers plus MQFQ-Sticky, the multi-tenant
/// fair-queueing strategy (ESG planning + sticky per-flow placement +
/// virtual-time dispatch order with throttling; DESIGN.md §12). kMqfqSticky
/// is deliberately NOT in all_schedulers(): the figure benches sweep the
/// paper's five-way comparison unchanged.
enum class SchedulerKind {
  kEsg,
  kInfless,
  kFastGshare,
  kOrion,
  kAquatope,
  kMqfqSticky,
};

/// Which arrival process drives the run (--arrivals).
enum class ArrivalMode {
  kSynthetic,  ///< paper Section 4.1 uniform ranges per --load
  kBursty,     ///< calm/burst phase switching (BurstyArrivalGenerator)
  kTrace,      ///< production-trace replay (src/trace)
};

[[nodiscard]] std::string_view to_string(ArrivalMode mode);

struct ArrivalConfig {
  ArrivalMode mode = ArrivalMode::kSynthetic;
  /// kBursty: phase profile (load settings + mean phase lengths).
  workload::BurstProfile burst;
  /// kTrace: source file (for display / lazy loading) and replay knobs.
  std::string trace_path;
  trace::ReplayOptions replay;
  /// kTrace: the parsed trace. parse_cli loads it eagerly (fail fast, and
  /// replicas share one parse); run_scenario loads from trace_path when the
  /// pointer is null so programmatic callers can set just the path.
  std::shared_ptr<const trace::WorkloadTrace> trace;
};

/// File-backed tracing knobs (the CLI's --trace-out / --stats-out /
/// --stats-interval-ms). Empty paths leave tracing off; tests and benches
/// that want in-memory traces pass their own recorder to run_scenario
/// instead.
struct TraceConfig {
  std::string trace_path;   ///< Chrome-trace-event JSON (Perfetto-loadable)
  std::string stats_path;   ///< counter time series as JSON Lines
  std::string report_path;  ///< SLO-attribution report JSON (--report-out)
  std::string perf_path;    ///< esg.perf.v2 self-profiling JSON (--perf-out)
  TimeMs stats_interval_ms = 100.0;

  [[nodiscard]] bool enabled() const {
    return !trace_path.empty() || !stats_path.empty() ||
           !report_path.empty() || !perf_path.empty();
  }
};

[[nodiscard]] std::string_view to_string(SchedulerKind kind);

/// The five schedulers compared in the paper's evaluation, ESG first.
[[nodiscard]] std::span<const SchedulerKind> all_schedulers();

struct Scenario {
  SchedulerKind scheduler = SchedulerKind::kEsg;
  workload::LoadSetting load = workload::LoadSetting::kLight;
  workload::SloSetting slo = workload::SloSetting::kStrict;
  /// Arrival process; the default (synthetic) reproduces the paper's
  /// per-`load` uniform inter-arrival ranges exactly.
  ArrivalConfig arrivals;

  std::size_t nodes = 16;          ///< paper testbed: 16 invokers
  TimeMs horizon_ms = 30'000.0;    ///< arrival window (requests drain after)
  /// Steady-state measurement: requests arriving before this are simulated
  /// but not measured (the initial cold-start wave affects every scheduler
  /// identically and is not what the paper's Figures 6-8 report).
  TimeMs warmup_ms = 0.0;
  std::uint64_t seed = 42;
  /// Event-queue engine backing the run's Simulator (--engine). Both engines
  /// fire in identical (when, seq) order, so every artefact is byte-identical
  /// across them (DESIGN.md §15); heap stays selectable for cross-checking.
  sim::EngineKind engine = sim::EngineKind::kCalendar;
  /// Wall-clock budget for the event loop in milliseconds (0 = unlimited).
  /// A budgeted run stops firing events once the budget is spent and sets
  /// RunOutput::truncated; the bench suite uses this to bound per-row cost
  /// (ESG_BENCH_CORE_BUDGET_MS). Metrics then cover only the fired prefix.
  double wall_budget_ms = 0.0;

  platform::ControllerOptions controller;
  TraceConfig trace;
  /// Fault injection (--fault-spec). An inert spec (the default) runs the
  /// exact fault-free code path: outputs are byte-identical to a run with no
  /// spec at all.
  fault::FaultSpec fault;
  /// Elastic fleet policy (--elastic). Disabled by default: the run uses a
  /// static fleet of `nodes` invokers. When enabled, `nodes` becomes the
  /// *initial* fleet and the cluster is built with `elastic.max_nodes`
  /// invokers (0 = resolved to `nodes`); an inert spec (min == max, no
  /// idle-out, no shedding) is byte-identical to the static run.
  elastic::ElasticSpec elastic;
  /// Arrival forecasting (--forecast). Inert by default: no ForecastService
  /// is built and the run takes the exact reactive code path — outputs are
  /// byte-identical to pre-forecast builds. When enabled, arrivals are
  /// binned per app, the named predictor estimates next-bin intensity, and
  /// three consumers act on it: proactive prewarm targets, the elastic
  /// `forecast` policy, and the ESG planner's defer look-ahead. The oracle
  /// predictor additionally requires trace arrivals.
  forecast::ForecastSpec forecast;
  /// Multi-tenant fair queueing (--tenants). An inert spec (absent or a
  /// single tenant) with any of the five paper schedulers runs the exact
  /// single-tenant code path — outputs are byte-identical to pre-tenant
  /// builds. A non-inert spec enables weighted per-tenant AFW queues and
  /// virtual-time scan order on every scheduler; SchedulerKind::kMqfqSticky
  /// additionally gates on the throttle threshold and places sticky.
  tenant::TenantSpec tenants;
  profile::ConfigSpaceOptions config_space;
  core::EsgScheduler::Options esg;
  baselines::InflessScheduler::Options infless;
  baselines::FastGshareScheduler::Options fast_gshare;
  baselines::OrionScheduler::Options orion;
  baselines::AquatopeScheduler::Options aquatope;
};

/// The paper's three headline combinations (Section 4.1): strict-light,
/// moderate-normal, relaxed-heavy.
struct SettingCombo {
  workload::SloSetting slo;
  workload::LoadSetting load;
};

[[nodiscard]] std::span<const SettingCombo> paper_combos();
[[nodiscard]] std::string combo_name(const SettingCombo& combo);

struct RunOutput {
  metrics::RunMetrics metrics;
  TimeMs simulated_end_ms = 0.0;
  double wall_seconds = 0.0;
  /// Merged hot-path counters (event loop + controller/prewarm + fair
  /// queue + forecaster). Deterministic per seed; always populated
  /// (DESIGN.md §13).
  perf::Counters counters;
  /// Self time per layer, read from the layer clock running on the calling
  /// thread when the run ended; all zero when none ran (DESIGN.md §13).
  perf::LayerTimes layers;
  /// Per-app forecast accuracy over the run's closed bins; empty unless the
  /// scenario ran with a forecaster.
  std::vector<forecast::AppAccuracy> forecast_accuracy;
  /// True when a wall-budgeted run (Scenario::wall_budget_ms) stopped before
  /// the event queue drained. Truncated metrics cover only the fired prefix
  /// and are NOT comparable across engines or code versions.
  bool truncated = false;
};

/// Builds the arrival source a scenario asks for. Synthetic and bursty
/// sources draw from rng.stream("arrivals"); trace replay draws from the
/// rng.scoped("trace") substream, so enabling trace mode cannot perturb any
/// other stream of the run. Throws std::invalid_argument when a trace
/// scenario has no trace (and no readable trace_path), or when the trace
/// references more apps than `apps` provides.
[[nodiscard]] std::unique_ptr<workload::ArrivalSource> make_arrival_source(
    const Scenario& scenario, std::vector<AppId> apps, const RngFactory& rng);

/// Builds the platform, injects the generated arrivals, runs to completion.
/// When scenario.trace names output files, a recorder with the matching
/// sinks (plus the periodic stats sampler) is wired up for the run, and a
/// perf path also starts a layer clock unless the caller runs one. Throws
/// std::runtime_error naming the file when an output cannot be written.
[[nodiscard]] RunOutput run_scenario(const Scenario& scenario);

/// Same, but records into the caller's recorder (nullptr = tracing off);
/// scenario.trace paths are ignored. Used by tests and the bench binaries.
[[nodiscard]] RunOutput run_scenario(const Scenario& scenario,
                                     obs::TraceRecorder* recorder);

/// Mean SLO hit rate and total cost across replica outputs.
struct Aggregate {
  double slo_hit_rate = 0.0;
  Usd total_cost = 0.0;
  double config_miss_rate = 0.0;
  double mean_job_wait_ms = 0.0;
  std::size_t requests = 0;
};

[[nodiscard]] Aggregate aggregate(std::span<const RunOutput> outputs);

}  // namespace esg::exp
