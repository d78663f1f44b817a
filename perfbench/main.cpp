// perfbench — one pass of a benchmark workload (README.md).
//
//   perfbench gen  --workload <name> --seed <n> --dir <d>
//       writes the workload's input files into <d>, derived from the seed
//   perfbench pass --workload <name> --seed <n> --dir <d> [--traced]
//       runs every cell of the workload once over the inputs in <d> and
//       prints one JSON object: host times, simulated outcomes, the output
//       checks, and with --traced the per-layer numbers
//   perfbench calib
//       times a fixed kernel that uses nothing from the library, as a gauge
//       of the host's current speed (the fastest of three runs)
//
// run.py builds this, generates the inputs, runs a fixed number of passes in
// fresh processes with a calibration around each, and aggregates them.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "elastic/elastic_spec.hpp"
#include "exp/scenario.hpp"
#include "fault/fault_spec.hpp"
#include "forecast/forecast_spec.hpp"
#include "harness.hpp"
#include "metrics/export.hpp"
#include "obs/analysis/attribution.hpp"
#include "obs/analysis/dataset.hpp"
#include "obs/analysis/trace_reader.hpp"
#include "obs/recorder.hpp"
#include "obs/sinks.hpp"
#include "tenant/tenant_spec.hpp"
#include "trace/azure_shape.hpp"
#include "trace/workload_trace.hpp"

namespace fs = std::filesystem;
using namespace esg;
using perfbench::Clock;
using perfbench::seconds_since;

namespace {

// Workload sizes. Each pass takes one to six seconds on a 4-vCPU host, so
// that a run holds several passes. The paper cells measure the last 25 s of
// their 45 s: with the last 12 s only, the near-saturated relaxed-heavy
// cell's p99 moved twice as much from seed to seed, at the same cost.
constexpr TimeMs kPaperHorizonMs = 45'000.0;
constexpr TimeMs kPaperWarmupMs = 20'000.0;
constexpr std::size_t kReplayBins = 2'400;  // 20 minutes of 500 ms bins
constexpr TimeMs kReplayWarmupMs = 60'000.0;
constexpr std::size_t kChurnBinsPerDay = 120;  // two 60 s "days" of 500 ms bins

const char* const kTraceFile = "trace.csv";

/// Scheduler name as used in the per-layer metric names.
const char* scheduler_key(exp::SchedulerKind kind) {
  switch (kind) {
    case exp::SchedulerKind::kEsg:
      return "esg";
    case exp::SchedulerKind::kInfless:
      return "infless";
    case exp::SchedulerKind::kFastGshare:
      return "fastgshare";
    case exp::SchedulerKind::kOrion:
      return "orion";
    case exp::SchedulerKind::kAquatope:
      return "aquatope";
    case exp::SchedulerKind::kMqfqSticky:
      break;
  }
  throw std::invalid_argument("scheduler_key: unsupported scheduler");
}

const char* const kSchedulerKeys[] = {"esg", "orion", "aquatope", "infless",
                                      "fastgshare"};
const char* const kSchedulerFields[] = {
    "plan_s",  "plan_calls",   "plan_p50_us", "plan_p99_us",        "place_s",
    "place_calls", "on_request_s", "construct_s", "plan_dispatch_ratio"};
const char* const kLayerFields[] = {
    "loop_self_s", "events_fired", "events_cancelled", "scan_rounds",
    "queue_visits", "visits_per_dispatch", "warm_hits", "warm_misses",
    "prewarms_issued", "retained_mb", "export_s", "parse_s", "arrivals_s",
    "profile_build_s", "spans", "instants", "counter_samples",
    "sink_s.chrome", "sink_s.stats", "sink_s.analysis", "trace_mb",
    "stats_mb", "read_s", "build_s", "analysis_rss_mb", "task_failures",
    "retries", "aborted", "shed_requests", "scale_outs", "scale_ins",
    "vt_updates", "forecasts_issued", "latency_samples"};

struct Cell {
  std::string label;
  exp::Scenario scenario;
};

/// The trace a workload replays; empty options for synthetic workloads.
trace::AzureShapeOptions trace_shape(const std::string& workload) {
  trace::AzureShapeOptions shape;
  shape.bin_ms = 500.0;
  // Many short bursts rather than the default three long ones: the offered
  // load then varies little from seed to seed, and so does the work a pass
  // does, while every trace still has bursts for the platform to absorb.
  shape.burst_count = 12;
  shape.burst_fraction = 0.01;
  shape.burst_factor = 3.0;
  if (workload == "day-replay") {
    shape.bins = kReplayBins;
    shape.mean_rate_per_bin = 25.0;
    shape.burst_factor = 2.0;
  } else {  // observed-churn
    shape.bins = kChurnBinsPerDay;
    shape.days = 2;
    shape.tenants = 2;
    shape.mean_rate_per_bin = 15.0;
  }
  return shape;
}

bool replays_trace(const std::string& workload) {
  return workload == "day-replay" || workload == "observed-churn";
}

void generate_inputs(const std::string& workload, std::uint64_t seed,
                     const fs::path& dir) {
  fs::create_directories(dir);
  if (!replays_trace(workload)) return;  // synthetic arrivals come from the seed
  const trace::WorkloadTrace t = trace::generate_azure_shaped(
      trace_shape(workload), RngFactory(seed).stream("perfbench-trace"));
  std::ofstream out(dir / kTraceFile);
  trace::write_trace_csv(t, out);
  if (!out) throw std::runtime_error("cannot write " + (dir / kTraceFile).string());
}

exp::Scenario paper_scenario(exp::SchedulerKind kind,
                             const exp::SettingCombo& combo,
                             std::uint64_t seed) {
  exp::Scenario s;
  s.scheduler = kind;
  s.slo = combo.slo;
  s.load = combo.load;
  s.nodes = 16;
  s.horizon_ms = kPaperHorizonMs;
  s.warmup_ms = kPaperWarmupMs;
  s.seed = seed;
  return s;
}

std::vector<Cell> paper_cells(const std::string& workload, std::uint64_t seed) {
  std::vector<Cell> cells;
  if (workload == "paper-esg") {
    for (const auto& combo : exp::paper_combos()) {
      cells.push_back({"ESG/" + exp::combo_name(combo),
                       paper_scenario(exp::SchedulerKind::kEsg, combo, seed)});
    }
    return cells;
  }
  const exp::SettingCombo moderate{workload::SloSetting::kModerate,
                                   workload::LoadSetting::kNormal};
  for (const auto kind :
       {exp::SchedulerKind::kOrion, exp::SchedulerKind::kAquatope,
        exp::SchedulerKind::kInfless, exp::SchedulerKind::kFastGshare}) {
    cells.push_back({std::string(exp::to_string(kind)) + "/" +
                         exp::combo_name(moderate),
                     paper_scenario(kind, moderate, seed)});
  }
  return cells;
}

exp::Scenario replay_scenario(std::shared_ptr<const trace::WorkloadTrace> t,
                              std::uint64_t seed) {
  exp::Scenario s;
  s.scheduler = exp::SchedulerKind::kFastGshare;
  s.slo = workload::SloSetting::kModerate;
  s.arrivals.mode = exp::ArrivalMode::kTrace;
  s.horizon_ms = t->duration_ms();
  s.arrivals.trace = std::move(t);
  s.nodes = 32;
  s.warmup_ms = kReplayWarmupMs;
  s.seed = seed;
  return s;
}

exp::Scenario churn_scenario(std::shared_ptr<const trace::WorkloadTrace> t,
                             std::uint64_t seed) {
  exp::Scenario s;
  s.scheduler = exp::SchedulerKind::kInfless;
  s.slo = workload::SloSetting::kModerate;
  s.arrivals.mode = exp::ArrivalMode::kTrace;
  s.horizon_ms = t->duration_ms();
  s.arrivals.trace = std::move(t);
  s.nodes = 8;
  // No warm-up: every plan is then in RunMetrics::plan_wall_clock_ms.
  s.warmup_ms = 0.0;
  s.seed = seed;
  s.tenants = tenant::parse_tenant_spec("gold:3;bronze:1");
  s.elastic = elastic::parse_elastic_spec(
      "queue:min=4,max=24,out=4,idle-ms=4000,provision-ms=1000,shed=on,shed-margin=1.5");
  // The spot reclamation has no warning lead time. With one, the elastic
  // manager can retire a victim that drained early and acquire it again
  // before the deadline; a stale activation then makes it active, and the
  // reclaim retires an active node, which fails Invoker::retire's state check.
  s.fault = fault::parse_fault_spec(
      "dispatch:prob=0.02;coldstart:prob=0.05;"
      "crash:invoker=1,at=30000,down=4000;spot:at=80000,nodes=2");
  s.forecast = forecast::parse_forecast_spec(
      "seasonal:period-ms=60000,bins=120;lead-ms=3000,bin-ms=500");
  return s;
}

/// Everything one pass measures, summed over its cells.
struct PassResult {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double loop_s = 0.0;
  std::size_t arrivals = 0;
  std::size_t cells = 0;
  std::vector<std::string> failures;  ///< one entry per failed cell check

  // Simulated outcomes (identical on every pass of one seed).
  std::size_t requests = 0;
  std::size_t hits = 0;
  std::vector<double> latencies;
  Usd cost = 0.0;
  std::string fingerprint;  ///< per-cell outcomes, compared across passes

  // Per-layer numbers; only printed by traced passes.
  std::map<std::string, double> layers;
  std::map<std::string, std::vector<double>> plan_us;  ///< per scheduler
};

void add_outcomes(PassResult& pass, const std::string& label,
                  const metrics::RunMetrics& m,
                  const perf::Counters& counters) {
  std::size_t hits = 0;
  for (const auto& c : m.completions) hits += c.hit ? 1 : 0;
  const std::vector<double> latencies = m.latencies();
  pass.requests += m.requests();
  pass.hits += hits;
  pass.cost += m.total_cost;
  pass.latencies.insert(pass.latencies.end(), latencies.begin(),
                        latencies.end());
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s%s:requests=%zu,hits=%zu,shed=%zu,aborted=%zu,cost=%.17g,"
                "p99=%.17g,events=%llu",
                pass.fingerprint.empty() ? "" : ";", label.c_str(),
                m.requests(), hits, m.shed_requests, m.retries_exhausted,
                m.total_cost, percentile(latencies, 0.99),
                static_cast<unsigned long long>(counters.events_fired));
  pass.fingerprint += buf;

  auto& L = pass.layers;
  L["events_fired"] += static_cast<double>(counters.events_fired);
  L["events_cancelled"] += static_cast<double>(counters.events_cancelled);
  L["scan_rounds"] += static_cast<double>(counters.scan_rounds);
  L["queue_visits"] += static_cast<double>(counters.queue_visits);
  L["dispatches"] += static_cast<double>(counters.dispatches);
  L["warm_hits"] += static_cast<double>(counters.warm_hits);
  L["warm_misses"] += static_cast<double>(counters.warm_misses);
  L["prewarms_issued"] += static_cast<double>(counters.prewarms_issued);
  L["vt_updates"] += static_cast<double>(counters.vt_updates);
  L["forecasts_issued"] += static_cast<double>(counters.forecasts_issued);
  L["task_failures"] += static_cast<double>(m.task_failures);
  L["retries"] += static_cast<double>(m.retries);
  L["aborted"] += static_cast<double>(m.retries_exhausted);
  L["shed_requests"] += static_cast<double>(m.shed_requests);
  L["scale_outs"] += static_cast<double>(m.scale_outs);
  L["scale_ins"] += static_cast<double>(m.scale_ins);
  L["retained_mb"] =
      std::max(L["retained_mb"], perfbench::retained_bytes(m) / (1024.0 * 1024.0));
}

void add_scheduler_calls(PassResult& pass, exp::SchedulerKind kind,
                         const perf::Counters& counters, double construct_s) {
  const std::string key = scheduler_key(kind);
  auto& L = pass.layers;
  L[key + ".construct_s"] += construct_s;
  L[key + ".plans"] += static_cast<double>(counters.plans);
  L[key + ".dispatches"] += static_cast<double>(counters.dispatches);
}

void check(PassResult& pass, const std::string& label, const std::string& error) {
  if (!error.empty()) pass.failures.push_back(label + ": " + error);
}

std::shared_ptr<const trace::WorkloadTrace> parse_trace(const fs::path& dir,
                                                        PassResult& pass) {
  const auto start = Clock::now();
  auto t = std::make_shared<const trace::WorkloadTrace>(
      trace::load_workload_trace((dir / kTraceFile).string()));
  pass.layers["parse_s"] += seconds_since(start);
  return t;
}

/// paper-esg, paper-baselines and day-replay: hand-wired cells.
void run_wired_cells(const std::vector<Cell>& cells, bool traced,
                     PassResult& pass) {
  for (const Cell& cell : cells) {
    const perfbench::WiredRun run = perfbench::run_wired(cell.scenario, traced);
    ++pass.cells;
    pass.setup_s += run.setup_s;
    pass.loop_s += run.loop_s;
    pass.arrivals += run.arrivals;
    std::string error =
        perfbench::conservation_error(run.measured_arrivals, run.metrics);
    if (error.empty() && run.inflight_after != 0) {
      error = std::to_string(run.inflight_after) + " requests still open";
    }
    check(pass, cell.label, error);
    add_outcomes(pass, cell.label, run.metrics, run.counters);
    add_scheduler_calls(pass, cell.scenario.scheduler, run.counters,
                        run.construct_s);
    pass.layers["profile_build_s"] += run.profile_build_s;
    pass.layers["arrivals_s"] += run.arrivals_s;
    if (run.scheduler_times) {
      const perfbench::SchedulerTimes& t = *run.scheduler_times;
      const std::string key = scheduler_key(cell.scenario.scheduler);
      pass.layers[key + ".plan_s"] += t.plan_s;
      pass.layers[key + ".place_s"] += t.place_s;
      pass.layers[key + ".place_calls"] += static_cast<double>(t.place_calls);
      pass.layers[key + ".on_request_s"] += t.on_request_s;
      pass.layers["loop_self_s"] +=
          run.loop_s - t.plan_s - t.place_s - t.on_request_s;
      auto& us = pass.plan_us[key];
      us.insert(us.end(), t.plan_us.begin(), t.plan_us.end());
    }
  }
}

std::string report_json(const obs::analysis::AttributionReport& report) {
  std::ostringstream out;
  obs::analysis::write_report_json(report, out);
  return out.str();
}

/// observed-churn: one run through exp::run_scenario with every opt-in
/// subsystem, its artefacts, and the offline attribution pass over the trace.
void run_churn(const fs::path& dir, std::uint64_t seed, bool traced,
               const Clock::time_point pass_start, PassResult& pass) {
  const std::string label = "INFless/churn";
  const fs::path out_dir = dir / "out";
  fs::create_directories(out_dir);
  const fs::path trace_path = out_dir / "trace.json";
  const fs::path stats_path = out_dir / "stats.jsonl";

  const auto setup_start = Clock::now();
  const exp::Scenario scenario = churn_scenario(parse_trace(dir, pass), seed);
  const double parse_setup_s = seconds_since(setup_start);

  exp::RunOutput out;
  std::string online;
  {
    obs::TraceRecorder recorder;
    auto open = [](const fs::path& path) {
      auto file = std::make_unique<std::ofstream>(path);
      if (!*file) throw std::runtime_error("cannot write " + path.string());
      return file;
    };
    auto chrome = std::make_unique<perfbench::TimedSink>(
        std::make_unique<obs::ChromeTraceSink>(open(trace_path)), traced);
    auto stats = std::make_unique<perfbench::TimedSink>(
        std::make_unique<obs::JsonlStatsSink>(open(stats_path)), traced);
    auto analysis_sink = std::make_unique<obs::analysis::AnalysisSink>();
    const obs::analysis::AnalysisSink* analysis = analysis_sink.get();
    auto analysis_timed = std::make_unique<perfbench::TimedSink>(
        std::move(analysis_sink), traced);
    const perfbench::TimedSink* sinks[] = {chrome.get(), stats.get(),
                                           analysis_timed.get()};
    recorder.add_sink(std::move(chrome));
    recorder.add_sink(std::move(stats));
    recorder.add_sink(std::move(analysis_timed));

    const auto run_start = Clock::now();
    out = exp::run_scenario(scenario, &recorder);
    const auto run_end = Clock::now();
    auto first = run_end;
    for (const auto* sink : sinks) {
      if (sink->first_record()) first = std::min(first, *sink->first_record());
    }
    const double loop_s = std::chrono::duration<double>(run_end - first).count();
    pass.setup_s += parse_setup_s +
                    std::chrono::duration<double>(first - run_start).count();
    pass.loop_s += loop_s;

    double sink_s = 0.0;
    const char* const names[] = {"sink_s.chrome", "sink_s.stats",
                                 "sink_s.analysis"};
    for (std::size_t i = 0; i < 3; ++i) {
      pass.layers[names[i]] += sinks[i]->busy_s();
      sink_s += sinks[i]->busy_s();
    }
    pass.layers["spans"] += static_cast<double>(recorder.spans_recorded());
    pass.layers["instants"] += static_cast<double>(recorder.instants_recorded());
    pass.layers["counter_samples"] +=
        static_cast<double>(recorder.counters_recorded());

    const auto& m = out.metrics;
    double plan_s = 0.0;
    auto& us = pass.plan_us["infless"];
    for (const double ms : m.plan_wall_clock_ms) {
      plan_s += ms / 1e3;
      us.push_back(ms * 1e3);
    }
    pass.layers["infless.plan_s"] += plan_s;
    pass.layers["loop_self_s"] += loop_s - plan_s - sink_s;

    online = report_json(obs::analysis::build_report(analysis->dataset()));
    std::ofstream report(out_dir / "report.json");
    report << online;
  }  // closes the trace and stats files

  const auto export_start = Clock::now();
  {
    const auto& m = out.metrics;
    std::ofstream completions(out_dir / "completions.csv");
    metrics::write_completions_csv(m, completions);
    std::ofstream tasks(out_dir / "tasks.csv");
    metrics::write_task_trace_csv(m, tasks);
    std::ofstream summary(out_dir / "summary.csv");
    metrics::write_summary_csv(m, "churn", summary);
    std::ofstream per_app(out_dir / "per_app.csv");
    metrics::write_per_app_summary_csv(m, "churn", per_app);
    const tenant::TenantSpec tenants = tenant::resolve_for_trace(
        scenario.tenants, scenario.arrivals.trace->tenant_count);
    std::vector<std::string> names;
    for (std::uint32_t t = 0; t < tenants.tenants.size(); ++t) {
      names.push_back(tenants.tenant_name(t));
    }
    std::ofstream per_tenant(out_dir / "per_tenant.csv");
    metrics::write_per_tenant_summary_csv(m, names, "churn", per_tenant);
  }
  pass.layers["export_s"] += seconds_since(export_start);

  // The offline attribution pass, as esg_report runs it over the saved trace.
  const double rss_before = perfbench::peak_rss_mb();
  const auto read_start = Clock::now();
  const obs::analysis::TraceDataset dataset =
      obs::analysis::read_chrome_trace_file(trace_path.string());
  pass.layers["read_s"] += seconds_since(read_start);
  const auto build_start = Clock::now();
  const std::string offline = report_json(obs::analysis::build_report(dataset));
  pass.layers["build_s"] += seconds_since(build_start);
  pass.layers["analysis_rss_mb"] += perfbench::peak_rss_mb() - rss_before;
  pass.wall_s = seconds_since(pass_start);

  // Checks and out-of-band timings below are not part of the workload.
  ++pass.cells;
  check(pass, label,
        online == offline ? "" : "online and offline reports differ");
  pass.layers["trace_mb"] += static_cast<double>(fs::file_size(trace_path)) / 1048576.0;
  pass.layers["stats_mb"] += static_cast<double>(fs::file_size(stats_path)) / 1048576.0;

  // run_scenario builds these inside; time the same calls from outside.
  const RngFactory rng(seed);
  auto phase = Clock::now();
  const profile::ProfileSet profiles =
      profile::ProfileSet::builtin(scenario.config_space);
  pass.layers["profile_build_s"] += seconds_since(phase);
  const std::vector<workload::AppDag> apps = workload::builtin_applications();
  phase = Clock::now();
  (void)perfbench::make_scheduler(scenario, apps, profiles, rng);
  add_scheduler_calls(pass, scenario.scheduler, out.counters,
                      seconds_since(phase));
  std::vector<AppId> app_ids;
  for (const auto& app : apps) app_ids.push_back(app.id());
  phase = Clock::now();
  const std::vector<workload::Arrival> arrivals =
      exp::make_arrival_source(scenario, app_ids, rng)
          ->generate_until(scenario.horizon_ms);
  pass.layers["arrivals_s"] += seconds_since(phase);
  pass.arrivals += arrivals.size();
  check(pass, label,
        perfbench::conservation_error(
            perfbench::count_measured(arrivals, scenario.warmup_ms),
            out.metrics));
  if (out.metrics.plan_wall_clock_ms.size() != out.counters.plans) {
    check(pass, label, "plan timings do not cover every plan");
  }
  add_outcomes(pass, label, out.metrics, out.counters);
}

constexpr int kCalibRuns = 3;

/// A fixed mix of sorting, hashing, tree search, pointer chasing and number
/// formatting that uses nothing from the library, so no change to the
/// simulator can change its cost. Returns its wall time in seconds; the host
/// speed it reflects is what run.py divides pass times by.
double calibrate() {
  const auto start = Clock::now();
  std::uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t sink = 0;
  std::vector<std::uint64_t> values(200'000);
  for (auto& v : values) v = next();
  std::sort(values.begin(), values.end());
  sink += values[values.size() / 2];
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  for (int i = 0; i < 100'000; ++i) counts[next() % 50'000] += 1;
  sink += counts.size();
  std::map<double, int> tree;
  for (int i = 0; i < 50'000; ++i) tree.emplace(static_cast<double>(next() % 1'000'000), i);
  for (int i = 0; i < 50'000; ++i) {
    const auto it = tree.lower_bound(static_cast<double>(next() % 1'000'000));
    if (it != tree.end()) sink += static_cast<std::uint64_t>(it->second);
  }
  std::vector<std::uint32_t> ring(1u << 20);
  for (std::uint32_t i = 0; i < ring.size(); ++i) ring[i] = i;
  for (std::size_t i = ring.size() - 1; i > 0; --i) std::swap(ring[i], ring[next() % (i + 1)]);
  std::uint32_t at = 0;
  for (int i = 0; i < 500'000; ++i) at = ring[at];
  sink += at;
  std::string text;
  for (int i = 0; i < 50'000; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f,", static_cast<double>(next() % 100'000) / 7.0);
    text += buf;
  }
  sink += text.size();
  const double s = seconds_since(start);
  return sink == 0 ? s + 1e-12 : s;  // keeps the work observable
}

PassResult run_pass(const std::string& workload, std::uint64_t seed,
                    const fs::path& dir, bool traced) {
  PassResult pass;
  const auto start = Clock::now();
  if (workload == "paper-esg" || workload == "paper-baselines") {
    run_wired_cells(paper_cells(workload, seed), traced, pass);
  } else if (workload == "day-replay") {
    const auto parse_start = Clock::now();
    auto t = parse_trace(dir, pass);
    pass.setup_s += seconds_since(parse_start);
    run_wired_cells({{"FaST-GShare/day-replay", replay_scenario(std::move(t), seed)}},
                    traced, pass);
  } else if (workload == "observed-churn") {
    run_churn(dir, seed, traced, start, pass);
    return pass;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  pass.wall_s = seconds_since(start);
  return pass;
}

void print_pass(const PassResult& pass, bool traced) {
  std::printf("{\"wall_s\": %.17g, \"setup_s\": %.17g, \"loop_s\": %.17g, "
              "\"arrivals\": %zu, \"events\": %.17g, \"peak_rss_mb\": %.17g, "
              "\"cells\": %zu, ",
              pass.wall_s, pass.setup_s, pass.loop_s, pass.arrivals,
              pass.layers.at("events_fired"), perfbench::peak_rss_mb(),
              pass.cells);
  std::printf("\"failures\": [");
  for (std::size_t i = 0; i < pass.failures.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                obs::json_escape(pass.failures[i]).c_str());
  }
  const double hit_rate = pass.requests == 0
                              ? 0.0
                              : static_cast<double>(pass.hits) /
                                    static_cast<double>(pass.requests);
  std::printf("], \"slo_hit_rate\": %.17g, \"cost_usd\": %.17g, "
              "\"p99_latency_ms\": %.17g, \"latency_samples\": %zu, "
              "\"fingerprint\": \"%s\"",
              hit_rate, pass.cost, percentile(pass.latencies, 0.99),
              pass.latencies.size(), obs::json_escape(pass.fingerprint).c_str());
  if (traced) {
    std::map<std::string, double> L = pass.layers;
    for (const char* key : kSchedulerKeys) {
      const std::string k = key;
      const auto it = pass.plan_us.find(k);
      const std::vector<double> us =
          it == pass.plan_us.end() ? std::vector<double>{} : it->second;
      L[k + ".plan_calls"] = static_cast<double>(us.size());
      L[k + ".plan_p50_us"] = percentile(us, 0.50);
      L[k + ".plan_p99_us"] = percentile(us, 0.99);
      L[k + ".plan_dispatch_ratio"] =
          L[k + ".plans"] > 0.0 ? L[k + ".dispatches"] / L[k + ".plans"] : 0.0;
    }
    L["visits_per_dispatch"] =
        L["dispatches"] > 0.0 ? L["queue_visits"] / L["dispatches"] : 0.0;
    L["latency_samples"] = static_cast<double>(pass.latencies.size());
    std::printf(", \"layers\": {");
    bool first = true;
    auto emit = [&](const std::string& name) {
      std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), L[name]);
      first = false;
    };
    for (const char* key : kSchedulerKeys) {
      for (const char* field : kSchedulerFields) {
        emit(std::string(key) + "." + field);
      }
    }
    for (const char* field : kLayerFields) emit(field);
    std::printf("}");
  }
  std::printf("}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench gen|pass --workload <name> --seed <n> "
               "--dir <d> [--traced]\n"
               "       perfbench calib\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "calib" && argc == 2) {
    // The fastest of a few runs: a single run catches a passing stall on the
    // host about as often as a pass does, and would then mis-scale the pass.
    double best = calibrate();
    for (int i = 1; i < kCalibRuns; ++i) best = std::min(best, calibrate());
    std::printf("{\"calib_s\": %.17g}\n", best);
    return 0;
  }
  std::string workload;
  std::string dir;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--traced") {
      traced = true;
    } else if (i + 1 < argc && arg == "--workload") {
      workload = argv[++i];
    } else if (i + 1 < argc && arg == "--dir") {
      dir = argv[++i];
    } else if (i + 1 < argc && arg == "--seed") {
      seed = std::stoull(argv[++i]);
      have_seed = true;
    } else {
      return usage();
    }
  }
  if (workload.empty() || dir.empty() || !have_seed) return usage();
  try {
    if (mode == "gen") {
      generate_inputs(workload, seed, dir);
    } else if (mode == "pass") {
      print_pass(run_pass(workload, seed, dir, traced), traced);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
