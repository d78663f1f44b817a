#include "exp/cli.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "common/spec_lex.hpp"
#include "elastic/elastic_spec.hpp"
#include "fault/fault_spec.hpp"
#include "forecast/forecast_spec.hpp"
#include "tenant/tenant_spec.hpp"
#include "trace/workload_trace.hpp"

namespace esg::exp {

namespace {

SchedulerKind parse_scheduler(std::string_view v) {
  if (v == "esg") return SchedulerKind::kEsg;
  if (v == "infless") return SchedulerKind::kInfless;
  if (v == "fast-gshare" || v == "fastgshare") return SchedulerKind::kFastGshare;
  if (v == "orion") return SchedulerKind::kOrion;
  if (v == "aquatope") return SchedulerKind::kAquatope;
  if (v == "mqfq-sticky" || v == "mqfq") return SchedulerKind::kMqfqSticky;
  throw std::invalid_argument(
      "unknown --scheduler '" + std::string(v) +
      "' (esg|infless|fast-gshare|orion|aquatope|mqfq-sticky)");
}

/// `--scheduler` accepts a comma list (sweep mode): `esg,infless,orion`.
/// Duplicates and empty entries are errors.
std::vector<SchedulerKind> parse_scheduler_list(std::string_view v) {
  std::vector<SchedulerKind> out;
  for (const std::string_view item : lex::split(v, ',')) {
    if (item.empty()) {
      throw std::invalid_argument(
          "--scheduler list must not have empty entries");
    }
    const SchedulerKind kind = parse_scheduler(item);
    if (std::find(out.begin(), out.end(), kind) != out.end()) {
      throw std::invalid_argument("--scheduler list repeats '" +
                                  std::string(item) + "'");
    }
    out.push_back(kind);
  }
  return out;
}

workload::LoadSetting parse_load(std::string_view v) {
  if (v == "light") return workload::LoadSetting::kLight;
  if (v == "normal") return workload::LoadSetting::kNormal;
  if (v == "heavy") return workload::LoadSetting::kHeavy;
  throw std::invalid_argument("unknown --load '" + std::string(v) +
                              "' (light|normal|heavy)");
}

workload::SloSetting parse_slo(std::string_view v) {
  if (v == "strict") return workload::SloSetting::kStrict;
  if (v == "moderate") return workload::SloSetting::kModerate;
  if (v == "relaxed") return workload::SloSetting::kRelaxed;
  throw std::invalid_argument("unknown --slo '" + std::string(v) +
                              "' (strict|moderate|relaxed)");
}

/// --seeds accepts either a replica count (`3` -> seeds 42,43,44) or an
/// explicit comma-separated list (`7,8,9`; a trailing comma marks a
/// single-element list: `7,`). Empty lists and duplicate seeds are errors.
std::vector<std::uint64_t> parse_seeds(std::string_view v) {
  std::vector<std::uint64_t> seeds;
  if (v.find(',') == std::string_view::npos) {
    const std::uint64_t count =
        lex::Field{"--seeds", v}.integer(1, lex::kMaxId);
    for (std::uint64_t i = 0; i < count; ++i) seeds.push_back(42 + i);
    return seeds;
  }

  std::vector<std::string_view> items = lex::split(v, ',');
  if (items.back().empty()) items.pop_back();  // the list marker in `7,`
  for (const std::string_view item : items) {
    if (item.empty()) {
      throw std::invalid_argument(
          "--seeds list must not have empty entries");
    }
    seeds.push_back(lex::Field{"--seeds entry", item}.integer(
        0, std::numeric_limits<std::uint64_t>::max()));
  }
  std::vector<std::uint64_t> sorted = seeds;
  std::sort(sorted.begin(), sorted.end());
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  if (dup != sorted.end()) {
    throw std::invalid_argument("--seeds list contains duplicate seed " +
                                std::to_string(*dup));
  }
  return seeds;
}

/// `synthetic` | `bursty[:k=v,...]` |
/// `trace:@file[,rate-scale=..,time-scale=..]`.
/// Trace files are loaded (and validated) eagerly so a bad trace fails at
/// parse time, and replicas share one parsed trace.
ArrivalConfig parse_arrivals(std::string_view v) {
  const lex::Where at{"--arrivals", v};
  ArrivalConfig config;
  const auto [mode, body] = lex::split_first(v, ':');
  if (mode == "synthetic" && !body) return config;
  if (mode == "bursty") {
    config.mode = ArrivalMode::kBursty;
    workload::BurstProfile& burst = config.burst;
    lex::Fields kv(at, body.value_or(""));
    if (auto f = kv.take("calm")) burst.calm = parse_load(f->value);
    if (auto f = kv.take("burst")) burst.burst = parse_load(f->value);
    if (auto f = kv.take("calm-ms")) {
      burst.mean_calm_ms = f->number(lex::kPositive);
    }
    if (auto f = kv.take("burst-ms")) {
      burst.mean_burst_ms = f->number(lex::kPositive);
    }
    kv.finish();
    return config;
  }
  if (mode == "trace" && body) {
    config.mode = ArrivalMode::kTrace;
    const std::size_t comma = body->find(',');
    const std::string_view file = body->substr(0, comma);
    if (!file.starts_with("@") || file.size() == 1) {
      at.fail("expected 'trace:@<file>'");
    }
    config.trace_path = std::string(file.substr(1));
    lex::Fields kv(at, comma == std::string_view::npos
                           ? std::string_view{}
                           : body->substr(comma + 1));
    if (auto f = kv.take("rate-scale")) {
      config.replay.rate_scale = f->number(lex::kNonNegative);
    }
    if (auto f = kv.take("time-scale")) {
      config.replay.time_scale = f->number(lex::kPositive);
    }
    kv.finish();
    config.trace = std::make_shared<const trace::WorkloadTrace>(
        trace::load_workload_trace(config.trace_path));
    return config;
  }
  throw std::invalid_argument("unknown --arrivals '" + std::string(v) +
                              "' (synthetic|bursty[:...]|trace:@file[,...])");
}

}  // namespace

std::string cli_usage() {
  return R"(esg_sim — run one simulated serverless scheduling scenario

usage: esg_sim [flags]

  --scheduler  esg|infless|fast-gshare|orion|aquatope|mqfq-sticky
                                                        (default esg)
                         mqfq-sticky runs ESG planning under multi-queue
                         fair queueing: per-tenant virtual-time dispatch,
                         throttling, and sticky device placement (needs
                         --tenants or a multi-tenant trace); with --sweep
                         a comma list runs several schedulers (e.g.
                         esg,infless,orion)
  --engine     heap|calendar  event-queue engine        (default calendar)
                         both engines fire events in identical order, so
                         every artefact is byte-identical; the binary heap
                         stays selectable for cross-checking (CI cmp-asserts
                         the calendar queue against it)
  --sweep                run the (scheduler x seed) cross product in
                         parallel and print a per-cell table plus
                         per-scheduler aggregates.
                         File-producing flags (--csv-dir, --trace-out, ...)
                         are rejected: cells would race on the files
  --jobs       <n>       threads for --sweep and multi-seed runs
                         (default 0 = hardware concurrency); results
                         are byte-identical for any value
  --sweep-out  <path>    write the sweep result table as deterministic JSON
                         (esg.sweep.v1; wall-clock fields excluded so the
                         file is byte-identical across --jobs counts)
  --load       light|normal|heavy                       (default light)
  --slo        strict|moderate|relaxed                  (default strict)
  --arrivals   <spec>    arrival process                (default synthetic)
                           synthetic — paper Sec. 4.1 ranges per --load
                           bursty[:calm=light,burst=heavy,calm-ms=8000,burst-ms=2000]
                           trace:@file[,rate-scale=1,time-scale=1]
                         trace replay drives the run with a production
                         workload trace (esg.trace.v1 CSV or JSONL; generate
                         one with tools/esg_tracegen); still clipped to
                         --horizon-ms
  --horizon-ms <ms>      arrival window                 (default 30000)
  --warmup-ms  <ms>      steady-state measurement start (default 0)
  --nodes      <n>       invoker count                  (default 16)
  --seeds      <n>|<s1,s2,...>  replica count (seeds 42..42+n-1) or an
                         explicit seed list; `7,` is the one-seed list 7
  --k          <n>       ESG configPQ length            (default 5)
  --group-size <n>       ESG max function-group size    (default 3)
  --gpu-sharing on|off   ablation switch                (default on)
  --batching   on|off    ablation switch                (default on)
  --prewarm    on|off    pre-warming                    (default on)
  --noise-cv   <f>       execution-noise CV             (default 0.06)
  --csv-dir    <path>    write completions/tasks/summary CSVs
  --trace-out  <path>    write a Chrome/Perfetto trace (trace.json); with
                         --seeds n>1 each seed gets a _seed<N> suffix
  --stats-out  <path>    write sampled gauges (occupancy, queue depth) as JSONL
  --stats-interval-ms <ms>  gauge sampling cadence      (default 100)
  --report-out <path>    write the SLO-attribution report (critical-path
                         latency decomposition + per-app miss causes) as JSON;
                         esg_report produces the same file from a saved trace
  --perf-out   <path>    write the simulator self-profiling report
                         (esg.perf.v2 JSON: hot-path counters, throughput,
                         and the run's self time per layer: setup, engine,
                         scan, plan, place, dispatch, prewarm, sinks,
                         attribution); with --seeds n>1 each seed gets a
                         _seed<N> suffix. Also adds perf/* counter tracks to
                         --stats-out / --trace-out when those are active
  --perf-summary         print the per-seed self-profiling summary (counter
                         table + layer table) after the run; seeds run
                         sequentially like the traced path. Timing the
                         layers costs a clocked run some throughput
  --fault-spec <spec>    deterministic fault injection; `@file` reads the
                         spec from a file. Clauses are `;`-separated:
                           crash:invoker=3,at=2000,down=1500
                           dispatch:prob=0.05[,function=2]
                           coldstart:prob=0.2[,function=1]
                           slow:invoker=1,at=500,for=4000,factor=3
                           spot:at=2000,nodes=3[,warn=500]
                         A zero-rate spec reproduces the fault-free run
                         byte-for-byte. `spot:` reclaims nodes after a warning
                         lead time and needs --elastic.
  --elastic    <policy:k=v,...>  elastic fleet lifecycle (default off: the
                         fleet is static at --nodes). Policies:
                           queue:...  scale out when queued jobs per in-fleet
                                      node exceed `out`
                           rate:...   scale out when the EWMA arrival rate
                                      (req/s) per in-fleet node exceeds `out`
                           forecast:... scale out when the *predicted* rate
                                      provision-ms ahead per in-fleet node
                                      exceeds `out` (needs --forecast)
                         Keys: min=1 max=<nodes> out=8 step=1 idle-ms=30000
                         eval-ms=250 provision-ms=2000 alpha=0.3 shed=off
                         shed-margin=1. --nodes is the *initial* fleet; the
                         cluster holds `max` invokers. `shed=on` enables
                         admission control: requests whose best-case latency
                         cannot meet shed-margin x SLO are rejected at arrival
                         (reported as shed@admission). An inert spec
                         (min == max, idle-ms=0, shed=off) is byte-identical
                         to the static run.
  --forecast   <spec>    arrival forecasting; `@file` reads the spec from a
                         file. Grammar (`,` also separates the shared keys):
                           <predictor>[;lead-ms=<ms>][;bin-ms=<ms>]
                         Predictors:
                           oracle     true per-bin rates from the replayed
                                      trace (needs --arrivals trace:@file) —
                                      the value-of-information upper bound
                           last-bin   persistence: next bin = last bin
                           ewma[:alpha=0.3]  exponentially weighted mean
                           seasonal[:period-ms=120000,bins=120]  per-bin-of-
                                      period running means (diurnal shape)
                         Consumers: proactive prewarm targets lead-ms ahead,
                         the elastic `forecast` policy, and the ESG planner's
                         batching defer look-ahead. Off by default — a run
                         without the flag is byte-identical to pre-forecast
                         builds. Accuracy (per-app MAE/sMAPE) lands in
                         --stats-out gauges and the --report-out report.
  --tenants    <spec>    multi-tenant fair queueing; `@file` reads the spec
                         from a file. Clauses are `;`-separated:
                           name:weight[:mode][:apps=0,2,...]
                           throttle=<ms>   MQFQ throttle threshold T (default 50)
                         mode is time (default) | energy | hybrid=<alpha>
                         (charge = alpha*time + (1-alpha)*energy); apps= lists
                         the apps this tenant owns (unclaimed apps belong to
                         tenant 0; a trace tenant column overrides). Example:
                           --tenants 'gold:3:apps=0,2;bronze:1:energy;throttle=25'
                         With a single tenant (or no flag) every scheduler
                         runs the exact single-tenant path byte-for-byte;
                         with several, all schedulers get weighted per-tenant
                         queues and mqfq-sticky adds throttling + stickiness.
  --version              print one provenance line (commit, compiler, build)
  --build-info           print the full build/host provenance record
  --help

spec files: `@path` works for --fault-spec, --forecast and --tenants. One
clause per line (or `;`-separated), `#` starts a comment clause, CRLF is fine.

exit codes: 0 success; 2 configuration error (bad flag/spec/scenario);
1 runtime failure (I/O, internal error).
)";
}

CliOptions parse_cli(std::span<const char* const> args) {
  CliOptions opts;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view key = args[i];
    if (key == "--help" || key == "-h") {
      opts.help = true;
      return opts;
    }
    if (key == "--version") {
      opts.version = true;
      return opts;
    }
    if (key == "--build-info") {
      opts.build_info = true;
      return opts;
    }
    if (key == "--perf-summary") {
      opts.perf_summary = true;
      continue;
    }
    if (key == "--sweep") {
      opts.sweep = true;
      continue;
    }
    if (i + 1 >= args.size()) {
      throw std::invalid_argument("missing value for " + std::string(key));
    }
    const std::string_view value = args[++i];
    const lex::Field field{key, value};

    if (key == "--scheduler") {
      opts.schedulers = parse_scheduler_list(value);
      opts.scenario.scheduler = opts.schedulers.front();
    } else if (key == "--engine") {
      const auto engine = sim::parse_engine(value);
      if (!engine) {
        throw std::invalid_argument("unknown --engine '" + std::string(value) +
                                    "' (heap|calendar)");
      }
      opts.scenario.engine = *engine;
    } else if (key == "--jobs") {
      opts.jobs = static_cast<unsigned>(field.integer(0, lex::kMaxId));
    } else if (key == "--sweep-out") {
      opts.sweep_out = std::string(value);
    } else if (key == "--load") {
      opts.scenario.load = parse_load(value);
    } else if (key == "--slo") {
      opts.scenario.slo = parse_slo(value);
    } else if (key == "--horizon-ms") {
      opts.scenario.horizon_ms = field.number(lex::kNonNegative);
    } else if (key == "--warmup-ms") {
      opts.scenario.warmup_ms = field.number(lex::kNonNegative);
    } else if (key == "--nodes") {
      opts.scenario.nodes = field.integer(1, lex::kMaxId);
    } else if (key == "--seeds") {
      opts.seeds = parse_seeds(value);
    } else if (key == "--arrivals") {
      opts.scenario.arrivals = parse_arrivals(value);
    } else if (key == "--k") {
      opts.scenario.esg.k = field.integer(0, lex::kMaxId);
    } else if (key == "--group-size") {
      opts.scenario.esg.max_group_size = field.integer(0, lex::kMaxId);
    } else if (key == "--gpu-sharing") {
      opts.scenario.controller.enable_gpu_sharing = field.on_off();
    } else if (key == "--batching") {
      opts.scenario.controller.enable_batching = field.on_off();
    } else if (key == "--prewarm") {
      opts.scenario.controller.enable_prewarm = field.on_off();
    } else if (key == "--noise-cv") {
      opts.scenario.controller.noise_cv = field.number();
    } else if (key == "--csv-dir") {
      opts.csv_dir = std::string(value);
    } else if (key == "--trace-out") {
      opts.scenario.trace.trace_path = std::string(value);
    } else if (key == "--stats-out") {
      opts.scenario.trace.stats_path = std::string(value);
    } else if (key == "--report-out") {
      opts.scenario.trace.report_path = std::string(value);
    } else if (key == "--perf-out") {
      opts.scenario.trace.perf_path = std::string(value);
    } else if (key == "--stats-interval-ms") {
      opts.scenario.trace.stats_interval_ms = field.number(lex::kPositive);
    } else if (key == "--fault-spec") {
      opts.scenario.fault = fault::load_fault_spec(value);
    } else if (key == "--elastic") {
      opts.scenario.elastic = elastic::parse_elastic_spec(value);
    } else if (key == "--forecast") {
      opts.scenario.forecast = forecast::load_forecast_spec(value);
    } else if (key == "--tenants") {
      opts.scenario.tenants = tenant::load_tenant_spec(value);
    } else {
      throw std::invalid_argument("unknown flag '" + std::string(key) +
                                  "' (see --help)");
    }
  }

  // Cross-flag validation here (not only in run_scenario): replicas run on
  // worker threads, where a late throw aborts instead of reaching main's
  // config-error handler.
  if (!opts.scenario.fault.spot.empty() && !opts.scenario.elastic.enabled()) {
    throw std::invalid_argument(
        "spot: clauses need --elastic (a static fleet has no lifecycle to "
        "reclaim nodes from)");
  }
  if (opts.scenario.forecast.kind == forecast::ForecastKind::kOracle &&
      opts.scenario.arrivals.mode != ArrivalMode::kTrace) {
    throw std::invalid_argument(
        "--forecast oracle requires trace arrivals (--arrivals trace:@file)");
  }
  if (opts.scenario.elastic.policy == elastic::ElasticPolicy::kForecast &&
      !opts.scenario.forecast.enabled()) {
    throw std::invalid_argument(
        "--elastic forecast needs --forecast (the policy has no signal "
        "without a forecaster)");
  }
  if (!opts.sweep) {
    if (opts.schedulers.size() > 1) {
      throw std::invalid_argument(
          "--scheduler with a comma list needs --sweep");
    }
    if (!opts.sweep_out.empty()) {
      throw std::invalid_argument("--sweep-out needs --sweep");
    }
  } else {
    // Sweep replicas run concurrently and share no file paths, so every
    // file-producing flag is rejected loudly rather than silently dropped.
    if (!opts.csv_dir.empty()) {
      throw std::invalid_argument(
          "--csv-dir is not supported with --sweep (cells would race on the "
          "files); run cells individually for CSVs");
    }
    if (opts.scenario.trace.enabled()) {
      throw std::invalid_argument(
          "--trace-out/--stats-out/--report-out/--perf-out are not supported "
          "with --sweep (cells would race on the files)");
    }
    if (opts.perf_summary) {
      throw std::invalid_argument(
          "--perf-summary is not supported with --sweep (cells run "
          "concurrently); run one scheduler without --sweep for the per-seed "
          "summary");
    }
  }

  return opts;
}

}  // namespace esg::exp
