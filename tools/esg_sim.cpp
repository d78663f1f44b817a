// esg_sim — command-line driver for the simulated serverless platform.
// Runs one scenario (scheduler x load x SLO, any knob) over one or more
// seeds, prints the headline metrics, and optionally dumps CSVs.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "common/build_info.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "exp/cli.hpp"
#include "metrics/export.hpp"
#include "perf/layer_clock.hpp"
#include "perf/report.hpp"
#include "sweep/sweep.hpp"
#include "tenant/tenant_spec.hpp"

namespace {

/// --sweep: run the (scheduler × seed) cross product on the pool, print a
/// per-cell table plus per-scheduler aggregates, optionally dump the result
/// table as deterministic JSON (esg.sweep.v1 — wall-clock fields excluded,
/// so the file is byte-identical for any --jobs count).
int run_sweep_cli(const esg::exp::CliOptions& opts) {
  using namespace esg;
  sweep::SweepOptions sweep_opts;
  sweep_opts.jobs = opts.jobs;
  const std::vector<sweep::SweepCellResult> results = sweep::run_sweep(
      sweep::cross_product(opts.scenario, opts.schedulers, opts.seeds),
      sweep_opts);

  bool any_failed = false;
  AsciiTable table({"cell", "requests", "SLO hit rate", "cost ($)",
                    "cold starts", "mean wait (ms)"});
  for (const auto& cell : results) {
    if (cell.failed) {
      any_failed = true;
      table.add_row({cell.label, "-", "failed", "-", "-", "-"});
      std::fprintf(stderr, "esg_sim: cell %s failed: %s\n", cell.label.c_str(),
                   cell.error.c_str());
      continue;
    }
    const auto& m = cell.output.metrics;
    table.add_row({cell.label, std::to_string(m.requests()),
                   AsciiTable::pct(m.slo_hit_rate()),
                   AsciiTable::num(m.total_cost, 4),
                   std::to_string(m.cold_starts),
                   AsciiTable::num(m.mean_job_wait_ms(), 1)});
  }
  std::printf("%s\n", table.render().c_str());

  // Per-scheduler aggregates: cross_product is scheduler-major, so each
  // scheduler's seeds are the contiguous slice [s*seeds, (s+1)*seeds).
  const std::size_t n_seeds = opts.seeds.size();
  for (std::size_t s = 0; s < opts.schedulers.size(); ++s) {
    std::vector<exp::RunOutput> outs;
    for (std::size_t k = 0; k < n_seeds; ++k) {
      const auto& cell = results[s * n_seeds + k];
      if (!cell.failed) outs.push_back(cell.output);
    }
    const auto agg = exp::aggregate(outs);
    std::printf("%-12s hit rate %5.1f%%  mean cost $%.4f  mean wait %.1f ms  "
                "(%zu/%zu seeds)\n",
                std::string(exp::to_string(opts.schedulers[s])).c_str(),
                100.0 * agg.slo_hit_rate, agg.total_cost, agg.mean_job_wait_ms,
                outs.size(), n_seeds);
  }

  if (!opts.sweep_out.empty()) {
    std::FILE* file = std::fopen(opts.sweep_out.c_str(), "w");
    if (file == nullptr) {
      throw std::runtime_error("cannot open sweep-out file '" +
                               opts.sweep_out + "'");
    }
    std::fprintf(file, "{\n  \"schema\": \"esg.sweep.v1\",\n  \"cells\": [");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& cell = results[i];
      const auto scheduler = exp::to_string(opts.schedulers[i / n_seeds]);
      std::fprintf(file, "%s\n    {\"scheduler\": \"%.*s\", \"seed\": %llu",
                   i == 0 ? "" : ",", static_cast<int>(scheduler.size()),
                   scheduler.data(),
                   static_cast<unsigned long long>(opts.seeds[i % n_seeds]));
      if (cell.failed) {
        std::fprintf(file, ", \"failed\": true}");
        continue;
      }
      const auto& m = cell.output.metrics;
      std::fprintf(file,
                   ", \"requests\": %zu, \"slo_hit_rate\": %.17g, "
                   "\"total_cost\": %.17g, \"cold_starts\": %zu, "
                   "\"mean_job_wait_ms\": %.17g, \"events_fired\": %llu}",
                   m.requests(), m.slo_hit_rate(), m.total_cost, m.cold_starts,
                   m.mean_job_wait_ms(),
                   static_cast<unsigned long long>(
                       cell.output.counters.events_fired));
    }
    std::fprintf(file, "\n  ],\n  \"aggregates\": [");
    for (std::size_t s = 0; s < opts.schedulers.size(); ++s) {
      std::vector<exp::RunOutput> outs;
      for (std::size_t k = 0; k < n_seeds; ++k) {
        const auto& cell = results[s * n_seeds + k];
        if (!cell.failed) outs.push_back(cell.output);
      }
      const auto agg = exp::aggregate(outs);
      const auto scheduler = exp::to_string(opts.schedulers[s]);
      std::fprintf(file,
                   "%s\n    {\"scheduler\": \"%.*s\", \"seeds\": %zu, "
                   "\"slo_hit_rate\": %.17g, \"total_cost\": %.17g, "
                   "\"mean_job_wait_ms\": %.17g}",
                   s == 0 ? "" : ",", static_cast<int>(scheduler.size()),
                   scheduler.data(), outs.size(), agg.slo_hit_rate,
                   agg.total_cost, agg.mean_job_wait_ms);
    }
    std::fprintf(file, "\n  ]\n}\n");
    const bool failed = std::ferror(file) != 0;
    if (std::fclose(file) != 0 || failed) {
      throw std::runtime_error("cannot write sweep-out file '" +
                               opts.sweep_out + "'");
    }
    std::printf("sweep results written to %s\n", opts.sweep_out.c_str());
  }
  return any_failed ? 1 : 0;
}

/// --csv-dir: per-seed completions and tasks, plus the summary, per-app and
/// (multi-tenant runs only) per-tenant tables. Throws on any I/O failure.
void write_csvs(const esg::exp::CliOptions& opts,
                const std::vector<esg::exp::RunOutput>& outputs,
                const esg::tenant::TenantSpec& tenants) {
  using namespace esg;
  std::filesystem::create_directories(opts.csv_dir);
  const auto write_csv = [](const std::string& path, const auto& write) {
    std::ofstream file(path);
    write(file);
    if (!file.flush()) {
      throw std::runtime_error("cannot write CSV file '" + path + "'");
    }
  };
  const auto label = [&opts](std::size_t i) {
    return "seed" + std::to_string(opts.seeds[i]);
  };
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const std::string stem = opts.csv_dir + "/" + label(i);
    write_csv(stem + "_completions.csv", [&](std::ostream& out) {
      metrics::write_completions_csv(outputs[i].metrics, out);
    });
    write_csv(stem + "_tasks.csv", [&](std::ostream& out) {
      metrics::write_task_trace_csv(outputs[i].metrics, out);
    });
  }
  write_csv(opts.csv_dir + "/summary.csv", [&](std::ostream& out) {
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      metrics::write_summary_csv(outputs[i].metrics, label(i), out, i == 0);
    }
  });
  write_csv(opts.csv_dir + "/per_app.csv", [&](std::ostream& out) {
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      metrics::write_per_app_summary_csv(outputs[i].metrics, label(i), out,
                                         i == 0);
    }
  });
  // per_tenant.csv exists only on multi-tenant runs, so single-tenant
  // --csv-dir output keeps the exact legacy file set.
  if (!tenants.inert()) {
    std::vector<std::string> names;
    for (std::uint32_t t = 0;
         t < static_cast<std::uint32_t>(tenants.tenants.size()); ++t) {
      names.push_back(tenants.tenant_name(t));
    }
    write_csv(opts.csv_dir + "/per_tenant.csv", [&](std::ostream& out) {
      for (std::size_t i = 0; i < outputs.size(); ++i) {
        metrics::write_per_tenant_summary_csv(outputs[i].metrics, names,
                                              label(i), out, i == 0);
      }
    });
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace esg;
  exp::CliOptions opts;
  try {
    opts = exp::parse_cli({const_cast<const char* const*>(argv) + 1,
                           static_cast<std::size_t>(argc - 1)});
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "esg_sim: %s\n%s", e.what(), exp::cli_usage().c_str());
    return 2;
  }
  if (opts.help) {
    std::printf("%s", exp::cli_usage().c_str());
    return 0;
  }
  if (opts.version) {
    std::printf("%s\n", common::version_line("esg_sim").c_str());
    return 0;
  }
  if (opts.build_info) {
    common::write_build_info(stdout, "esg_sim");
    return 0;
  }

  std::string arrivals(exp::to_string(opts.scenario.arrivals.mode));
  if (opts.scenario.arrivals.mode == exp::ArrivalMode::kTrace) {
    char scales[96];
    std::snprintf(scales, sizeof(scales), ":%s,rate-scale=%g,time-scale=%g",
                  opts.scenario.arrivals.trace_path.c_str(),
                  opts.scenario.arrivals.replay.rate_scale,
                  opts.scenario.arrivals.replay.time_scale);
    arrivals += scales;
  }
  // The elastic suffix only appears when --elastic was given, keeping static
  // stdout unchanged.
  std::string elastic_desc;
  if (opts.scenario.elastic.enabled()) {
    elastic_desc =
        " elastic=" + elastic::to_string(opts.scenario.elastic);
  }
  // Same suppression for --forecast: reactive stdout stays unchanged.
  if (opts.scenario.forecast.enabled()) {
    elastic_desc += " forecast=" + forecast::to_string(opts.scenario.forecast);
  }
  // Same suppression for --tenants: single-tenant stdout stays unchanged.
  // Resolve against the (eagerly loaded) trace so a trace-borne tenant
  // column shows up here too.
  const std::size_t trace_tenants =
      opts.scenario.arrivals.trace != nullptr
          ? opts.scenario.arrivals.trace->tenant_count
          : 1;
  const tenant::TenantSpec tenants =
      tenant::resolve_for_trace(opts.scenario.tenants, trace_tenants);
  if (!tenants.inert()) {
    elastic_desc += " tenants=" + tenant::to_string(tenants);
  }
  // Same suppression for --engine: default-engine stdout stays unchanged
  // (and the calendar/heap artefact cmp never trips on the header line).
  if (opts.scenario.engine != sim::EngineKind::kCalendar) {
    elastic_desc +=
        std::string(" engine=") + sim::engine_name(opts.scenario.engine);
  }
  // Sweep header lists every scheduler in the cross product. --jobs is
  // deliberately NOT printed: stdout must be byte-identical across worker
  // counts (CI cmp-asserts --jobs 4 against --jobs 1).
  std::string scheduler_desc(exp::to_string(opts.scenario.scheduler));
  if (opts.sweep) {
    scheduler_desc.clear();
    for (std::size_t s = 0; s < opts.schedulers.size(); ++s) {
      if (s != 0) scheduler_desc += ",";
      scheduler_desc += std::string(exp::to_string(opts.schedulers[s]));
    }
  }
  std::printf("scheduler=%s load=%s slo=%s arrivals=%s horizon=%.0fms "
              "warmup=%.0fms nodes=%zu seeds=%zu%s\n\n",
              scheduler_desc.c_str(),
              std::string(workload::to_string(opts.scenario.load)).c_str(),
              std::string(workload::to_string(opts.scenario.slo)).c_str(),
              arrivals.c_str(), opts.scenario.horizon_ms,
              opts.scenario.warmup_ms, opts.scenario.nodes, opts.seeds.size(),
              elastic_desc.c_str());

  if (opts.sweep) {
    try {
      return run_sweep_cli(opts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "esg_sim: %s\n", e.what());
      return 1;
    }
  }

  // With tracing (or a perf summary) the seeds run sequentially, each into
  // its own file; the untraced path keeps the parallel replica runner.
  std::vector<exp::RunOutput> outputs;
  try {
  if (opts.scenario.trace.enabled() || opts.perf_summary) {
    const auto per_seed = [&](const std::string& path, std::uint64_t seed) {
      if (path.empty() || opts.seeds.size() == 1) return path;
      const auto dot = path.rfind('.');
      const std::string suffix = "_seed" + std::to_string(seed);
      if (dot == std::string::npos || dot == 0) return path + suffix;
      return path.substr(0, dot) + suffix + path.substr(dot);
    };
    for (const std::uint64_t seed : opts.seeds) {
      exp::Scenario scenario = opts.scenario;
      scenario.seed = seed;
      scenario.trace.trace_path = per_seed(scenario.trace.trace_path, seed);
      scenario.trace.stats_path = per_seed(scenario.trace.stats_path, seed);
      scenario.trace.report_path = per_seed(scenario.trace.report_path, seed);
      scenario.trace.perf_path = per_seed(scenario.trace.perf_path, seed);
      // One layer clock per seed for the summary; run_scenario reads it
      // into the seed's RunOutput (and its --perf-out report).
      std::optional<perf::LayerClock> clock;
      if (opts.perf_summary) clock.emplace();
      outputs.push_back(exp::run_scenario(scenario));
      if (!scenario.trace.trace_path.empty()) {
        std::printf("trace written to %s (open in ui.perfetto.dev)\n",
                    scenario.trace.trace_path.c_str());
      }
      if (!scenario.trace.stats_path.empty()) {
        std::printf("stats written to %s\n", scenario.trace.stats_path.c_str());
      }
      if (!scenario.trace.report_path.empty()) {
        std::printf("report written to %s (inspect with tools/esg_report)\n",
                    scenario.trace.report_path.c_str());
      }
      if (!scenario.trace.perf_path.empty()) {
        std::printf("perf report written to %s (compare with tools/esg_perfdiff)\n",
                    scenario.trace.perf_path.c_str());
      }
      if (opts.perf_summary) {
        const exp::RunOutput& out = outputs.back();
        perf::RunInfo info;
        info.scheduler = exp::to_string(scenario.scheduler);
        info.seed = seed;
        info.simulated_ms = out.simulated_end_ms;
        info.wall_seconds = out.wall_seconds;
        info.invocations = out.metrics.requests();
        perf::write_perf_summary(stdout, info, out.counters, out.layers);
      }
    }
    std::printf("\n");
  } else {
    outputs = exp::run_replicas(opts.scenario, opts.seeds, opts.jobs);
  }
  } catch (const std::invalid_argument& e) {
    // Scenario validation that only runs inside run_scenario (fault/elastic
    // cross-checks) is still a configuration error, not a runtime failure.
    std::fprintf(stderr, "esg_sim: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esg_sim: %s\n", e.what());
    return 1;
  }
  const auto agg = exp::aggregate(outputs);

  AsciiTable table({"seed", "requests", "SLO hit rate", "cost ($)",
                    "cold starts", "local/remote", "mean wait (ms)"});
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const auto& m = outputs[i].metrics;
    table.add_row({std::to_string(opts.seeds[i]), std::to_string(m.requests()),
                   AsciiTable::pct(m.slo_hit_rate()),
                   AsciiTable::num(m.total_cost, 4),
                   std::to_string(m.cold_starts),
                   std::to_string(m.local_inputs) + "/" +
                       std::to_string(m.remote_inputs),
                   AsciiTable::num(m.mean_job_wait_ms(), 1)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("aggregate: hit rate %.1f%%, mean cost $%.4f over %zu seed(s)\n",
              100.0 * agg.slo_hit_rate, agg.total_cost, opts.seeds.size());

  // Fault-injection rollup. All-zero counters mean no fault ever fired, so
  // the line is suppressed — keeps fault-free stdout byte-identical to runs
  // without --fault-spec.
  std::size_t failures = 0, timeouts = 0, retries = 0, exhausted = 0,
              cold_fails = 0, crashes = 0;
  for (const auto& out : outputs) {
    failures += out.metrics.task_failures;
    timeouts += out.metrics.task_timeouts;
    retries += out.metrics.retries;
    exhausted += out.metrics.retries_exhausted;
    cold_fails += out.metrics.cold_start_failures;
    crashes += out.metrics.invoker_crashes;
  }
  if (failures + timeouts + retries + exhausted + cold_fails + crashes > 0) {
    std::printf("faults: %zu task failures (%zu timeouts), %zu retries, "
                "%zu aborted, %zu cold-start failures, %zu invoker crashes\n",
                failures, timeouts, retries, exhausted, cold_fails, crashes);
  }

  // Elasticity rollup, suppressed the same way: a static (or zero-churn
  // elastic) run prints nothing extra.
  std::size_t sheds = 0, reclaims = 0, scale_outs = 0, scale_ins = 0;
  for (const auto& out : outputs) {
    sheds += out.metrics.shed_requests;
    reclaims += out.metrics.spot_reclaims;
    scale_outs += out.metrics.scale_outs;
    scale_ins += out.metrics.scale_ins;
  }
  if (sheds + reclaims + scale_outs + scale_ins > 0) {
    std::printf("elasticity: %zu scale-outs, %zu scale-ins, %zu spot "
                "reclamations, %zu shed requests\n",
                scale_outs, scale_ins, reclaims, sheds);
  }

  // Forecast-accuracy rollup, printed only when a forecaster ran (reactive
  // stdout is byte-identical to pre-forecast builds). Averages the per-app
  // MAE/sMAPE over apps with at least one closed bin, across all seeds.
  if (opts.scenario.forecast.enabled()) {
    double mae_sum = 0.0, smape_sum = 0.0;
    std::size_t scored = 0, bins = 0;
    for (const auto& out : outputs) {
      for (const auto& acc : out.forecast_accuracy) {
        if (acc.bins == 0) continue;
        mae_sum += acc.mae;
        smape_sum += acc.smape;
        bins += acc.bins;
        ++scored;
      }
    }
    if (scored > 0) {
      std::printf("forecast: %zu scored app-series over %zu bins, "
                  "mean MAE %.3f req/bin, mean sMAPE %.3f\n",
                  scored, bins, mae_sum / static_cast<double>(scored),
                  smape_sum / static_cast<double>(scored));
    } else {
      std::printf("forecast: no bins closed (run shorter than bin-ms?)\n");
    }
  }

  // Per-tenant fairness rollup across all seeds, printed only on
  // multi-tenant runs (single-tenant stdout is byte-identical to pre-tenant
  // builds).
  if (!tenants.inert()) {
    for (std::uint32_t t = 0;
         t < static_cast<std::uint32_t>(tenants.tenants.size()); ++t) {
      std::size_t requests = 0, hits = 0;
      std::vector<double> latencies;
      for (const auto& out : outputs) {
        for (const auto& c : out.metrics.completions) {
          if (c.tenant != t) continue;
          ++requests;
          if (c.hit) ++hits;
          if (!c.shed) latencies.push_back(c.latency_ms);
        }
      }
      const double rate =
          requests > 0
              ? 100.0 * static_cast<double>(hits) / static_cast<double>(requests)
              : 0.0;
      std::printf("tenant %-12s weight=%-4.4g requests=%-6zu "
                  "hit rate %5.1f%%  p99 %.1f ms\n",
                  tenants.tenant_name(t).c_str(), tenants.weight_of(t),
                  requests, rate, percentile(latencies, 0.99));
    }
  }

  if (!opts.csv_dir.empty()) {
    try {
      write_csvs(opts, outputs, tenants);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "esg_sim: %s\n", e.what());
      return 1;
    }
    std::printf("CSVs written to %s/\n", opts.csv_dir.c_str());
  }
  return 0;
}
