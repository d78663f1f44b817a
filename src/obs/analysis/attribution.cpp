#include "obs/analysis/attribution.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "obs/trace_event.hpp"

namespace esg::obs::analysis {

namespace {

struct BudgetPlan {
  // Per-DAG-node planned budget in ms, keyed by stage index ("b<i>" args).
  std::map<std::size_t, double> per_stage;
};

std::map<std::uint32_t, BudgetPlan> collect_budget_plans(
    const TraceDataset& dataset) {
  std::map<std::uint32_t, BudgetPlan> plans;
  for (const Instant& instant : dataset.instants) {
    if (instant.kind != InstantKind::kBudgetPlan) continue;
    BudgetPlan& plan = plans[instant.track.tid];
    for (const auto& [key, value] : instant.args) {
      if (key.size() < 2 || key[0] != 'b') continue;
      char* end = nullptr;
      const unsigned long stage = std::strtoul(key.c_str() + 1, &end, 10);
      if (end == key.c_str() + 1 || *end != '\0') continue;
      plan.per_stage[static_cast<std::size_t>(stage)] =
          arg_double(instant.args, key, 0.0);
    }
  }
  return plans;
}

/// Fault/abort markers a request's track carried (fault-injection runs).
struct FaultMarks {
  std::map<std::size_t, std::size_t> faults_by_stage;
  std::set<std::size_t> reclaimed_stages;  ///< stages killed by spot reclaim
  bool aborted = false;
  std::size_t abort_stage = 0;
};

std::map<std::uint32_t, FaultMarks> collect_fault_marks(
    const TraceDataset& dataset) {
  std::map<std::uint32_t, FaultMarks> marks;
  for (const Instant& instant : dataset.instants) {
    if (instant.track.pid != kRequestsPid) continue;
    if (instant.kind == InstantKind::kFault) {
      const auto stage =
          static_cast<std::size_t>(arg_double(instant.args, "stage", 0.0));
      FaultMarks& mark = marks[instant.track.tid];
      ++mark.faults_by_stage[stage];
      for (const auto& [key, value] : instant.args) {
        if (key == "cause" && value == "reclaimed") {
          mark.reclaimed_stages.insert(stage);
        }
      }
    } else if (instant.kind == InstantKind::kRetryExhausted) {
      FaultMarks& mark = marks[instant.track.tid];
      mark.aborted = true;
      mark.abort_stage =
          static_cast<std::size_t>(arg_double(instant.args, "stage", 0.0));
    }
  }
  return marks;
}

std::string classify_miss(const RequestBreakdown& request) {
  // Blame the stage with the worst signed drift; ties go to the earliest
  // stage so the classification is deterministic.
  const StageBreakdown* blame = &request.path.front();
  for (const StageBreakdown& stage : request.path) {
    if (stage.drift_ms() > blame->drift_ms()) blame = &stage;
  }

  // Within the blamed stage, the dominant contributor wins. Execution only
  // counts by its *excess* over the planned budget: exec within plan is the
  // planner's expectation, exec beyond it means the budget was undersized.
  struct Candidate {
    const char* label;
    double value;
  };
  const double exec_excess = std::max(0.0, blame->exec_ms - blame->planned_ms);
  const Candidate candidates[] = {
      {"queueing", blame->queueing_ms},
      {"cold_start", blame->cold_start_ms},
      {"batch_wait", blame->batch_wait_ms},
      {"transfer", blame->transfer_ms},
      {"sched_overhead", blame->sched_overhead_ms},
      {"budget_undersized", exec_excess},
  };
  const Candidate* best = &candidates[5];  // degenerate all-zero default
  for (const Candidate& c : candidates) {
    if (c.value > best->value) best = &c;
  }
  return std::string(best->label) + "@stage" + std::to_string(blame->stage);
}

void accumulate_components(ComponentMeans& sums, const StageBreakdown& stage) {
  sums.batch_wait += stage.batch_wait_ms;
  sums.cold_start += stage.cold_start_ms;
  sums.queueing += stage.queueing_ms;
  sums.sched_overhead += stage.sched_overhead_ms;
  sums.transfer += stage.transfer_ms;
  sums.exec += stage.exec_ms;
}

void divide_components(ComponentMeans& sums, std::size_t n) {
  if (n == 0) return;
  const auto d = static_cast<double>(n);
  sums.batch_wait /= d;
  sums.cold_start /= d;
  sums.queueing /= d;
  sums.sched_overhead /= d;
  sums.transfer /= d;
  sums.exec /= d;
}

LatencyQuantiles latency_quantiles(std::vector<double> values) {
  LatencyQuantiles q;
  q.p50 = percentile(values, 0.50);
  q.p95 = percentile(values, 0.95);
  q.p99 = percentile(std::move(values), 0.99);
  return q;
}

// --- deterministic JSON rendering -----------------------------------------

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

void write_quantiles(const LatencyQuantiles& q, std::ostream& out) {
  out << "{\"p50\":" << fmt(q.p50) << ",\"p95\":" << fmt(q.p95)
      << ",\"p99\":" << fmt(q.p99) << "}";
}

void write_components(const ComponentMeans& c, std::ostream& out) {
  out << "{\"batch_wait\":" << fmt(c.batch_wait)
      << ",\"cold_start\":" << fmt(c.cold_start)
      << ",\"queueing\":" << fmt(c.queueing)
      << ",\"sched_overhead\":" << fmt(c.sched_overhead)
      << ",\"transfer\":" << fmt(c.transfer) << ",\"exec\":" << fmt(c.exec)
      << "}";
}

void write_causes(const std::map<std::string, std::size_t>& causes,
                  std::ostream& out) {
  out << "{";
  bool first = true;
  for (const auto& [cause, count] : causes) {
    if (!first) out << ",";
    first = false;
    out << "\"" << cause << "\":" << count;
  }
  out << "}";
}

void write_histogram(const Histogram& hist, std::ostream& out) {
  out << "{\"lo\":" << fmt(hist.bin_lo(0)) << ",\"hi\":"
      << fmt(hist.bin_hi(hist.bin_count() - 1)) << ",\"samples\":"
      << hist.total() << ",\"p50\":" << fmt(hist.quantile(0.50))
      << ",\"p90\":" << fmt(hist.quantile(0.90)) << ",\"bins\":[";
  for (std::size_t b = 0; b < hist.bin_count(); ++b) {
    if (b > 0) out << ",";
    out << hist.count_at(b);
  }
  out << "]}";
}

}  // namespace

Histogram make_drift_histogram() { return Histogram(-1.0, 1.0, 16); }

void attribute_slo_budgets(CriticalPathResult& paths,
                           const TraceDataset& dataset) {
  const auto plans = collect_budget_plans(dataset);
  const auto fault_marks = collect_fault_marks(dataset);
  for (RequestBreakdown& request : paths.requests) {
    const auto plan_it = plans.find(request.request);
    const BudgetPlan* plan =
        plan_it == plans.end() ? nullptr : &plan_it->second;
    const double uniform =
        request.path.empty()
            ? 0.0
            : request.slo_ms / static_cast<double>(request.path.size());
    request.uniform_budget = plan == nullptr;
    for (StageBreakdown& stage : request.path) {
      if (plan != nullptr) {
        const auto b = plan->per_stage.find(stage.stage);
        stage.planned_ms = b == plan->per_stage.end() ? uniform : b->second;
      } else {
        stage.planned_ms = uniform;
      }
    }
    if (!request.hit && !request.path.empty()) {
      // Fault causes take precedence: a fault explains the miss better than
      // the drift it left behind.
      const auto mark_it = fault_marks.find(request.request);
      if (mark_it != fault_marks.end() && mark_it->second.aborted) {
        request.miss_cause =
            "retry_exhausted@stage" + std::to_string(mark_it->second.abort_stage);
      } else {
        const StageBreakdown* faulted = nullptr;
        if (mark_it != fault_marks.end()) {
          for (const StageBreakdown& stage : request.path) {
            if (mark_it->second.faults_by_stage.count(stage.stage) == 0) continue;
            if (faulted == nullptr || stage.drift_ms() > faulted->drift_ms()) {
              faulted = &stage;
            }
          }
        }
        if (faulted != nullptr) {
          // Spot reclamations get their own cause label so degradation under
          // churn is attributable separately from injected faults.
          const bool reclaimed =
              mark_it->second.reclaimed_stages.count(faulted->stage) > 0;
          request.miss_cause = (reclaimed ? "reclaimed@stage" : "fault@stage") +
                               std::to_string(faulted->stage);
        } else {
          request.miss_cause = classify_miss(request);
        }
      }
    }
  }
}

AttributionReport build_report(const TraceDataset& dataset) {
  CriticalPathResult paths = reconstruct_critical_paths(dataset);
  attribute_slo_budgets(paths, dataset);

  AttributionReport report;
  report.unreconstructed = paths.unreconstructed;

  struct StageAccumulator {
    std::size_t samples = 0;
    double planned_sum = 0.0;
    double actual_sum = 0.0;
    std::vector<double> drifts;
    ComponentMeans component_sums;
  };
  struct AppAccumulator {
    AppReport report;
    std::vector<double> latencies;
    std::map<std::size_t, StageAccumulator> stages;
  };
  std::map<std::uint32_t, AppAccumulator> apps;
  std::vector<double> all_latencies;
  ComponentMeans all_component_sums;

  for (const RequestBreakdown& request : paths.requests) {
    AppAccumulator& app = apps[request.app];
    app.report.app = request.app;
    app.report.slo_ms = request.slo_ms;
    ++app.report.requests;
    ++report.requests;
    if (request.uniform_budget) ++app.report.uniform_budget_requests;
    app.latencies.push_back(request.latency_ms());
    all_latencies.push_back(request.latency_ms());
    if (!request.hit) {
      ++report.misses;
      ++app.report.misses;
      ++report.miss_causes[request.miss_cause];
      ++app.report.miss_causes[request.miss_cause];
    }
    for (const StageBreakdown& stage : request.path) {
      StageAccumulator& acc = app.stages[stage.stage];
      ++acc.samples;
      acc.planned_sum += stage.planned_ms;
      acc.actual_sum += stage.actual_ms();
      acc.drifts.push_back(stage.drift_ms());
      accumulate_components(acc.component_sums, stage);
      accumulate_components(app.report.components_mean_ms, stage);
      accumulate_components(all_component_sums, stage);
      if (stage.planned_ms > 0.0) {
        app.report.drift_histogram.add(stage.drift_ms() / stage.planned_ms);
      }
    }
  }

  // Shed requests never ran, so critical-path reconstruction has nothing to
  // rebuild; they are synthesised here from their admission-control instants
  // instead. Each counts as a request and a miss ("shed@admission") but is
  // excluded from the latency quantiles — a 0 ms rejection is not a latency.
  for (const Instant& instant : dataset.instants) {
    if (instant.kind != InstantKind::kShed) continue;
    if (instant.track.pid != kRequestsPid) continue;
    const auto app_id =
        static_cast<std::uint32_t>(arg_double(instant.args, "app", 0.0));
    AppAccumulator& app = apps[app_id];
    if (app.report.requests == 0) {
      app.report.app = app_id;
      app.report.slo_ms = arg_double(instant.args, "slo_ms", 0.0);
    }
    ++app.report.requests;
    ++report.requests;
    ++report.misses;
    ++app.report.misses;
    ++report.miss_causes["shed@admission"];
    ++app.report.miss_causes["shed@admission"];
  }

  report.latency_ms = latency_quantiles(std::move(all_latencies));
  report.components_mean_ms = all_component_sums;
  divide_components(report.components_mean_ms, report.requests);

  for (auto& [app_id, app] : apps) {
    app.report.latency_ms = latency_quantiles(std::move(app.latencies));
    divide_components(app.report.components_mean_ms, app.report.requests);
    for (auto& [stage_id, acc] : app.stages) {
      StageReport stage;
      stage.stage = stage_id;
      stage.samples = acc.samples;
      const auto n = static_cast<double>(acc.samples);
      stage.planned_ms_mean = acc.planned_sum / n;
      stage.actual_ms_mean = acc.actual_sum / n;
      double drift_sum = 0.0;
      for (const double d : acc.drifts) drift_sum += d;
      stage.drift_ms_mean = drift_sum / n;
      stage.drift_ms_p95 = percentile(std::move(acc.drifts), 0.95);
      stage.components_mean_ms = acc.component_sums;
      divide_components(stage.components_mean_ms, acc.samples);
      app.report.stages.push_back(stage);
    }
    report.drift_histogram.merge(app.report.drift_histogram);
    report.apps.push_back(std::move(app.report));
  }

  // Re-plan budget series: renormalised group targets per (app, stage).
  std::map<std::pair<std::uint32_t, std::size_t>, ReplanReport> replans;
  for (const Instant& instant : dataset.instants) {
    if (instant.kind != InstantKind::kBudgetReplan) continue;
    const auto app =
        static_cast<std::uint32_t>(arg_double(instant.args, "app", 0.0));
    const auto stage =
        static_cast<std::size_t>(arg_double(instant.args, "stage", 0.0));
    const double budget = arg_double(instant.args, "budget_ms", 0.0);
    ReplanReport& r = replans[{app, stage}];
    if (r.count == 0) {
      r.app = app;
      r.stage = stage;
      r.budget_ms_min = budget;
      r.budget_ms_max = budget;
    }
    ++r.count;
    r.budget_ms_mean += budget;  // sum for now, divided below
    r.budget_ms_min = std::min(r.budget_ms_min, budget);
    r.budget_ms_max = std::max(r.budget_ms_max, budget);
  }
  for (auto& [key, r] : replans) {
    r.budget_ms_mean /= static_cast<double>(r.count);
    report.replans.push_back(r);
  }

  // Per-tenant rollup, joined through the `tenant` attribute on request
  // spans. Tenant-free traces produce no entries here, so the report (and
  // its JSON) is unchanged from pre-tenant builds.
  std::map<std::uint32_t, std::string> tenant_of_request;
  for (const Span& span : dataset.spans) {
    if (span.kind != SpanKind::kRequest) continue;
    const std::string_view name = arg_value(span.args, "tenant");
    if (!name.empty()) {
      tenant_of_request[span.track.tid] = std::string(name);
    }
  }
  struct TenantAccumulator {
    TenantReport report;
    std::vector<double> latencies;
  };
  std::map<std::string, TenantAccumulator> tenant_accs;
  for (const RequestBreakdown& request : paths.requests) {
    const auto it = tenant_of_request.find(request.request);
    if (it == tenant_of_request.end()) continue;
    TenantAccumulator& acc = tenant_accs[it->second];
    ++acc.report.requests;
    if (!request.hit) ++acc.report.misses;
    acc.latencies.push_back(request.latency_ms());
  }
  for (const Instant& instant : dataset.instants) {
    if (instant.kind != InstantKind::kShed) continue;
    if (instant.track.pid != kRequestsPid) continue;
    const std::string_view name = arg_value(instant.args, "tenant");
    if (name.empty()) continue;
    TenantAccumulator& acc = tenant_accs[std::string(name)];
    ++acc.report.requests;
    ++acc.report.misses;
  }
  for (auto& [name, acc] : tenant_accs) {
    acc.report.tenant = name;
    acc.report.latency_ms = latency_quantiles(std::move(acc.latencies));
    report.tenants.push_back(std::move(acc.report));
  }

  // Forecast accuracy: one kForecastBin instant per (app, closed bin) with
  // the prediction standing at the bin's start and the realized count.
  // Reactive traces carry none, leaving the section empty.
  std::map<std::uint32_t, ForecastReport> forecast_accs;
  for (const Instant& instant : dataset.instants) {
    if (instant.kind != InstantKind::kForecastBin) continue;
    const auto app =
        static_cast<std::uint32_t>(arg_double(instant.args, "app", 0.0));
    const double predicted = arg_double(instant.args, "predicted", 0.0);
    const double realized = arg_double(instant.args, "realized", 0.0);
    ForecastReport& f = forecast_accs[app];
    f.app = app;
    ++f.bins;
    const double err = std::abs(predicted - realized);
    f.mae += err;  // sums for now, divided below
    const double denom = std::abs(predicted) + std::abs(realized);
    if (denom > 0.0) f.smape += 2.0 * err / denom;
    f.predicted_mean += predicted;
    f.realized_mean += realized;
  }
  for (auto& [app_id, f] : forecast_accs) {
    const auto n = static_cast<double>(f.bins);
    f.mae /= n;
    f.smape /= n;
    f.predicted_mean /= n;
    f.realized_mean /= n;
    report.forecast.push_back(f);
  }
  return report;
}

void write_report_json(const AttributionReport& report, std::ostream& out) {
  out << "{\"schema\":\"esg.attribution.v1\"";
  out << ",\"requests\":" << report.requests;
  out << ",\"misses\":" << report.misses;
  out << ",\"hit_rate\":" << fmt(report.hit_rate());
  out << ",\"unreconstructed\":" << report.unreconstructed;
  out << ",\"latency_ms\":";
  write_quantiles(report.latency_ms, out);
  out << ",\"components_mean_ms\":";
  write_components(report.components_mean_ms, out);
  out << ",\"miss_causes\":";
  write_causes(report.miss_causes, out);
  out << ",\"drift\":";
  write_histogram(report.drift_histogram, out);
  out << ",\"apps\":[";
  for (std::size_t i = 0; i < report.apps.size(); ++i) {
    const AppReport& app = report.apps[i];
    if (i > 0) out << ",";
    out << "{\"app\":" << app.app;
    out << ",\"requests\":" << app.requests;
    out << ",\"misses\":" << app.misses;
    out << ",\"hit_rate\":" << fmt(app.hit_rate());
    out << ",\"slo_ms\":" << fmt(app.slo_ms);
    out << ",\"uniform_budget_requests\":" << app.uniform_budget_requests;
    out << ",\"latency_ms\":";
    write_quantiles(app.latency_ms, out);
    out << ",\"components_mean_ms\":";
    write_components(app.components_mean_ms, out);
    out << ",\"miss_causes\":";
    write_causes(app.miss_causes, out);
    out << ",\"drift\":";
    write_histogram(app.drift_histogram, out);
    out << ",\"stages\":[";
    for (std::size_t s = 0; s < app.stages.size(); ++s) {
      const StageReport& stage = app.stages[s];
      if (s > 0) out << ",";
      out << "{\"stage\":" << stage.stage;
      out << ",\"samples\":" << stage.samples;
      out << ",\"planned_ms_mean\":" << fmt(stage.planned_ms_mean);
      out << ",\"actual_ms_mean\":" << fmt(stage.actual_ms_mean);
      out << ",\"drift_ms_mean\":" << fmt(stage.drift_ms_mean);
      out << ",\"drift_ms_p95\":" << fmt(stage.drift_ms_p95);
      out << ",\"components_mean_ms\":";
      write_components(stage.components_mean_ms, out);
      out << "}";
    }
    out << "]}";
  }
  out << "],\"replans\":[";
  for (std::size_t i = 0; i < report.replans.size(); ++i) {
    const ReplanReport& r = report.replans[i];
    if (i > 0) out << ",";
    out << "{\"app\":" << r.app << ",\"stage\":" << r.stage
        << ",\"count\":" << r.count
        << ",\"budget_ms_mean\":" << fmt(r.budget_ms_mean)
        << ",\"budget_ms_min\":" << fmt(r.budget_ms_min)
        << ",\"budget_ms_max\":" << fmt(r.budget_ms_max) << "}";
  }
  out << "]";
  // Emitted only on multi-tenant traces: tenant-free reports must stay
  // byte-identical to builds that predate the tenant subsystem.
  if (!report.tenants.empty()) {
    out << ",\"tenants\":[";
    for (std::size_t i = 0; i < report.tenants.size(); ++i) {
      const TenantReport& t = report.tenants[i];
      if (i > 0) out << ",";
      out << "{\"tenant\":\"" << json::escape(t.tenant) << "\"";
      out << ",\"requests\":" << t.requests;
      out << ",\"misses\":" << t.misses;
      out << ",\"hit_rate\":" << fmt(t.hit_rate());
      out << ",\"latency_ms\":";
      write_quantiles(t.latency_ms, out);
      out << "}";
    }
    out << "]";
  }
  // Same omission for forecast-free traces: reactive reports stay
  // byte-identical to pre-forecast builds.
  if (!report.forecast.empty()) {
    out << ",\"forecast_accuracy\":[";
    for (std::size_t i = 0; i < report.forecast.size(); ++i) {
      const ForecastReport& f = report.forecast[i];
      if (i > 0) out << ",";
      out << "{\"app\":" << f.app;
      out << ",\"bins\":" << f.bins;
      out << ",\"mae\":" << fmt(f.mae);
      out << ",\"smape\":" << fmt(f.smape);
      out << ",\"predicted_mean\":" << fmt(f.predicted_mean);
      out << ",\"realized_mean\":" << fmt(f.realized_mean);
      out << "}";
    }
    out << "]";
  }
  out << "}\n";
}

std::string render_report_table(const AttributionReport& report) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "attribution: %zu requests, %zu misses (hit rate %.1f%%), "
                "%zu unreconstructed\n",
                report.requests, report.misses, 100.0 * report.hit_rate(),
                report.unreconstructed);
  out += line;

  AsciiTable apps({"app", "requests", "hit rate", "p50 (ms)", "p95 (ms)",
                   "p99 (ms)", "top miss cause"});
  for (const AppReport& app : report.apps) {
    std::string top_cause = "-";
    std::size_t top_count = 0;
    for (const auto& [cause, count] : app.miss_causes) {
      if (count > top_count) {
        top_cause = cause + " x" + std::to_string(count);
        top_count = count;
      }
    }
    apps.add_row({std::to_string(app.app), std::to_string(app.requests),
                  AsciiTable::pct(app.hit_rate()),
                  AsciiTable::num(app.latency_ms.p50, 1),
                  AsciiTable::num(app.latency_ms.p95, 1),
                  AsciiTable::num(app.latency_ms.p99, 1), top_cause});
  }
  out += apps.render();

  AsciiTable stages({"app", "stage", "samples", "planned (ms)", "actual (ms)",
                     "drift (ms)", "queue (ms)", "cold (ms)", "exec (ms)"});
  for (const AppReport& app : report.apps) {
    for (const StageReport& stage : app.stages) {
      stages.add_row({std::to_string(app.app), std::to_string(stage.stage),
                      std::to_string(stage.samples),
                      AsciiTable::num(stage.planned_ms_mean, 1),
                      AsciiTable::num(stage.actual_ms_mean, 1),
                      AsciiTable::num(stage.drift_ms_mean, 1),
                      AsciiTable::num(stage.components_mean_ms.queueing, 1),
                      AsciiTable::num(stage.components_mean_ms.cold_start, 1),
                      AsciiTable::num(stage.components_mean_ms.exec, 1)});
    }
  }
  out += "\n";
  out += stages.render();

  if (!report.tenants.empty()) {
    AsciiTable tenants({"tenant", "requests", "hit rate", "p50 (ms)",
                        "p95 (ms)", "p99 (ms)"});
    for (const TenantReport& t : report.tenants) {
      tenants.add_row({t.tenant, std::to_string(t.requests),
                       AsciiTable::pct(t.hit_rate()),
                       AsciiTable::num(t.latency_ms.p50, 1),
                       AsciiTable::num(t.latency_ms.p95, 1),
                       AsciiTable::num(t.latency_ms.p99, 1)});
    }
    out += "\n";
    out += tenants.render();
  }

  if (!report.forecast.empty()) {
    AsciiTable forecast({"app", "bins", "MAE (req/bin)", "sMAPE",
                         "predicted mean", "realized mean"});
    for (const ForecastReport& f : report.forecast) {
      forecast.add_row({std::to_string(f.app), std::to_string(f.bins),
                        AsciiTable::num(f.mae, 3), AsciiTable::num(f.smape, 3),
                        AsciiTable::num(f.predicted_mean, 2),
                        AsciiTable::num(f.realized_mean, 2)});
    }
    out += "\n";
    out += forecast.render();
  }
  return out;
}

}  // namespace esg::obs::analysis
