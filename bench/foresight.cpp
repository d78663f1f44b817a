// Foresight sweep: every scheduler driven by the same bursty Azure-shaped
// trace (two repeated diurnal days, fresh burst draws each day), reactive
// vs each --forecast predictor (DESIGN.md §14). The forecaster feeds three
// consumers — proactive prewarm targets, the ESG planner's batching defer
// look-ahead, and (not exercised here) the elastic forecast policy — so the
// sweep quantifies the value-of-information ladder the paper's pipeline
// argument implies: reactive < ewma < seasonal < oracle. The trace is
// regenerated in-process (deterministic seed), so the bench needs no input
// file.
//
// Besides the table, the binary writes a machine-readable JSON baseline
// (argv[1], default BENCH_foresight.json) with attainment, cold-start rate
// and cost per (scheduler, predictor) cell; diff it with
//   esg_perfdiff --gate-suffix attainment --gate-suffix -cold_start_rate
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "forecast/forecast_spec.hpp"
#include "trace/azure_shape.hpp"
#include "workload/applications.hpp"

namespace {

using namespace esg;

struct Predictor {
  const char* name;
  std::string spec;  // parse_forecast_spec grammar; empty = reactive
};

}  // namespace

int main(int argc, char** argv) {
  // The trace below spreads the horizon over two days of 500 ms bins; each
  // day needs at least two of them for a diurnal shape and a seasonal
  // period, and a horizon under 1 s would leave it none.
  constexpr TimeMs kMinHorizonMs = 2'000.0;
  if (bench::horizon_ms() < kMinHorizonMs) {
    std::fprintf(stderr,
                 "bench_foresight: ESG_BENCH_HORIZON_MS must be at least %.0f "
                 "(two days of two 500 ms bins), got %g\n",
                 kMinHorizonMs, bench::horizon_ms());
    return 2;
  }
  bench::print_banner(
      "Foresight: reactive vs forecast-fed proactive scheduling",
      "acting lead-ms ahead of predicted ramps (prewarm targets + defer "
      "look-ahead) converts cold starts into warm hits; the oracle bounds "
      "the value of a perfect predictor");

  const exp::SettingCombo combo = exp::paper_combos()[1];  // moderate-normal

  // Two repeated diurnal days across the bench horizon so the seasonal
  // predictor sees day one and forecasts day two; strong bursts make the
  // cold-start penalty of chasing demand visible.
  trace::AzureShapeOptions shape;
  shape.apps = workload::kBuiltinAppCount;
  shape.bin_ms = 500.0;
  shape.days = 2;
  shape.bins = static_cast<std::size_t>(bench::horizon_ms() /
                                        (shape.bin_ms * 2.0));
  // Calm base load (half the paper's "normal" rate) with strong bursts: the
  // fleet keeps up between episodes, so the cells differ mainly in how each
  // predictor handles the ramps — the effect the bench isolates.
  shape.mean_rate_per_bin = shape.bin_ms / 53.6;
  shape.burst_factor = 8.0;
  shape.burst_count = 2;
  const TimeMs day_ms = static_cast<double>(shape.bins) * shape.bin_ms;
  const auto workload_trace = std::make_shared<const trace::WorkloadTrace>(
      trace::generate_azure_shaped(shape,
                                   RngFactory(11).stream("azure-shape")));
  std::printf("trace: %zu days x %zu bins x %.0f ms, %.0f invocations, "
              "setting %s\n\n",
              shape.days, shape.bins, workload_trace->bin_ms,
              workload_trace->total_count(), exp::combo_name(combo).c_str());

  char seasonal[96];
  std::snprintf(seasonal, sizeof(seasonal),
                "seasonal:period-ms=%.0f,bins=%zu;lead-ms=3000,bin-ms=500",
                day_ms, shape.bins);
  const Predictor predictors[] = {
      {"reactive", ""},
      {"ewma", "ewma:alpha=0.5;lead-ms=3000,bin-ms=500"},
      {"seasonal", seasonal},
      {"oracle", "oracle;lead-ms=3000,bin-ms=500"},
  };

  std::vector<exp::Scenario> grid;
  for (const auto kind : exp::all_schedulers()) {
    for (const Predictor& p : predictors) {
      exp::Scenario s = bench::make_scenario(kind, combo);
      s.arrivals.mode = exp::ArrivalMode::kTrace;
      s.arrivals.trace = workload_trace;
      s.forecast = forecast::parse_forecast_spec(p.spec);
      grid.push_back(s);
    }
  }
  const auto results = bench::run_grid(grid);

  constexpr std::size_t kPredictors = std::size(predictors);
  AsciiTable table({"scheduler", "predictor", "hit rate", "cold starts",
                    "cost ($)", "mean wait (ms)", "sMAPE"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::size_t cold = 0, scored = 0;
    double smape = 0.0;
    for (const auto& run : results[i].replicas) {
      cold += run.metrics.cold_starts;
      for (const auto& acc : run.forecast_accuracy) {
        if (acc.bins == 0) continue;
        smape += acc.smape;
        ++scored;
      }
    }
    const auto& agg = results[i].aggregate;
    table.add_row(
        {std::string(exp::to_string(grid[i].scheduler)),
         predictors[i % kPredictors].name, AsciiTable::pct(agg.slo_hit_rate),
         std::to_string(cold), AsciiTable::num(agg.total_cost, 4),
         AsciiTable::num(agg.mean_job_wait_ms, 1),
         scored > 0 ? AsciiTable::num(smape / static_cast<double>(scored), 3)
                    : "-"});
  }
  std::printf("%s\n", table.render().c_str());

  // Machine-readable baseline for trend tracking across PRs.
  const char* out_path = argc > 1 ? argv[1] : "BENCH_foresight.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::write_meta_json(out);
  std::fprintf(out,
               "  \"bench\": \"foresight\",\n"
               "  \"setting\": \"%s\",\n"
               "  \"horizon_ms\": %.0f,\n  \"seeds\": %zu,\n  \"rows\": [\n",
               exp::combo_name(combo).c_str(), bench::horizon_ms(),
               bench::seeds().size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::size_t cold = 0;
    for (const auto& run : results[i].replicas) {
      cold += run.metrics.cold_starts;
    }
    const auto& agg = results[i].aggregate;
    // aggregate() sums requests across replicas, like `cold` above.
    const double cold_rate =
        agg.requests > 0
            ? static_cast<double>(cold) / static_cast<double>(agg.requests)
            : 0.0;
    std::fprintf(
        out,
        "    {\"scheduler\": \"%s\", \"predictor\": \"%s\", "
        "\"attainment\": %.6f, \"cold_start_rate\": %.6f, "
        "\"total_cost\": %.6f, \"requests\": %zu, \"cold_starts\": %zu, "
        "\"mean_wait_ms\": %.3f}%s\n",
        std::string(exp::to_string(grid[i].scheduler)).c_str(),
        predictors[i % kPredictors].name, agg.slo_hit_rate, cold_rate,
        agg.total_cost, agg.requests, cold, agg.mean_job_wait_ms,
        i + 1 < grid.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  if (!bench::close_json(out, out_path)) return 1;
  std::printf("wrote %s (%zu rows)\n", out_path, grid.size());
  return 0;
}
