// Core-throughput baseline: every scheduler (the paper's five plus
// MQFQ-Sticky) replaying the same Azure-shaped trace at rate-scale 1, 10 and
// 100, measured in simulator events/sec and invocations/sec of wall time.
// This is the self-profiling PR's anchor artefact (DESIGN.md §13): the
// checked-in BENCH_core.json gives esg_perfdiff a baseline so later PRs can
// see when they slow the hot path down (CI gates on events_per_sec).
//
// The cells run through exp::run_all (DESIGN.md §15), the runner behind
// `esg_sim --sweep`. argv[1] (when not a flag) overrides the output path,
// default BENCH_core.json.
//
// Environment knobs (the numeric ones are integers read through
// bench::env_integer, so a bad value exits 2):
//   ESG_BENCH_CORE_HORIZON_MS — arrival-window length per run (default
//     2000; deliberately shorter than ESG_BENCH_HORIZON_MS because the
//     rate-scale-100 rows replay ~100x the paper's arrival rate — over a
//     hundred thousand invocations even at this horizon).
//   ESG_BENCH_CORE_BUDGET_MS — wall-clock budget per row (default 0 =
//     unlimited). A row that exhausts it stops mid-run and is marked
//     "truncated": its throughput covers only the fired prefix, and
//     esg_perfdiff comparisons against an untruncated baseline are
//     meaningless. CI sets a generous budget purely as a hang backstop.
//   ESG_BENCH_CORE_JOBS — threads running rows (default 1: concurrent rows
//     steal each other's wall clock, so parallelism is for smoke runs, not
//     for numbers worth checking in).
//   ESG_BENCH_CORE_ENGINE — heap|calendar event-queue engine (default
//     calendar). Recorded in every row; informational for esg_perfdiff.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/spec_lex.hpp"
#include "common/table.hpp"
#include "exp/run_all.hpp"
#include "trace/azure_shape.hpp"
#include "workload/applications.hpp"

namespace {

using namespace esg;

constexpr double kRateScales[] = {1.0, 10.0, 100.0};
constexpr std::uint64_t kSeed = 42;

sim::EngineKind core_engine() {
  if (const char* env = std::getenv("ESG_BENCH_CORE_ENGINE")) {
    if (const auto engine = sim::parse_engine(env)) return *engine;
    std::fprintf(stderr, "unknown ESG_BENCH_CORE_ENGINE '%s' (heap|calendar)\n",
                 env);
    std::exit(2);
  }
  return sim::EngineKind::kCalendar;
}

/// All six scheduler kinds: the paper's five-way comparison plus the
/// multi-tenant MQFQ-Sticky strategy (not in all_schedulers() by design).
std::vector<exp::SchedulerKind> six_schedulers() {
  std::vector<exp::SchedulerKind> kinds(exp::all_schedulers().begin(),
                                        exp::all_schedulers().end());
  kinds.push_back(exp::SchedulerKind::kMqfqSticky);
  return kinds;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_core.json";
  if (argc > 1 && argv[1][0] != '-') out_path = argv[1];

  const auto kinds = six_schedulers();
  const auto horizon_ms = static_cast<double>(
      bench::env_integer("ESG_BENCH_CORE_HORIZON_MS", 1, lex::kMaxId, 2'000));
  const auto budget_ms = static_cast<double>(
      bench::env_integer("ESG_BENCH_CORE_BUDGET_MS", 0, lex::kMaxId, 0));
  const auto jobs = static_cast<unsigned>(
      bench::env_integer("ESG_BENCH_CORE_JOBS", 1, lex::kMaxId, 1));
  const sim::EngineKind engine = core_engine();

  // One diurnal cycle + bursts across the horizon; mean rate matches the
  // paper's "normal" setting (one arrival per ~26.8 ms at rate-scale 1).
  trace::AzureShapeOptions shape;
  shape.apps = workload::kBuiltinAppCount;
  shape.bin_ms = 500.0;
  // Round up so a sub-bin ESG_BENCH_CORE_HORIZON_MS still yields a trace.
  shape.bins = static_cast<std::size_t>(
      (horizon_ms + shape.bin_ms - 1.0) / shape.bin_ms);
  shape.mean_rate_per_bin = shape.bin_ms / 26.8;
  const auto workload_trace = std::make_shared<const trace::WorkloadTrace>(
      trace::generate_azure_shaped(shape, RngFactory(7).stream("azure-shape")));

  std::printf("=== Core throughput: events/sec per scheduler x rate-scale ===\n");
  std::printf("trace: %zu bins x %.0f ms, %.0f invocations at rate-scale 1; "
              "horizon %.0f ms, seed %llu, engine %s\n",
              workload_trace->bin_count(), workload_trace->bin_ms,
              workload_trace->total_count(), horizon_ms,
              static_cast<unsigned long long>(kSeed),
              sim::engine_name(engine));
  if (budget_ms > 0.0) {
    std::printf("budget: %.0f ms wall per row (rows that hit it are marked "
                "truncated)\n", budget_ms);
  }
  std::printf("\n");

  const exp::SettingCombo combo = exp::paper_combos()[1];  // moderate-normal
  std::vector<exp::Scenario> cells;
  for (const exp::SchedulerKind kind : kinds) {
    for (const double scale : kRateScales) {
      exp::Scenario& s = cells.emplace_back();
      s.scheduler = kind;
      s.slo = combo.slo;
      s.load = combo.load;
      s.horizon_ms = horizon_ms;
      s.warmup_ms = 0.0;  // throughput counts every event, not steady state
      s.seed = kSeed;
      s.engine = engine;
      s.wall_budget_ms = budget_ms;
      s.arrivals.mode = exp::ArrivalMode::kTrace;
      s.arrivals.trace = workload_trace;
      s.arrivals.replay.rate_scale = scale;
    }
  }

  const std::vector<exp::RunResult> results = exp::run_all(cells, jobs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].error) {
      std::fprintf(stderr, "cell core/%s/x%d failed: %s\n",
                   std::string(exp::to_string(kinds[i / 3])).c_str(),
                   static_cast<int>(kRateScales[i % 3]),
                   exp::error_message(results[i].error).c_str());
      return 1;
    }
  }

  AsciiTable table({"scheduler", "rate-scale", "invocations", "events",
                    "wall (s)", "events/s", "inv/s"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const exp::RunOutput& out = results[i].output;
    const double wall = out.wall_seconds > 0.0 ? out.wall_seconds : 1e-9;
    const double events = static_cast<double>(out.counters.events_fired);
    std::string scale = AsciiTable::num(kRateScales[i % 3], 0);
    if (out.truncated) scale += "*";
    table.add_row({std::string(exp::to_string(kinds[i / 3])), scale,
                   std::to_string(out.metrics.requests()),
                   std::to_string(out.counters.events_fired),
                   AsciiTable::num(out.wall_seconds, 3),
                   AsciiTable::num(events / wall, 0),
                   AsciiTable::num(
                       static_cast<double>(out.metrics.requests()) / wall, 0)});
  }
  std::printf("%s\n", table.render().c_str());
  if (budget_ms > 0.0) std::printf("* = truncated by the wall budget\n");

  // Machine-readable baseline: esg_perfdiff matches rows by scheduler +
  // rate_scale + seed ("engine" is deliberately NOT part of the identity)
  // and gates on the *_per_sec fields.
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::write_meta_json(out);
  std::fprintf(out,
               "  \"bench\": \"core_throughput\",\n"
               "  \"horizon_ms\": %.0f,\n  \"seed\": %llu,\n  \"rows\": [\n",
               horizon_ms, static_cast<unsigned long long>(kSeed));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const exp::RunOutput& row = results[i].output;
    const double wall = row.wall_seconds > 0.0 ? row.wall_seconds : 1e-9;
    std::fprintf(
        out,
        "    {\"scheduler\": \"%s\", \"rate_scale\": %g, \"seed\": %llu, "
        "\"engine\": \"%s\", \"truncated\": %s, "
        "\"invocations\": %zu, \"events\": %llu, \"wall_seconds\": %.4f, "
        "\"events_per_sec\": %.1f, \"invocations_per_sec\": %.1f}%s\n",
        std::string(exp::to_string(kinds[i / 3])).c_str(),
        kRateScales[i % 3], static_cast<unsigned long long>(kSeed),
        sim::engine_name(engine),
        row.truncated ? "true" : "false", row.metrics.requests(),
        static_cast<unsigned long long>(row.counters.events_fired),
        row.wall_seconds,
        static_cast<double>(row.counters.events_fired) / wall,
        static_cast<double>(row.metrics.requests()) / wall,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  if (!bench::close_json(out, out_path)) return 1;
  std::printf("wrote %s (%zu rows)\n", out_path.c_str(), results.size());
  return 0;
}
