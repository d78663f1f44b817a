// google-benchmark microbenchmarks of the scheduling core: ESG_1Q at several
// group sizes and K values, Orion's search per built-in app, Aquatope's
// offline training, dominator-tree construction, SLO distribution,
// placement, profile lookup, raw simulator event throughput, the three
// trace sinks and the offline trace reader.
//
// The custom main also writes the rows as a BENCH_*.json-shaped baseline
// (argv[1] after benchmark flags, default BENCH_micro_core.json) so
// esg_perfdiff can compare microbench runs the same way it compares the
// macro baselines.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "baselines/aquatope.hpp"
#include "baselines/orion.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/dominator.hpp"
#include "core/esg_1q.hpp"
#include "core/slo_distribution.hpp"
#include "obs/analysis/dataset.hpp"
#include "obs/analysis/trace_reader.hpp"
#include "obs/sinks.hpp"
#include "platform/scheduler.hpp"
#include "profile/function_spec.hpp"
#include "sim/simulator.hpp"
#include "workload/applications.hpp"

namespace {

using namespace esg;

const profile::ProfileSet& profiles() {
  static const profile::ProfileSet set = profile::ProfileSet::builtin();
  return set;
}

const std::vector<workload::AppDag>& apps() {
  static const std::vector<workload::AppDag> a = workload::builtin_applications();
  return a;
}

std::vector<core::StageInput> stages_of(std::size_t group) {
  static const profile::Function fns[] = {
      profile::Function::kDeblur, profile::Function::kSuperResolution,
      profile::Function::kBackgroundRemoval, profile::Function::kSegmentation};
  std::vector<core::StageInput> stages;
  for (std::size_t i = 0; i < group; ++i) {
    stages.push_back(core::StageInput{&profiles().table(profile::id_of(fns[i])), 0});
  }
  return stages;
}

void BM_Esg1q(benchmark::State& state) {
  const auto stages = stages_of(static_cast<std::size_t>(state.range(0)));
  core::SearchOptions opts;
  opts.k = static_cast<std::size_t>(state.range(1));
  TimeMs base = 0.0;
  for (const auto& s : stages) base += s.table->min_config_entry().latency_ms;
  std::size_t nodes = 0;
  for (auto _ : state) {
    const auto result = core::esg_1q(stages, 1.1 * base, opts);
    nodes += result.stats.nodes_expanded;
    benchmark::DoNotOptimize(result.config_pq.data());
  }
  state.counters["nodes/iter"] =
      static_cast<double>(nodes) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_Esg1q)
    ->Args({1, 5})
    ->Args({2, 5})
    ->Args({3, 1})
    ->Args({3, 5})
    ->Args({3, 80})
    ->Unit(benchmark::kMicrosecond);

/// One entry-stage search of a built-in app at the moderate SLO, on a fresh
/// scheduler at default Options (the 150,000-expansion cut-off).
void BM_OrionSearch(benchmark::State& state, std::size_t app_index) {
  const workload::AppDag& app = apps()[app_index];
  platform::QueueView view;
  view.app = app.id();
  view.stage = app.entry();
  view.function = app.node(view.stage).function;
  view.dag = &app;
  view.profiles = &profiles();
  view.queue_length = 64;  // never short of a planned batch
  view.slo_ms =
      workload::slo_latency_ms(app, profiles(), workload::SloSetting::kModerate);
  std::size_t expansions = 0;
  for (auto _ : state) {
    baselines::OrionScheduler orion(apps(), profiles());
    const platform::PlanResult plan = orion.plan(view);
    expansions += orion.total_expansions();
    benchmark::DoNotOptimize(plan.candidates.data());
  }
  state.counters["expansions/iter"] =
      static_cast<double>(expansions) / static_cast<double>(state.iterations());
}
BENCHMARK_CAPTURE(BM_OrionSearch, image_classification, 0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OrionSearch, depth_recognition, 1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OrionSearch, background_elimination, 2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OrionSearch, expanded_image_classification, 3)
    ->Unit(benchmark::kMillisecond);

/// Aquatope's offline training of one app at default Options: 100
/// bootstrap samples, then 50 rounds of a GP fit and a 128-point EI pool.
void BM_AquatopeTrain(benchmark::State& state) {
  const std::vector<workload::AppDag> app = {apps()[0]};
  for (auto _ : state) {
    baselines::AquatopeScheduler aquatope(
        app, profiles(), workload::SloSetting::kModerate, RngFactory(7));
    benchmark::DoNotOptimize(aquatope.learned(app[0].id()).data());
  }
}
BENCHMARK(BM_AquatopeTrain)->Unit(benchmark::kMillisecond);

void BM_DominatorTree(benchmark::State& state) {
  const auto& app = apps()[3];  // 5-stage pipeline
  for (auto _ : state) {
    core::DominatorTree dom(app);
    benchmark::DoNotOptimize(dom.idom(app.size() - 1));
  }
}
BENCHMARK(BM_DominatorTree)->Unit(benchmark::kMicrosecond);

void BM_SloDistribution(benchmark::State& state) {
  const auto& app = apps()[3];
  for (auto _ : state) {
    core::SloDistribution dist(app, profiles(), 3);
    benchmark::DoNotOptimize(dist.groups().data());
  }
}
BENCHMARK(BM_SloDistribution)->Unit(benchmark::kMicrosecond);

void BM_LocalityPlacement(benchmark::State& state) {
  cluster::Cluster cluster(16);
  platform::PlacementContext ctx;
  ctx.function = FunctionId(0);
  ctx.config = profile::Config{4, 2, 2};
  ctx.home_invoker = InvokerId(5);
  for (auto _ : state) {
    auto chosen = platform::locality_first_place(ctx, cluster);
    benchmark::DoNotOptimize(chosen);
  }
}
BENCHMARK(BM_LocalityPlacement);

void BM_ProfileLookup(benchmark::State& state) {
  const auto& table = profiles().table(FunctionId(0));
  const profile::Config c{4, 2, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(&table.at(c));
  }
}
BENCHMARK(BM_ProfileLookup);

void BM_SimulatorThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_in(static_cast<double>(i % 17), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMicrosecond);

/// A fixed record stream shaped like a traced run: per request a request
/// span, a queue-wait and a stage span per stage, a dispatch instant and
/// four counter samples, at times with fractions of a microsecond.
struct RecordStream {
  std::vector<obs::Span> spans;
  std::vector<obs::Instant> instants;
  std::vector<obs::CounterSample> counters;

  [[nodiscard]] std::int64_t records() const {
    return static_cast<std::int64_t>(spans.size() + instants.size() +
                                     counters.size());
  }
};

const RecordStream& record_stream() {
  static const RecordStream stream = [] {
    RecordStream s;
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> ms(0.1, 50.0);
    double now = 0.0;
    for (std::uint32_t req = 0; req < 2000; ++req) {
      now += ms(rng);
      const obs::Track track = obs::request_track(RequestId(req));
      double t = now;
      for (int stage = 0; stage < 3; ++stage) {
        const double wait = ms(rng);
        const double run = ms(rng);
        const std::string index = std::to_string(stage);
        s.spans.push_back({obs::SpanKind::kQueueWait, "wait " + index, track,
                           t, t + wait, {{"stage", index}}});
        s.spans.push_back({obs::SpanKind::kStage, "stage " + index, track,
                           t + wait, t + wait + run,
                           {{"stage", index}, {"batch", "4"}}});
        t += wait + run;
      }
      s.spans.push_back({obs::SpanKind::kRequest,
                         "req " + std::to_string(req) + " (app 2)", track, now,
                         t, {{"app", "2"}, {"slo_ms", "1161.600000"}}});
      s.instants.push_back({obs::InstantKind::kDispatch, "dispatch",
                            obs::controller_track(), now,
                            {{"batch", "4"}, {"vcpus", "2"}, {"vgpus", "1"}}});
      for (const char* gauge :
           {"used_vcpus", "used_vgpus", "warm_containers", "queued_jobs"}) {
        s.counters.push_back({gauge, obs::invoker_track(InvokerId(req % 8), 0),
                              now, ms(rng)});
      }
    }
    return s;
  }();
  return stream;
}

void feed(obs::TraceSink& sink) {
  const RecordStream& s = record_stream();
  for (const obs::Span& span : s.spans) sink.on_span(span);
  for (const obs::Instant& instant : s.instants) sink.on_instant(instant);
  for (const obs::CounterSample& sample : s.counters) sink.on_counter(sample);
}

/// Takes a sink's bytes and drops them, so the rows time formatting only.
class DroppingBuf final : public std::streambuf {
 public:
  std::int64_t bytes = 0;

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += n;
    return n;
  }
  int_type overflow(int_type c) override {
    ++bytes;
    return c;
  }
};

void BM_ChromeTraceSink(benchmark::State& state) {
  for (auto _ : state) {
    DroppingBuf buf;
    std::ostream out(&buf);
    {
      obs::ChromeTraceSink sink(out);
      feed(sink);
    }
    benchmark::DoNotOptimize(buf.bytes);
  }
  state.SetItemsProcessed(state.iterations() * record_stream().records());
}
BENCHMARK(BM_ChromeTraceSink)->Unit(benchmark::kMillisecond);

void BM_JsonlStatsSink(benchmark::State& state) {
  for (auto _ : state) {
    DroppingBuf buf;
    std::ostream out(&buf);
    obs::JsonlStatsSink sink(out);
    feed(sink);
    benchmark::DoNotOptimize(buf.bytes);
  }
  state.SetItemsProcessed(state.iterations() * record_stream().records());
}
BENCHMARK(BM_JsonlStatsSink)->Unit(benchmark::kMillisecond);

void BM_AnalysisSink(benchmark::State& state) {
  for (auto _ : state) {
    obs::analysis::AnalysisSink sink;
    feed(sink);
    benchmark::DoNotOptimize(sink.dataset().spans.data());
  }
  state.SetItemsProcessed(state.iterations() * record_stream().records());
}
BENCHMARK(BM_AnalysisSink)->Unit(benchmark::kMillisecond);

/// esg_report's read of the stream's trace.json, from a file it writes
/// once into the temporary directory.
void BM_ReadChromeTrace(benchmark::State& state) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "esg_bench_micro_trace.json";
  {
    obs::ChromeTraceSink sink(std::make_unique<std::ofstream>(path));
    feed(sink);
  }
  for (auto _ : state) {
    const obs::analysis::TraceDataset dataset =
        obs::analysis::read_chrome_trace_file(path.string());
    benchmark::DoNotOptimize(dataset.spans.data());
  }
  state.SetItemsProcessed(state.iterations() * record_stream().records());
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(std::filesystem::file_size(path)));
  std::filesystem::remove(path);
}
BENCHMARK(BM_ReadChromeTrace)->Unit(benchmark::kMillisecond);

/// Console reporter that additionally collects per-benchmark rows for the
/// JSON baseline. Aggregate and errored runs are skipped; times are
/// normalised to ns/iteration so the JSON is unit-stable regardless of each
/// benchmark's display unit.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    std::int64_t iterations = 0;
    double real_ns_per_iter = 0.0;
    double cpu_ns_per_iter = 0.0;
    std::vector<std::pair<std::string, double>> counters;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Row row;
      row.name = run.benchmark_name();
      row.iterations = run.iterations;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      row.real_ns_per_iter = run.real_accumulated_time * 1e9 / iters;
      row.cpu_ns_per_iter = run.cpu_accumulated_time * 1e9 / iters;
      for (const auto& [name, counter] : run.counters) {
        row.counters.emplace_back(name, counter.value);
      }
      rows.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Row> rows;
};

std::string json_counter_name(const std::string& name) {
  std::string out;
  for (const char c : name) {
    out += (c == '"' || c == '\\') ? '_' : c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  std::string out_path = "BENCH_micro_core.json";
  if (argc > 1 && argv[1][0] != '-') {
    out_path = argv[1];
    --argc;
    for (int i = 1; i < argc; ++i) argv[i] = argv[i + 1];
  }
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (reporter.rows.empty()) return 0;

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  esg::bench::write_meta_json(out);
  std::fprintf(out, "  \"bench\": \"micro_core\",\n  \"rows\": [\n");
  for (std::size_t i = 0; i < reporter.rows.size(); ++i) {
    const auto& row = reporter.rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"iterations\": %lld, "
                 "\"real_ns_per_iter\": %.1f, \"cpu_ns_per_iter\": %.1f",
                 json_counter_name(row.name).c_str(),
                 static_cast<long long>(row.iterations), row.real_ns_per_iter,
                 row.cpu_ns_per_iter);
    for (const auto& [name, value] : row.counters) {
      std::fprintf(out, ", \"%s\": %.4f", json_counter_name(name).c_str(),
                   value);
    }
    std::fprintf(out, "}%s\n", i + 1 < reporter.rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  if (!esg::bench::close_json(out, out_path)) return 1;
  std::printf("wrote %s (%zu rows)\n", out_path.c_str(), reporter.rows.size());
  return 0;
}
