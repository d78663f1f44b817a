#include "perf/report.hpp"

#include <string>

#include "common/build_info.hpp"
#include "common/json.hpp"
#include "common/table.hpp"

namespace esg::perf {

namespace {

double events_per_sec(const RunInfo& run, const Counters& counters) {
  if (run.wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(counters.events_fired) / run.wall_seconds;
}

double invocations_per_sec(const RunInfo& run) {
  if (run.wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(run.invocations) / run.wall_seconds;
}

std::string ns_human(double ns) {
  char buf[32];
  if (ns >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  }
  return buf;
}

}  // namespace

void write_perf_json(std::FILE* out, const RunInfo& run, const Counters& counters,
                     const LayerTimes& layers) {
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"esg.perf.v2\",\n");
  std::fprintf(out, "  \"meta\": %s,\n", common::meta_json_object().c_str());
  std::fprintf(out,
               "  \"run\": {\"scheduler\": \"%s\", \"seed\": %llu, "
               "\"simulated_ms\": %.3f, \"wall_seconds\": %.6f, "
               "\"invocations\": %llu, \"events_per_sec\": %.3f, "
               "\"invocations_per_sec\": %.3f},\n",
               json::escape(run.scheduler).c_str(),
               static_cast<unsigned long long>(run.seed), run.simulated_ms,
               run.wall_seconds,
               static_cast<unsigned long long>(run.invocations),
               events_per_sec(run, counters), invocations_per_sec(run));
  std::fprintf(out, "  \"counters\": {");
  bool first = true;
  for (const CounterField& f : kCounterFields) {
    std::fprintf(out, "%s\"%s\": %llu", first ? "" : ", ", f.name,
                 static_cast<unsigned long long>(counters.*f.member));
    first = false;
  }
  std::fprintf(out, "},\n");
  std::fprintf(out, "  \"layers\": {\"window_ns\": %llu, \"self_ns\": {",
               static_cast<unsigned long long>(layers.window_ns));
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    std::fprintf(out, "%s\"%s\": %llu", i == 0 ? "" : ", ", kLayerNames[i],
                 static_cast<unsigned long long>(layers.self_ns[i]));
  }
  std::fprintf(out, "}}\n}\n");
}

void write_perf_summary(std::FILE* out, const RunInfo& run,
                        const Counters& counters, const LayerTimes& layers) {
  std::fprintf(out, "perf: scheduler=%s seed=%llu simulated=%.0fms wall=%.3fs\n",
               run.scheduler.c_str(), static_cast<unsigned long long>(run.seed),
               run.simulated_ms, run.wall_seconds);
  std::fprintf(out, "perf: %.0f events/s, %.0f invocations/s\n",
               events_per_sec(run, counters), invocations_per_sec(run));

  AsciiTable counter_table({"counter", "value"});
  for (const CounterField& f : kCounterFields) {
    counter_table.add_row(
        {f.name, std::to_string(counters.*f.member)});
  }
  std::fprintf(out, "%s", counter_table.render().c_str());

  const double window = static_cast<double>(layers.window_ns);
  AsciiTable layer_table({"layer", "self", "share"});
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const double self = static_cast<double>(layers.self_ns[i]);
    layer_table.add_row({kLayerNames[i], ns_human(self),
                         AsciiTable::pct(window > 0.0 ? self / window : 0.0)});
  }
  layer_table.add_row({"window", ns_human(window), AsciiTable::pct(1.0)});
  std::fprintf(out, "%s", layer_table.render().c_str());
}

}  // namespace esg::perf
