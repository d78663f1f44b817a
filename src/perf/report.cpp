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
                     const std::vector<Profiler::ScopeStats>& profile) {
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"esg.perf.v1\",\n");
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
  std::fprintf(out, "  \"profile\": [");
  for (std::size_t i = 0; i < profile.size(); ++i) {
    const Profiler::ScopeStats& s = profile[i];
    std::fprintf(out,
                 "%s\n    {\"path\": \"%s\", \"depth\": %d, \"calls\": %llu, "
                 "\"total_ns\": %llu, \"self_ns\": %llu, \"min_ns\": %llu, "
                 "\"max_ns\": %llu, \"mean_ns\": %.1f, \"p99_ns\": %.1f}",
                 i == 0 ? "" : ",", json::escape(s.path).c_str(), s.depth,
                 static_cast<unsigned long long>(s.calls),
                 static_cast<unsigned long long>(s.total_ns),
                 static_cast<unsigned long long>(s.self_ns),
                 static_cast<unsigned long long>(s.min_ns),
                 static_cast<unsigned long long>(s.max_ns), s.mean_ns, s.p99_ns);
  }
  std::fprintf(out, "%s]\n", profile.empty() ? "" : "\n  ");
  std::fprintf(out, "}\n");
}

void write_perf_summary(std::FILE* out, const RunInfo& run,
                        const Counters& counters,
                        const std::vector<Profiler::ScopeStats>& profile) {
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

  if (profile.empty()) {
    std::fprintf(out,
                 "perf: no scoped timings (build with -DESG_PROFILE=ON to "
                 "enable ESG_PROF_SCOPE)\n");
    return;
  }
  AsciiTable scope_table(
      {"scope", "calls", "total", "self", "mean", "p99"});
  for (const Profiler::ScopeStats& s : profile) {
    std::string label(static_cast<std::size_t>(s.depth) * 2, ' ');
    const auto slash = s.path.rfind('/');
    label += slash == std::string::npos ? s.path : s.path.substr(slash + 1);
    scope_table.add_row({label, std::to_string(s.calls),
                         ns_human(static_cast<double>(s.total_ns)),
                         ns_human(static_cast<double>(s.self_ns)),
                         ns_human(s.mean_ns), ns_human(s.p99_ns)});
  }
  std::fprintf(out, "%s", scope_table.render().c_str());
}

}  // namespace esg::perf
