// esg_report — offline SLO-attribution over a saved Chrome/Perfetto trace.
// Rebuilds every request's critical path, decomposes its latency, classifies
// SLO misses by dominant cause, and prints the per-app rollup. With
// --json-out the report is byte-identical to what `esg_sim --report-out`
// wrote for the same run (the determinism contract of obs/analysis).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/build_info.hpp"
#include "obs/analysis/attribution.hpp"
#include "obs/analysis/trace_reader.hpp"

namespace {

const char kUsage[] =
    R"(esg_report — SLO-budget attribution over a saved trace

usage: esg_report <trace.json> [--json-out <path>] [--json]

  <trace.json>       Chrome-trace-event file from esg_sim --trace-out
  --json-out <path>  also write the attribution report as JSON (byte-identical
                     to esg_sim --report-out for the same run)
  --json             print the JSON report to stdout instead of the table
  --version          print one provenance line (commit, compiler, build)
  --build-info       print the full build/host provenance record
  --help

exit codes: 0 success; 2 configuration error (bad flag, missing/malformed
trace); 1 runtime failure (unwritable output, internal error).
)";

/// The whole CLI; main() adds the stdout check.
int run(int argc, char** argv) {
  using namespace esg::obs::analysis;
  std::string trace_path;
  std::string json_out;
  bool json_stdout = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    }
    if (arg == "--version") {
      std::printf("%s\n", esg::common::version_line("esg_report").c_str());
      return 0;
    }
    if (arg == "--build-info") {
      esg::common::write_build_info(stdout, "esg_report");
      return 0;
    }
    if (arg == "--json") {
      json_stdout = true;
    } else if (arg == "--json-out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "esg_report: missing value for --json-out\n%s",
                     kUsage);
        return 2;
      }
      json_out = argv[++i];
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "esg_report: unknown flag '%s'\n%s", argv[i],
                   kUsage);
      return 2;
    } else if (trace_path.empty()) {
      trace_path = std::string(arg);
    } else {
      std::fprintf(stderr, "esg_report: unexpected argument '%s'\n%s", argv[i],
                   kUsage);
      return 2;
    }
  }
  if (trace_path.empty()) {
    std::fprintf(stderr, "esg_report: no trace file given\n%s", kUsage);
    return 2;
  }

  try {
    const TraceDataset dataset = read_chrome_trace_file(trace_path);
    const AttributionReport report = build_report(dataset);
    if (!json_out.empty()) {
      std::ofstream file(json_out);
      if (!file) {
        throw std::runtime_error("cannot open '" + json_out + "'");
      }
      write_report_json(report, file);
      if (!file.flush()) {
        throw std::runtime_error("cannot write '" + json_out + "'");
      }
      std::printf("report written to %s\n", json_out.c_str());
    }
    if (json_stdout) {
      write_report_json(report, std::cout);
    } else {
      std::printf("%s", render_report_table(report).c_str());
    }
  } catch (const std::invalid_argument& e) {
    // An unreadable or malformed trace file is an input error, distinct from
    // failures while producing the report.
    std::fprintf(stderr, "esg_report: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esg_report: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int rc = run(argc, argv);
  // The table or the --json report is the result: a full disk or a closed
  // pipe that swallowed it fails the run instead of exiting 0.
  std::cout.flush();
  if (!std::cout || std::fflush(stdout) != 0 || std::ferror(stdout) != 0) {
    std::fprintf(stderr, "esg_report: cannot write stdout\n");
    return rc == 0 ? 1 : rc;
  }
  return rc;
}
