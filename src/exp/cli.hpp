// Command-line front end for the experiment harness: parses `--key value`
// style flags into a Scenario, so arbitrary runs can be driven without
// writing C++ (used by tools/esg_sim).
#pragma once

#include <optional>
#include <span>
#include <string>

#include "exp/scenario.hpp"

namespace esg::exp {

struct CliOptions {
  Scenario scenario;
  std::vector<std::uint64_t> seeds{42};
  /// Directory to write completions/tasks/summary CSVs into (empty = none).
  std::string csv_dir;
  /// --sweep: run the (scheduler × seed) cross product on the work-stealing
  /// pool instead of the single-scheduler replica path.
  bool sweep = false;
  /// --jobs: worker threads for --sweep and the multi-seed replica runner
  /// (0 = hardware concurrency). Results are byte-identical for any value.
  unsigned jobs = 0;
  /// --sweep-out: deterministic sweep-result JSON path (empty = none).
  std::string sweep_out;
  /// Schedulers named by --scheduler. A comma list is only valid with
  /// --sweep; front() always mirrors scenario.scheduler.
  std::vector<SchedulerKind> schedulers{SchedulerKind::kEsg};
  bool help = false;
  /// Print the per-seed self-profiling summary (counters + layer table) after
  /// each run. Forces sequential seed execution like the traced path.
  bool perf_summary = false;
  /// --version / --build-info: print provenance and exit 0.
  bool version = false;
  bool build_info = false;
};

/// Parses argv (excluding argv[0]). Throws std::invalid_argument with a
/// descriptive message on unknown flags or malformed values.
[[nodiscard]] CliOptions parse_cli(std::span<const char* const> args);

/// The --help text.
[[nodiscard]] std::string cli_usage();

}  // namespace esg::exp
