// Comparison engine behind tools/esg_perfdiff: diff two perf/BENCH JSON
// artefacts (esg.perf.v2 documents or BENCH_*.json baselines) and flag
// throughput regressions past a threshold.
//
// Semantics: both documents are flattened to numeric leaves keyed by a
// stable path ("run.events_per_sec", "rows[scheduler=esg,rate_scale=10]
// .events_per_sec", ...). Array elements are keyed by their string-valued
// members plus rate_scale/seed when present, falling back to the element
// index, so reordered rows still line up. Only *_per_sec metrics (higher is
// better) gate the regression verdict; every other shared numeric leaf —
// counters, wall times — is reported informationally when it moved more
// than the threshold.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace esg::perf {

struct DiffOptions {
  /// Allowed fractional drop on gating metrics before a regression is
  /// declared (0.10 = 10% worse than baseline fails).
  double threshold = 0.10;
  /// Report the comparison but never declare regressions (CI smoke mode on
  /// hosts that differ from the baseline's).
  bool report_only = false;
  /// Metric-path suffixes that gate the verdict. The default gates only
  /// throughput; benches append quality fields (e.g. "attainment") with
  /// --gate-suffix. A suffix is higher-is-better unless prefixed with '-'
  /// (e.g. "-cold_start_rate": a rise past the threshold regresses).
  std::vector<std::string> gate_suffixes = {"_per_sec"};
};

struct DiffLine {
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  double delta_frac = 0.0;  ///< (current - baseline) / baseline
  bool gating = false;      ///< a *_per_sec metric (counts toward the verdict)
  bool regression = false;  ///< gating and slower than -threshold
};

struct DiffResult {
  std::vector<DiffLine> lines;       ///< shared numeric leaves, baseline order
  std::vector<std::string> notes;    ///< metrics present on only one side
  bool regressed = false;            ///< any line.regression (pre report_only)
};

/// Diffs two parsed-from-text documents. Throws std::invalid_argument on
/// malformed JSON, a key repeated within one object included (the message
/// names the side, line and byte).
[[nodiscard]] DiffResult diff_json(const std::string& baseline_text,
                                   const std::string& current_text,
                                   const DiffOptions& options);

/// Reads both files and diffs them. Throws std::invalid_argument when a
/// file is unreadable or malformed.
[[nodiscard]] DiffResult diff_files(const std::string& baseline_path,
                                    const std::string& current_path,
                                    const DiffOptions& options);

/// Human-readable report: one line per changed metric, notes, verdict.
void print_diff(std::FILE* out, const DiffResult& result,
                const DiffOptions& options);

}  // namespace esg::perf
