// Versioned production-workload trace schema (esg.trace.v1).
//
// A workload trace is the Azure-Functions-shaped input the paper derives its
// load settings from: per-application invocation counts in fixed time bins.
// Two on-disk encodings are supported, both line-oriented and streamable:
//
//   CSV    header `esg-trace,v1,bin_ms=<ms>,apps=<n>[,tenants=<t>]` then
//          `bin,app,count` rows sorted by (bin, app); `#` comments and blank
//          lines allowed. A header declaring tenants=<t> (t >= 2) switches
//          the row format to `bin,app,count,tenant`, sorted by
//          (bin, app, tenant).
//   JSONL  header `{"schema":"esg.trace.v1","bin_ms":<ms>,"apps":<n>}` then
//          one `{"bin":B,"app":A,"count":C}` object per line; a header with
//          `"tenants":<t>` requires a `"tenant"` key on every row.
//
// The tenant column is optional and defaults to a single tenant: traces
// written before multi-tenancy parse (and replay) exactly as before, and
// single-tenant traces write byte-identical files.
//
// Each JSONL line is one common/json document, so JSON string escapes are
// decoded and repeated keys rejected. The parsers check every field through
// common/spec_lex, the lexer the spec grammars share: NaN/inf/negative
// counts, fractional or out-of-range bin/app indices, unsorted or duplicate
// (bin, app) rows, unknown apps (>= the header's app count) and malformed
// framing all raise std::invalid_argument with a message naming the
// offending line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace esg::trace {

inline constexpr std::string_view kTraceSchemaV1 = "esg.trace.v1";

/// Hard cap on bin indices: a trace is dense in bins at replay time, so an
/// absurd index (typo, corruption) must not allocate gigabytes.
inline constexpr std::size_t kMaxTraceBins = 1u << 20;

/// Hard cap on the header's app count (the builtin workload has 4 apps; the
/// cap only guards against corrupted headers).
inline constexpr std::size_t kMaxTraceApps = 1u << 16;

/// Hard cap on the header's tenant count.
inline constexpr std::size_t kMaxTraceTenants = 1u << 10;

/// Expected invocation count of one app in one time bin. Counts are doubles:
/// integer in recorded traces, fractional once rate-scaled or when a trace
/// stores Poisson intensities directly.
struct TraceBinRow {
  std::size_t bin = 0;
  std::uint32_t app = 0;
  double count = 0.0;
  std::uint32_t tenant = 0;  ///< always 0 on single-tenant traces
};

struct WorkloadTrace {
  TimeMs bin_ms = 0.0;        ///< bin width in trace (unscaled) time
  std::size_t app_count = 0;  ///< apps 0..app_count-1 may appear in rows
  std::size_t tenant_count = 1;   ///< 1 = no tenant column on disk
  std::vector<TraceBinRow> rows;  ///< sorted by (bin, app, tenant), unique

  /// Number of bins spanned: max bin index + 1 (0 for an empty trace).
  [[nodiscard]] std::size_t bin_count() const;
  /// Trace duration in unscaled time: bin_count() * bin_ms.
  [[nodiscard]] TimeMs duration_ms() const;
  /// Sum of all counts.
  [[nodiscard]] double total_count() const;
  /// Dense per-bin count totals (size bin_count()).
  [[nodiscard]] std::vector<double> bin_totals() const;
};

/// Structural validation (also applied by the parsers): positive finite
/// bin_ms, app count within caps, rows sorted/unique/in-range with finite
/// non-negative counts. Throws std::invalid_argument.
void validate(const WorkloadTrace& trace);

[[nodiscard]] WorkloadTrace parse_trace_csv(std::istream& in);
[[nodiscard]] WorkloadTrace parse_trace_jsonl(std::istream& in);

/// Loads a trace file; the encoding is sniffed from the first significant
/// character ('{' = JSONL, anything else = CSV).
[[nodiscard]] WorkloadTrace load_workload_trace(const std::string& path);

void write_trace_csv(const WorkloadTrace& trace, std::ostream& out);
void write_trace_jsonl(const WorkloadTrace& trace, std::ostream& out);

}  // namespace esg::trace
