#include "trace/workload_trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "common/spec_lex.hpp"

namespace esg::trace {

namespace {

constexpr std::string_view kGrammar = "workload-trace";

using Kind = json::Value::Kind;

/// Index field `key` of a row, checked against its exclusive bound.
std::size_t index_field(const lex::Where& at, std::string_view key,
                        std::string_view v, std::size_t max_exclusive) {
  return lex::Field{key, v, at}.integer(0, max_exclusive - 1);
}

/// Invocation count of a row: finite and non-negative.
double count_field(const lex::Where& at, std::string_view v) {
  return lex::Field{"count", v, at}.number(lex::kNonNegative);
}

/// Appends a data row, enforcing (bin, app, tenant) strictly-increasing
/// order (which also rejects duplicates).
void push_row(WorkloadTrace& trace, const lex::Where& at, std::size_t bin,
              std::size_t app, double count, std::size_t tenant) {
  if (app >= trace.app_count) {
    at.fail("unknown app " + std::to_string(app) + " (trace declares apps=" +
            std::to_string(trace.app_count) + ")");
  }
  if (tenant >= trace.tenant_count) {
    at.fail("unknown tenant " + std::to_string(tenant) +
            " (trace declares tenants=" + std::to_string(trace.tenant_count) +
            ")");
  }
  if (!trace.rows.empty()) {
    const TraceBinRow& prev = trace.rows.back();
    if (bin < prev.bin ||
        (bin == prev.bin &&
         (app < prev.app || (app == prev.app && tenant <= prev.tenant)))) {
      at.fail("rows must be sorted by (bin, app, tenant) without duplicates");
    }
  }
  trace.rows.push_back(TraceBinRow{bin, static_cast<std::uint32_t>(app), count,
                                   static_cast<std::uint32_t>(tenant)});
}

/// Splits `line` on commas into at most `max_fields` pieces; returns count.
std::size_t split_csv(std::string_view line, std::string_view* fields,
                      std::size_t max_fields) {
  std::size_t n = 0;
  std::size_t pos = 0;
  while (n < max_fields) {
    const std::size_t comma = line.find(',', pos);
    if (comma == std::string_view::npos) {
      fields[n++] = lex::trim(line.substr(pos));
      return n;
    }
    fields[n++] = lex::trim(line.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return max_fields + 1;  // too many fields
}

/// `key=value` field with a required key.
lex::Field keyed(const lex::Where& at, std::string_view field,
                 std::string_view key) {
  const auto [name, value] = lex::split_first(field, '=');
  if (name != key || !value) {
    at.fail("expected '" + std::string(key) + "=<value>', got '" +
            std::string(field) + "'");
  }
  return lex::Field{key, lex::trim(*value), at};
}

void parse_csv_header(WorkloadTrace& trace, const lex::Where& at) {
  std::string_view f[5];
  const std::size_t n = split_csv(at.clause, f, 5);
  if ((n != 4 && n != 5) || f[0] != "esg-trace" || f[1] != "v1") {
    at.fail("expected header 'esg-trace,v1,bin_ms=<ms>,apps=<n>"
            "[,tenants=<t>]'");
  }
  trace.bin_ms = keyed(at, f[2], "bin_ms").number(lex::kPositive);
  trace.app_count = keyed(at, f[3], "apps").integer(1, kMaxTraceApps - 1);
  if (n == 5) {
    // A single tenant omits the field.
    trace.tenant_count =
        keyed(at, f[4], "tenants").integer(2, kMaxTraceTenants - 1);
  }
}

/// One JSONL line, which must be a JSON object.
json::Value parse_object(const lex::Where& at) {
  json::Value line;
  try {
    line = json::parse(at.clause, "malformed JSON");
  } catch (const std::invalid_argument& e) {
    at.fail(e.what());
  }
  if (line.kind != Kind::kObject) at.fail("expected a JSON object");
  return line;
}

/// The value of `key`, which must be present and of the given kind.
lex::Field json_get(const lex::Where& at, const json::Value& row,
                    std::string_view key, Kind kind) {
  const json::Value* v = row.find(key);
  if (v == nullptr) at.fail("missing key '" + std::string(key) + "'");
  if (v->kind != kind) {
    at.fail("key '" + std::string(key) + "' has the wrong type");
  }
  return lex::Field{key, v->text, at};
}

void reject_unknown_keys(const lex::Where& at, const json::Value& row,
                         std::initializer_list<std::string_view> known) {
  for (const json::Member& m : row.members) {
    if (std::find(known.begin(), known.end(), m.first) == known.end()) {
      at.fail("unknown key '" + m.first + "'");
    }
  }
}

/// Shortest representation that round-trips through strtod; integral values
/// print as plain integers.
std::string fmt_double(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

std::size_t WorkloadTrace::bin_count() const {
  return rows.empty() ? 0 : rows.back().bin + 1;
}

TimeMs WorkloadTrace::duration_ms() const {
  return static_cast<double>(bin_count()) * bin_ms;
}

double WorkloadTrace::total_count() const {
  double total = 0.0;
  for (const TraceBinRow& row : rows) total += row.count;
  return total;
}

std::vector<double> WorkloadTrace::bin_totals() const {
  std::vector<double> totals(bin_count(), 0.0);
  for (const TraceBinRow& row : rows) totals[row.bin] += row.count;
  return totals;
}

void validate(const WorkloadTrace& trace) {
  const auto fail = [](const std::string& why) {
    throw std::invalid_argument("workload-trace: " + why);
  };
  if (!std::isfinite(trace.bin_ms) || trace.bin_ms <= 0.0) {
    fail("bin_ms must be positive and finite");
  }
  if (trace.app_count == 0 || trace.app_count > kMaxTraceApps) {
    fail("app count out of range");
  }
  if (trace.tenant_count == 0 || trace.tenant_count > kMaxTraceTenants) {
    fail("tenant count out of range");
  }
  const TraceBinRow* prev = nullptr;
  for (const TraceBinRow& row : trace.rows) {
    if (row.bin >= kMaxTraceBins) fail("bin index out of range");
    if (row.app >= trace.app_count) {
      fail("unknown app " + std::to_string(row.app));
    }
    if (row.tenant >= trace.tenant_count) {
      fail("unknown tenant " + std::to_string(row.tenant));
    }
    if (!std::isfinite(row.count) || row.count < 0.0) {
      fail("counts must be finite and non-negative");
    }
    if (prev != nullptr &&
        (row.bin < prev->bin ||
         (row.bin == prev->bin &&
          (row.app < prev->app ||
           (row.app == prev->app && row.tenant <= prev->tenant))))) {
      fail("rows must be sorted by (bin, app, tenant) without duplicates");
    }
    prev = &row;
  }
}

WorkloadTrace parse_trace_csv(std::istream& in) {
  WorkloadTrace trace;
  bool saw_header = false;
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    const lex::Where at{kGrammar, lex::trim(raw), ++line_no};
    if (at.clause.empty() || at.clause.front() == '#') continue;
    if (!saw_header) {
      parse_csv_header(trace, at);
      saw_header = true;
      continue;
    }
    const bool tenanted = trace.tenant_count > 1;
    std::string_view f[4];
    if (split_csv(at.clause, f, 4) != (tenanted ? 4u : 3u)) {
      at.fail(tenanted ? "expected 'bin,app,count,tenant'"
                       : "expected 'bin,app,count'");
    }
    const std::size_t bin = index_field(at, "bin", f[0], kMaxTraceBins);
    const std::size_t app = index_field(at, "app", f[1], kMaxTraceApps);
    const double n = count_field(at, f[2]);
    const std::size_t tenant =
        tenanted ? index_field(at, "tenant", f[3], kMaxTraceTenants) : 0;
    push_row(trace, at, bin, app, n, tenant);
  }
  if (!saw_header) {
    throw std::invalid_argument(
        "workload-trace: missing 'esg-trace,v1,...' header");
  }
  validate(trace);
  return trace;
}

WorkloadTrace parse_trace_jsonl(std::istream& in) {
  WorkloadTrace trace;
  bool saw_header = false;
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    const lex::Where at{kGrammar, lex::trim(raw), ++line_no};
    if (at.clause.empty() || at.clause.front() == '#') continue;
    const json::Value row = parse_object(at);
    if (!saw_header) {
      reject_unknown_keys(at, row, {"schema", "bin_ms", "apps", "tenants"});
      const std::string_view schema =
          json_get(at, row, "schema", Kind::kString).value;
      if (schema != kTraceSchemaV1) {
        at.fail("unsupported schema '" + std::string(schema) + "'");
      }
      trace.bin_ms =
          json_get(at, row, "bin_ms", Kind::kNumber).number(lex::kPositive);
      trace.app_count = json_get(at, row, "apps", Kind::kNumber)
                            .integer(1, kMaxTraceApps - 1);
      // A single tenant omits the key.
      if (row.find("tenants") != nullptr) {
        trace.tenant_count = json_get(at, row, "tenants", Kind::kNumber)
                                 .integer(2, kMaxTraceTenants - 1);
      }
      saw_header = true;
      continue;
    }
    const bool tenanted = trace.tenant_count > 1;
    if (tenanted) {
      reject_unknown_keys(at, row, {"bin", "app", "count", "tenant"});
    } else {
      reject_unknown_keys(at, row, {"bin", "app", "count"});
    }
    const auto value = [&](std::string_view key) {
      return json_get(at, row, key, Kind::kNumber).value;
    };
    const std::size_t bin =
        index_field(at, "bin", value("bin"), kMaxTraceBins);
    const std::size_t app =
        index_field(at, "app", value("app"), kMaxTraceApps);
    const double n = count_field(at, value("count"));
    const std::size_t tenant =
        tenanted ? index_field(at, "tenant", value("tenant"), kMaxTraceTenants)
                 : 0;
    push_row(trace, at, bin, app, n, tenant);
  }
  if (!saw_header) {
    throw std::invalid_argument(
        "workload-trace: missing JSONL schema header line");
  }
  validate(trace);
  return trace;
}

WorkloadTrace load_workload_trace(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::invalid_argument("workload-trace file '" + path +
                                "' is unreadable");
  }
  // Sniff the encoding: the JSONL header line starts with '{'.
  const int first = file.peek();
  if (first == '{') return parse_trace_jsonl(file);
  return parse_trace_csv(file);
}

void write_trace_csv(const WorkloadTrace& trace, std::ostream& out) {
  validate(trace);
  const bool tenanted = trace.tenant_count > 1;
  out << "# ESG workload trace: per-app invocation counts per time bin.\n";
  out << "esg-trace,v1,bin_ms=" << fmt_double(trace.bin_ms)
      << ",apps=" << trace.app_count;
  if (tenanted) out << ",tenants=" << trace.tenant_count;
  out << "\n";
  for (const TraceBinRow& row : trace.rows) {
    out << row.bin << ',' << row.app << ',' << fmt_double(row.count);
    if (tenanted) out << ',' << row.tenant;
    out << "\n";
  }
}

void write_trace_jsonl(const WorkloadTrace& trace, std::ostream& out) {
  validate(trace);
  const bool tenanted = trace.tenant_count > 1;
  out << "{\"schema\":\"" << kTraceSchemaV1
      << "\",\"bin_ms\":" << fmt_double(trace.bin_ms)
      << ",\"apps\":" << trace.app_count;
  if (tenanted) out << ",\"tenants\":" << trace.tenant_count;
  out << "}\n";
  for (const TraceBinRow& row : trace.rows) {
    out << "{\"bin\":" << row.bin << ",\"app\":" << row.app
        << ",\"count\":" << fmt_double(row.count);
    if (tenanted) out << ",\"tenant\":" << row.tenant;
    out << "}\n";
  }
}

}  // namespace esg::trace
