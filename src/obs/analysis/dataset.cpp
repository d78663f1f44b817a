#include "obs/analysis/dataset.hpp"

#include <charconv>
#include <cstdlib>

#include "obs/trace_numbers.hpp"

namespace esg::obs::analysis {

TimeMs quantize_ms(TimeMs ms) {
  // Mirror ChromeTraceSink exactly: times serialize as fixed-precision-3
  // microseconds, so the reader's double is from_chars of that text. Doing
  // the same format/parse round-trip here guarantees bit-equality with the
  // offline path (plain rounding arithmetic would not, in the cases where
  // the decimal string is not exactly representable). A finite double's
  // spelling never reads out of range, so no strtod fallback is needed.
  char buf[kFixed3Chars];
  const char* end = format_fixed3(buf, ms * 1000.0);
  double us = 0.0;
  (void)std::from_chars(buf, end, us);
  return us / 1000.0;
}

std::string_view arg_value(const ArgList& args, std::string_view key) {
  for (const auto& [k, v] : args) {
    if (k == key) return v;
  }
  return {};
}

double arg_double(const ArgList& args, std::string_view key, double fallback) {
  const std::string_view v = arg_value(args, key);
  if (v.empty()) return fallback;
  // Arg values are NUL-terminated std::strings, so data() is safe for strtod.
  char* end = nullptr;
  const double parsed = std::strtod(v.data(), &end);
  return end == v.data() ? fallback : parsed;
}

void AnalysisSink::on_span(const Span& span) {
  Span& q = dataset_.spans.emplace_back(span);
  q.start_ms = quantize_ms(span.start_ms);
  q.end_ms = q.start_ms + quantize_ms(span.end_ms - span.start_ms);
}

void AnalysisSink::on_instant(const Instant& instant) {
  Instant& q = dataset_.instants.emplace_back(instant);
  q.at_ms = quantize_ms(instant.at_ms);
}

}  // namespace esg::obs::analysis
