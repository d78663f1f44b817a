// The event set the analysis passes run over, plus the sink that builds it
// in-process during a traced run.
//
// Determinism contract: every timestamp in a TraceDataset is *quantised to
// trace precision* — the exact double that results from serializing the time
// through ChromeTraceSink's fixed-precision formatter (std::to_chars, fixed
// precision 3) and parsing it back (std::from_chars, which common/json
// falls back from to strtod only for a token out of range; no fixed-3
// spelling of a finite double is).
// The offline path (trace_reader over a saved trace.json) performs that
// round-trip physically; AnalysisSink performs it arithmetically on the live
// events. Both paths therefore hand the passes bit-identical inputs, which
// is what makes `esg_sim --report-out` and `esg_report trace.json` emit
// byte-identical reports for the same run.
#pragma once

#include <string_view>
#include <vector>

#include "obs/sink.hpp"
#include "obs/trace_event.hpp"

namespace esg::obs::analysis {

/// Rounds a simulated-ms time to trace precision: the value a reader obtains
/// from the microsecond field of the serialized trace, which the sinks spell
/// with std::to_chars in fixed precision 3 (as "%.3f" would) and the reader
/// reads with std::from_chars.
[[nodiscard]] TimeMs quantize_ms(TimeMs ms);

struct TraceDataset {
  std::vector<Span> spans;
  std::vector<Instant> instants;
};

/// Finds an arg by key; empty view when absent.
[[nodiscard]] std::string_view arg_value(const ArgList& args,
                                         std::string_view key);
/// Parses an arg as double; `fallback` when absent or malformed.
[[nodiscard]] double arg_double(const ArgList& args, std::string_view key,
                                double fallback = 0.0);

/// TraceSink that captures spans and instants with quantised timestamps.
/// Spans store start = q(start) and end = q(start) + q(duration), mirroring
/// the ts/dur fields of the Chrome trace format. Counters are dropped — the
/// analysis passes only consume spans and instants.
class AnalysisSink final : public TraceSink {
 public:
  void on_span(const Span& span) override;
  void on_instant(const Instant& instant) override;
  void on_counter(const CounterSample&) override {}

  [[nodiscard]] const TraceDataset& dataset() const { return dataset_; }

 private:
  TraceDataset dataset_;
};

}  // namespace esg::obs::analysis
