// The built-in sinks:
//  - MemorySink: buffers everything for tests and in-process analysis.
//  - ChromeTraceSink: streams Chrome-trace-event JSON ("trace.json") that
//    loads directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
//  - JsonlStatsSink: one JSON object per line for counter time series,
//    trivially ingestible by pandas/jq.
//
// Times are written in fixed precision 3 and counter values in general
// precision 6 through std::to_chars (obs/trace_numbers.hpp), which spells
// them exactly as printf's "%.3f" and "%.6g" do, so two identical runs
// produce byte-identical files (the determinism tests rely on this). Each
// sink builds a line in one reused buffer and writes it once.
#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/sink.hpp"

namespace esg::obs {

class MemorySink final : public TraceSink {
 public:
  void on_span(const Span& span) override { spans_.push_back(span); }
  void on_instant(const Instant& instant) override {
    instants_.push_back(instant);
  }
  void on_counter(const CounterSample& sample) override {
    counters_.push_back(sample);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<Instant>& instants() const {
    return instants_;
  }
  [[nodiscard]] const std::vector<CounterSample>& counters() const {
    return counters_;
  }

  [[nodiscard]] std::size_t count(SpanKind kind) const;
  [[nodiscard]] std::size_t count(InstantKind kind) const;

 private:
  std::vector<Span> spans_;
  std::vector<Instant> instants_;
  std::vector<CounterSample> counters_;
};

/// Streaming writer of the Chrome trace-event JSON-array format. Spans map
/// to complete ("X") events, instants to thread-scoped instant ("i") events,
/// counters to counter ("C") events and track names to metadata ("M")
/// events. Times are converted from simulated ms to trace µs.
class ChromeTraceSink final : public TraceSink {
 public:
  /// Writes to a caller-owned stream (kept alive past the last event).
  explicit ChromeTraceSink(std::ostream& out);
  /// Takes ownership of the stream (e.g. an std::ofstream).
  explicit ChromeTraceSink(std::unique_ptr<std::ostream> out);
  ~ChromeTraceSink() override;

  void on_span(const Span& span) override;
  void on_instant(const Instant& instant) override;
  void on_counter(const CounterSample& sample) override;
  void on_process_name(std::uint32_t pid, std::string_view name) override;
  void on_thread_name(Track track, std::string_view name) override;
  void flush() override;

 private:
  std::unique_ptr<std::ostream> owned_;
  std::ostream& out_;
  std::string line_;  ///< the event being written, behind its ",\n"
  bool first_ = true;
  bool closed_ = false;

  /// Starts line_ with the separator and the event's escaped name.
  void start_line(std::string_view name);
  void emit();
};

/// Counter samples as JSON Lines: {"ts_ms":..,"pid":..,"name":"..","value":..}
class JsonlStatsSink final : public TraceSink {
 public:
  explicit JsonlStatsSink(std::ostream& out);
  explicit JsonlStatsSink(std::unique_ptr<std::ostream> out);

  void on_span(const Span&) override {}
  void on_instant(const Instant&) override {}
  void on_counter(const CounterSample& sample) override;

 private:
  std::unique_ptr<std::ostream> owned_;
  std::ostream& out_;
  std::string line_;
};

/// Escapes a string for embedding inside a JSON string literal.
[[nodiscard]] std::string json_escape(std::string_view raw);

}  // namespace esg::obs
