#include "obs/sinks.hpp"

#include <algorithm>
#include <cstdio>

#include "common/json.hpp"

namespace esg::obs {

namespace {

/// Fixed-precision microsecond timestamp (Chrome traces use µs).
std::string format_us(TimeMs ms) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ms * 1000.0);
  return buf;
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string render_args(const ArgList& args) {
  std::string out = "{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += json_escape(args[i].first);
    out += "\":\"";
    out += json_escape(args[i].second);
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

std::string json_escape(std::string_view raw) { return json::escape(raw); }

std::size_t MemorySink::count(SpanKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [kind](const Span& s) { return s.kind == kind; }));
}

std::size_t MemorySink::count(InstantKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(instants_.begin(), instants_.end(),
                    [kind](const Instant& e) { return e.kind == kind; }));
}

ChromeTraceSink::ChromeTraceSink(std::ostream& out) : out_(out) {
  out_ << "[\n";
}

ChromeTraceSink::ChromeTraceSink(std::unique_ptr<std::ostream> out)
    : owned_(std::move(out)), out_(*owned_) {
  out_ << "[\n";
}

ChromeTraceSink::~ChromeTraceSink() { flush(); }

void ChromeTraceSink::emit(const std::string& json) {
  if (closed_) return;
  if (!first_) out_ << ",\n";
  first_ = false;
  out_ << json;
}

void ChromeTraceSink::on_span(const Span& span) {
  std::string line = "{\"name\":\"" + json_escape(span.name) + "\",\"cat\":\"" +
                     std::string(to_string(span.kind)) +
                     "\",\"ph\":\"X\",\"ts\":" + format_us(span.start_ms) +
                     ",\"dur\":" + format_us(span.end_ms - span.start_ms) +
                     ",\"pid\":" + std::to_string(span.track.pid) +
                     ",\"tid\":" + std::to_string(span.track.tid) +
                     ",\"args\":" + render_args(span.args) + "}";
  emit(line);
}

void ChromeTraceSink::on_instant(const Instant& instant) {
  std::string line =
      "{\"name\":\"" + json_escape(instant.name) + "\",\"cat\":\"" +
      std::string(to_string(instant.kind)) +
      "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" + format_us(instant.at_ms) +
      ",\"pid\":" + std::to_string(instant.track.pid) +
      ",\"tid\":" + std::to_string(instant.track.tid) +
      ",\"args\":" + render_args(instant.args) + "}";
  emit(line);
}

void ChromeTraceSink::on_counter(const CounterSample& sample) {
  std::string line = "{\"name\":\"" + json_escape(sample.name) +
                     "\",\"ph\":\"C\",\"ts\":" + format_us(sample.at_ms) +
                     ",\"pid\":" + std::to_string(sample.track.pid) +
                     ",\"tid\":0,\"args\":{\"value\":" +
                     format_value(sample.value) + "}}";
  emit(line);
}

void ChromeTraceSink::on_process_name(std::uint32_t pid,
                                      std::string_view name) {
  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
       std::to_string(pid) + ",\"args\":{\"name\":\"" + json_escape(name) +
       "\"}}");
}

void ChromeTraceSink::on_thread_name(Track track, std::string_view name) {
  emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
       std::to_string(track.pid) + ",\"tid\":" + std::to_string(track.tid) +
       ",\"args\":{\"name\":\"" + json_escape(name) + "\"}}");
}

void ChromeTraceSink::flush() {
  if (closed_) return;
  closed_ = true;
  out_ << "\n]\n";
  out_.flush();
}

JsonlStatsSink::JsonlStatsSink(std::ostream& out) : out_(out) {}

JsonlStatsSink::JsonlStatsSink(std::unique_ptr<std::ostream> out)
    : owned_(std::move(out)), out_(*owned_) {}

void JsonlStatsSink::on_counter(const CounterSample& sample) {
  char ts[64];
  std::snprintf(ts, sizeof(ts), "%.3f", sample.at_ms);
  char value[64];
  std::snprintf(value, sizeof(value), "%.6g", sample.value);
  out_ << "{\"ts_ms\":" << ts << ",\"pid\":" << sample.track.pid
       << ",\"name\":\"" << json_escape(sample.name) << "\",\"value\":" << value
       << "}\n";
}

}  // namespace esg::obs
