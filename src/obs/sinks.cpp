#include "obs/sinks.hpp"

#include <algorithm>
#include <charconv>

#include "common/json.hpp"
#include "obs/trace_numbers.hpp"

namespace esg::obs {

namespace {

void append_fixed3(std::string& out, double v) {
  char buf[kFixed3Chars];
  out.append(buf, format_fixed3(buf, v));
}

void append_general6(std::string& out, double v) {
  char buf[kGeneral6Chars];
  out.append(buf, format_general6(buf, v));
}

void append_uint(std::string& out, std::uint32_t v) {
  char buf[10];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void append_args(std::string& out, const ArgList& args) {
  out += '{';
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    json::escape_to(out, args[i].first);
    out += "\":\"";
    json::escape_to(out, args[i].second);
    out += '"';
  }
  out += '}';
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

void ChromeTraceSink::start_line(std::string_view name) {
  line_.assign(",\n{\"name\":\"");
  json::escape_to(line_, name);
}

void ChromeTraceSink::emit() {
  if (closed_) return;
  // The first event goes without the ",\n" its line starts with.
  const std::size_t skip = first_ ? 2 : 0;
  first_ = false;
  out_.write(line_.data() + skip,
             static_cast<std::streamsize>(line_.size() - skip));
}

void ChromeTraceSink::on_span(const Span& span) {
  start_line(span.name);
  line_ += "\",\"cat\":\"";
  line_ += to_string(span.kind);
  line_ += "\",\"ph\":\"X\",\"ts\":";
  append_fixed3(line_, span.start_ms * 1000.0);
  line_ += ",\"dur\":";
  append_fixed3(line_, (span.end_ms - span.start_ms) * 1000.0);
  line_ += ",\"pid\":";
  append_uint(line_, span.track.pid);
  line_ += ",\"tid\":";
  append_uint(line_, span.track.tid);
  line_ += ",\"args\":";
  append_args(line_, span.args);
  line_ += '}';
  emit();
}

void ChromeTraceSink::on_instant(const Instant& instant) {
  start_line(instant.name);
  line_ += "\",\"cat\":\"";
  line_ += to_string(instant.kind);
  line_ += "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
  append_fixed3(line_, instant.at_ms * 1000.0);
  line_ += ",\"pid\":";
  append_uint(line_, instant.track.pid);
  line_ += ",\"tid\":";
  append_uint(line_, instant.track.tid);
  line_ += ",\"args\":";
  append_args(line_, instant.args);
  line_ += '}';
  emit();
}

void ChromeTraceSink::on_counter(const CounterSample& sample) {
  start_line(sample.name);
  line_ += "\",\"ph\":\"C\",\"ts\":";
  append_fixed3(line_, sample.at_ms * 1000.0);
  line_ += ",\"pid\":";
  append_uint(line_, sample.track.pid);
  line_ += ",\"tid\":0,\"args\":{\"value\":";
  append_general6(line_, sample.value);
  line_ += "}}";
  emit();
}

void ChromeTraceSink::on_process_name(std::uint32_t pid,
                                      std::string_view name) {
  start_line("process_name");
  line_ += "\",\"ph\":\"M\",\"pid\":";
  append_uint(line_, pid);
  line_ += ",\"args\":{\"name\":\"";
  json::escape_to(line_, name);
  line_ += "\"}}";
  emit();
}

void ChromeTraceSink::on_thread_name(Track track, std::string_view name) {
  start_line("thread_name");
  line_ += "\",\"ph\":\"M\",\"pid\":";
  append_uint(line_, track.pid);
  line_ += ",\"tid\":";
  append_uint(line_, track.tid);
  line_ += ",\"args\":{\"name\":\"";
  json::escape_to(line_, name);
  line_ += "\"}}";
  emit();
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
  line_.assign("{\"ts_ms\":");
  append_fixed3(line_, sample.at_ms);
  line_ += ",\"pid\":";
  append_uint(line_, sample.track.pid);
  line_ += ",\"name\":\"";
  json::escape_to(line_, sample.name);
  line_ += "\",\"value\":";
  append_general6(line_, sample.value);
  line_ += "}\n";
  out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

}  // namespace esg::obs
