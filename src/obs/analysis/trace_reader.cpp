#include "obs/analysis/trace_reader.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

namespace esg::obs::analysis {

namespace {

using json::Value;

std::string_view text_of(const Value* v) {
  return v == nullptr ? std::string_view{} : std::string_view(v->text);
}

/// Absent and non-numeric fields read as 0, as they always have.
double number_of(const Value* v) {
  return v != nullptr && v->kind == Value::Kind::kNumber ? v->number : 0.0;
}

/// A pid or tid: absent reads as 0; present, it must be a uint32.
std::uint32_t id_of(const json::Reader& in, const Value& event,
                    std::string_view key) {
  const Value* v = event.find(key);
  if (v == nullptr) return 0;
  if (v->kind != Value::Kind::kNumber || v->number < 0.0 ||
      v->number > 4294967295.0 || std::trunc(v->number) != v->number) {
    in.fail("event " + std::string(key) + " is not a uint32");
  }
  return static_cast<std::uint32_t>(v->number);
}

ArgList args_of(const Value& event) {
  ArgList out;
  const Value* args = event.find("args");
  if (args == nullptr || args->kind != Value::Kind::kObject) return out;
  for (const auto& [key, val] : args->members) {
    // Arg values are serialized as strings by our sink; tolerate numbers
    // from hand-edited traces by keeping their source text.
    out.emplace_back(key, val.text);
  }
  return out;
}

/// Keeps a complete ("X") or instant ("i") event whose category this build
/// knows; metadata ("M") and counter ("C") events carry nothing the passes
/// consume.
void add_event(const json::Reader& in, const Value& event,
               TraceDataset& out) {
  const std::string_view ph = text_of(event.find("ph"));
  const std::string_view cat = text_of(event.find("cat"));
  if (ph == "X") {
    const auto kind = span_kind_from_string(cat);
    if (!kind.has_value()) return;
    Span span;
    span.kind = *kind;
    span.name = std::string(text_of(event.find("name")));
    span.track = Track{id_of(in, event, "pid"), id_of(in, event, "tid")};
    span.start_ms = number_of(event.find("ts")) / 1000.0;
    span.end_ms = span.start_ms + number_of(event.find("dur")) / 1000.0;
    span.args = args_of(event);
    out.spans.push_back(std::move(span));
  } else if (ph == "i") {
    const auto kind = instant_kind_from_string(cat);
    if (!kind.has_value()) return;
    Instant instant;
    instant.kind = *kind;
    instant.name = std::string(text_of(event.find("name")));
    instant.track = Track{id_of(in, event, "pid"), id_of(in, event, "tid")};
    instant.at_ms = number_of(event.find("ts")) / 1000.0;
    instant.args = args_of(event);
    out.instants.push_back(std::move(instant));
  }
}

/// Walks the event array at the cursor, holding one event at a time.
void read_events(json::Reader& in, TraceDataset& out) {
  in.enter('[');
  while (in.next()) add_event(in, in.value(), out);
}

}  // namespace

TraceDataset read_chrome_trace(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = std::move(buffer).str();

  json::Reader reader(text, "trace_reader");
  TraceDataset dataset;
  bool found = false;
  if (reader.peek() == '[') {
    read_events(reader, dataset);
    found = true;
  } else if (reader.peek() == '{') {
    // The object-wrapped flavour of the format; other members are checked
    // and dropped.
    reader.enter('{');
    while (reader.next()) {
      if (reader.key() == "traceEvents" && reader.peek() == '[') {
        read_events(reader, dataset);
        found = true;
      } else {
        (void)reader.value();
      }
    }
  }
  if (!found) reader.fail("not a trace-event array");
  reader.finish();
  return dataset;
}

TraceDataset read_chrome_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("trace_reader: cannot open '" + path + "'");
  }
  return read_chrome_trace(in);
}

}  // namespace esg::obs::analysis
