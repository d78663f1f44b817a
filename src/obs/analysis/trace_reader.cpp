#include "obs/analysis/trace_reader.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "common/json.hpp"

namespace esg::obs::analysis {

namespace {

using json::Value;

/// A pid or tid member as read: absent, or its kind and number.
struct IdField {
  bool present = false;
  Value::Kind kind = Value::Kind::kNull;
  double number = 0.0;
};

/// The members of one event the passes use, read with the cursor into
/// storage kept from event to event. A string member keeps the Value's
/// text (a number's source text, empty for other values); ts and dur keep
/// their number only when they are numbers, so absent and non-numeric
/// fields read as 0, as they always have.
struct EventFields {
  std::string ph, cat, name;
  double ts = 0.0;
  double dur = 0.0;
  IdField pid, tid;
  ArgList args;          ///< the first `arg_count` entries are this event's
  std::size_t arg_count = 0;
  std::string text;      ///< scratch for members kept only as a number
};

double number_member(json::Reader& in, EventFields& f) {
  double number = 0.0;
  return in.scalar(f.text, number) == Value::Kind::kNumber ? number : 0.0;
}

IdField id_member(json::Reader& in, EventFields& f) {
  IdField id;
  id.present = true;
  id.kind = in.scalar(f.text, id.number);
  return id;
}

/// The args object's members, in document order. Arg values are written
/// as strings by our sink; a number from a hand-edited trace keeps its
/// source text, and any other value reads as empty.
void args_member(json::Reader& in, EventFields& f) {
  if (in.peek() != '{') {
    in.skip();
    return;
  }
  in.enter('{');
  while (in.next()) {
    if (f.arg_count == f.args.size()) f.args.emplace_back();
    auto& [key, value] = f.args[f.arg_count++];
    key = in.key();
    double number = 0.0;
    (void)in.scalar(value, number);
  }
}

/// Walks the event object at the cursor into `f`, checking every member.
void read_fields(json::Reader& in, EventFields& f) {
  f.ph.clear();
  f.cat.clear();
  f.name.clear();
  f.ts = 0.0;
  f.dur = 0.0;
  f.pid = {};
  f.tid = {};
  f.arg_count = 0;
  double number = 0.0;
  in.enter('{');
  while (in.next()) {
    const std::string key = in.key();
    if (key == "ph") {
      (void)in.scalar(f.ph, number);
    } else if (key == "cat") {
      (void)in.scalar(f.cat, number);
    } else if (key == "name") {
      (void)in.scalar(f.name, number);
    } else if (key == "ts") {
      f.ts = number_member(in, f);
    } else if (key == "dur") {
      f.dur = number_member(in, f);
    } else if (key == "pid") {
      f.pid = id_member(in, f);
    } else if (key == "tid") {
      f.tid = id_member(in, f);
    } else if (key == "args") {
      args_member(in, f);
    } else {
      in.skip();
    }
  }
}

/// A pid or tid: absent reads as 0; present, it must be a uint32. Checked
/// at the event's end, so the error names the byte after the event.
std::uint32_t id_of(const json::Reader& in, const IdField& id,
                    std::string_view key) {
  if (!id.present) return 0;
  if (id.kind != Value::Kind::kNumber || id.number < 0.0 ||
      id.number > 4294967295.0 || std::trunc(id.number) != id.number) {
    in.fail("event " + std::string(key) + " is not a uint32");
  }
  return static_cast<std::uint32_t>(id.number);
}

ArgList args_of(const EventFields& f) {
  return ArgList(f.args.begin(),
                 f.args.begin() + static_cast<std::ptrdiff_t>(f.arg_count));
}

/// Keeps a complete ("X") or instant ("i") event whose category this build
/// knows; metadata ("M") and counter ("C") events carry nothing the passes
/// consume.
void add_event(const json::Reader& in, const EventFields& f,
               TraceDataset& out) {
  if (f.ph == "X") {
    const auto kind = span_kind_from_string(f.cat);
    if (!kind.has_value()) return;
    const Track track{id_of(in, f.pid, "pid"), id_of(in, f.tid, "tid")};
    Span& span = out.spans.emplace_back();
    span.kind = *kind;
    span.name = f.name;
    span.track = track;
    span.start_ms = f.ts / 1000.0;
    span.end_ms = span.start_ms + f.dur / 1000.0;
    span.args = args_of(f);
  } else if (f.ph == "i") {
    const auto kind = instant_kind_from_string(f.cat);
    if (!kind.has_value()) return;
    const Track track{id_of(in, f.pid, "pid"), id_of(in, f.tid, "tid")};
    Instant& instant = out.instants.emplace_back();
    instant.kind = *kind;
    instant.name = f.name;
    instant.track = track;
    instant.at_ms = f.ts / 1000.0;
    instant.args = args_of(f);
  }
}

/// Walks the event array at the cursor; only events that are objects can
/// be kept, and the rest are checked and dropped.
void read_events(json::Reader& in, TraceDataset& out) {
  EventFields fields;
  in.enter('[');
  while (in.next()) {
    if (in.peek() != '{') {
      in.skip();
      continue;
    }
    read_fields(in, fields);
    add_event(in, fields, out);
  }
}

TraceDataset read_text(std::string_view text) {
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
        reader.skip();
      }
    }
  }
  if (!found) reader.fail("not a trace-event array");
  reader.finish();
  return dataset;
}

}  // namespace

TraceDataset read_chrome_trace(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return read_text(std::move(buffer).str());
}

TraceDataset read_chrome_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::invalid_argument("trace_reader: cannot open '" + path + "'");
  }
  // A regular file is read in one read into a string of its size; anything
  // else (a pipe, a directory) as a stream.
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) return read_chrome_trace(in);
  std::string text(static_cast<std::size_t>(size), '\0');
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(in.gcount()));
  return read_text(text);
}

}  // namespace esg::obs::analysis
