// Reads a serialized Chrome-trace-event JSON file (what ChromeTraceSink
// wrote) back into a TraceDataset, so the analysis passes can run offline
// over a saved trace.json exactly as they run in-process during a live run.
//
// The reader walks the event array (bare, or the "traceEvents" member of
// the object form) with the common/json cursor and holds one event at a
// time. Only the event shapes our sink emits are materialised: complete
// ("X") events become spans, instant ("i") events become instants; metadata
// ("M") and counter ("C") events are checked and dropped. Events whose
// category string is not part of this build's vocabulary are skipped too,
// so newer traces degrade gracefully instead of failing.
#pragma once

#include <istream>
#include <string>

#include "obs/analysis/dataset.hpp"

namespace esg::obs::analysis {

/// Parses the trace JSON from a stream. Throws std::invalid_argument, naming
/// the line and byte, on malformed JSON, a top-level shape other than an
/// event array, or a pid/tid that is not a uint32.
[[nodiscard]] TraceDataset read_chrome_trace(std::istream& in);

/// Convenience: opens and parses `path`. Throws std::invalid_argument when
/// the file cannot be opened.
[[nodiscard]] TraceDataset read_chrome_trace_file(const std::string& path);

}  // namespace esg::obs::analysis
