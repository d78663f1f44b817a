// Reporting surfaces for the self-profiling layer: the esg.perf.v2 JSON
// artefact (--perf-out), and the human-readable --perf-summary table.
// Counter gauges for the stats JSONL / Perfetto tracks are registered in
// exp/scenario.cpp via obs::StatsSampler; this header only fixes their
// naming convention ("perf/<counter>").
#pragma once

#include <cstdio>
#include <string>

#include "perf/counters.hpp"
#include "perf/layer_clock.hpp"

namespace esg::perf {

/// Per-run context stamped into the report next to the counters.
struct RunInfo {
  std::string scheduler;        ///< e.g. "esg"
  std::uint64_t seed = 0;
  double simulated_ms = 0.0;    ///< simulated horizon actually covered
  double wall_seconds = 0.0;    ///< host wall-clock for the run
  std::uint64_t invocations = 0;  ///< completed requests (measured window)
};

/// Gauge-name prefix for counter series in the stats JSONL and the
/// Chrome-trace counter tracks ("perf/events_fired", ...).
inline constexpr const char* kGaugePrefix = "perf/";

/// Writes the esg.perf.v2 JSON document. Schema (key order, field set) is
/// deterministic; counter *values* are deterministic per seed, while
/// wall-clock and layer timings naturally vary run to run. The "layers"
/// object holds the window and each slot's self time in nanoseconds.
void write_perf_json(std::FILE* out, const RunInfo& run, const Counters& counters,
                     const LayerTimes& layers);

/// Human table: throughput line, counter table, and the layer table with
/// each slot's self time and share of the window.
void write_perf_summary(std::FILE* out, const RunInfo& run,
                        const Counters& counters, const LayerTimes& layers);

}  // namespace esg::perf
