// INFless baseline (Yang et al., ASPLOS'22) as characterised in Section 4.2:
// per-function configuration enumeration with no inter-function awareness —
// the end-to-end SLO is split statically by average service time — and a
// resource-efficiency node-selection metric that packs work to minimise
// fragmentation and maximise throughput. The enumeration picks the
// highest-throughput configuration that fits the static per-stage slice,
// which yields the paper's observed behaviour: low per-stage latencies at
// the highest resource cost. StaticSliceScheduler does the rest.
#pragma once

#include <string_view>

#include "baselines/static_slice.hpp"

namespace esg::baselines {

/// Throughput (jobs per second) first, which favours big batches on many
/// vGPU slices; the faster configuration breaks ties.
struct InflessRank {
  static constexpr std::string_view kName = "INFless";
  bool operator()(const profile::ProfileEntry* a,
                  const profile::ProfileEntry* b) const {
    const double ta = static_cast<double>(a->config.batch) / a->latency_ms;
    const double tb = static_cast<double>(b->config.batch) / b->latency_ms;
    if (ta != tb) return ta > tb;
    return a->latency_ms < b->latency_ms;
  }
};

extern template class StaticSliceScheduler<InflessRank>;
using InflessScheduler = StaticSliceScheduler<InflessRank>;

}  // namespace esg::baselines
