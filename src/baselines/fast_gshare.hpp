// FaST-GShare baseline (Gu et al. 2023) as characterised in Section 4.2:
// enumeration-based configuration selection driven by throughput-per-
// resource metrics over the statically split SLO, with node selection that
// minimises GPU fragmentation. It spends as little GPU as the static slice
// allows — which is why the paper observes it "always yields the largest
// latency" with frequent SLO strikes when early stages are delayed.
// StaticSliceScheduler does the rest.
#pragma once

#include <string_view>

#include "baselines/static_slice.hpp"

namespace esg::baselines {

/// Lowest per-job cost first (FaST-GShare's spatio-temporal GPU efficiency
/// metric), which lands on frugal configurations that barely make the
/// slice; the faster configuration breaks ties.
struct FastGshareRank {
  static constexpr std::string_view kName = "FaST-GShare";
  bool operator()(const profile::ProfileEntry* a,
                  const profile::ProfileEntry* b) const {
    if (a->per_job_cost != b->per_job_cost) {
      return a->per_job_cost < b->per_job_cost;
    }
    return a->latency_ms < b->latency_ms;
  }
};

extern template class StaticSliceScheduler<FastGshareRank>;
using FastGshareScheduler = StaticSliceScheduler<FastGshareRank>;

}  // namespace esg::baselines
