// Incremental cluster state index (DESIGN.md §15): the structures that let
// the controller's hot path stop rescanning every node per queued request.
//
// Owned by Cluster (behind a stable heap allocation so the cluster can move)
// and maintained by Invoker hooks:
//
//  - `warm` maps a function to its fleet-wide warm state:
//
//    - `candidates`, the ascending-id set of invokers that *may* hold a warm
//      container for it. It is a lazy superset: add_warm inserts eagerly,
//      but keep-alive expiry is evaluated lazily, so its one reader,
//      Cluster::find_warm, confirms each candidate with Invoker::has_warm
//      and drops those found empty — a node only re-enters via another
//      add_warm, which re-inserts it. Crash and retire erase their node
//      eagerly (they clear the whole warm pool anyway).
//
//    - `parked`, the exact number of warm entries parked across the fleet,
//      expired ones not yet pruned included: add_warm adds one, acquire_warm
//      takes one, and pruning and the pool release of crash and retire take
//      what they erase.
//
//    - `soonest`, a lower bound on those entries' expiries: add_warm lowers
//      it and nothing raises it when an entry leaves, so it may be stale
//      (early). Cluster::warm_count answers `parked` while `soonest > now`,
//      since no entry can then have expired, and otherwise walks the fleet
//      and sets it exactly.
//
//  - `free_vcpus` / `free_vgpus` mirror Cluster::total_free_* as running
//    sums over non-retired nodes, updated on allocate/release and on the
//    retired-boundary transitions (retire, begin_warming).
#pragma once

#include <cstddef>
#include <map>
#include <set>

#include "common/types.hpp"

namespace esg::cluster {

struct FunctionWarmState {
  std::set<InvokerId> candidates;
  std::size_t parked = 0;
  TimeMs soonest = kNoTime;  // no entry parked yet
};

struct ClusterStateIndex {
  std::map<FunctionId, FunctionWarmState> warm;
  std::size_t free_vcpus = 0;
  std::size_t free_vgpus = 0;
};

}  // namespace esg::cluster
