// ESG_1Q (Section 3.3, Algorithm 1): finds the K cheapest configuration
// paths through a linear sequence of functions that complete within a target
// latency. Best-first, stage-ordered search with dual-blade pruning:
//
//   tLow       — optimistic completion time of every path prefixed by the
//                partial path; since each stage's configurations are sorted
//                by latency, tLow >= G_SLO prunes the rest of the stage.
//   rscLow     — optimistic per-job cost of every extension; pruned against
//                the K-th best known optimistic completion (minRSC[K-1]).
//   rscFastest — the partial path's cost plus the cost of finishing as fast
//                as possible; feeds minRSC, tightening the cost blade.
//
// Each stage's list and its min per-job cost come from ProfileTable::view,
// built once per table, and the list's first entry is the stage's fastest,
// so a search copies and rescans no profile. A partial path is a node
// holding its totals, the index of its prefix in the previous stage's level
// and the index of its last configuration; the K result paths are rebuilt
// from those links at the end, so extending a path copies nothing either.
//
// Both blades are tested once per partial path, not once per configuration.
// tLow never decreases along the latency-sorted list (IEEE addition is
// monotone), so one scan finds the prefix of configurations that pass it.
// If minRSC rejects the cheapest of those, it rejects them all, and the
// path is dropped without visiting any; otherwise each is tested in list
// order as Algorithm 1 does. A level is extended cheapest path first, but a
// large one orders only the paths the cost blade leaves: it buckets the
// paths by the bit pattern of their cost and sorts, bucket by bucket, the
// ones minRSC still admits. A dropped path changes nothing, so where it
// would sit in the order does not matter. Two admitted paths with equal
// costs do: the level is then redone in std::sort's order, whose tie order
// the golden corpus pins.
//
// SearchStats::nodes_expanded is Algorithm 1's count of configurations
// examined: every one that passes the time blade, plus the one that breaks
// the stage off. It is not the number of entries the code visits; the
// simulator charges scheduling overhead from it.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "profile/profile_table.hpp"

namespace esg::core {

/// One stage of the searched sequence.
struct StageInput {
  const profile::ProfileTable* table = nullptr;
  /// Largest admissible batch for this stage (jobs actually queued);
  /// 0 = unconstrained. Selects the table's view (ProfileTable::view).
  std::uint16_t batch_cap = 0;
};

/// A full configuration path: one profile entry per stage.
struct SearchPath {
  std::vector<profile::ProfileEntry> entries;
  TimeMs total_latency_ms = 0.0;
  Usd total_per_job_cost = 0.0;
};

struct SearchStats {
  std::size_t nodes_expanded = 0;   ///< configurations Algorithm 1 examines
  std::size_t pruned_time = 0;      ///< stage break-offs via tLow
  std::size_t pruned_cost = 0;      ///< skips via rscLow
  std::size_t paths_kept = 0;       ///< surviving partial paths (max over stages)
};

/// The targets a search's answer holds for. The target is read only by the
/// time blade (tLow >= G_SLO): the cost blade, the sorts and the max_paths
/// cut never see it. So every target in (lo, hi] makes the same decisions
/// and gets the same config_pq, met_slo and stats.
struct TargetInterval {
  /// Largest tLow that passed the time blade (whether or not the cost blade
  /// then pruned it); -inf if none did.
  TimeMs lo = -std::numeric_limits<TimeMs>::infinity();
  /// Smallest tLow that broke off a stage; +inf if none did.
  TimeMs hi = std::numeric_limits<TimeMs>::infinity();
};

struct SearchResult {
  /// Up to K full paths meeting the target, cheapest (per-job cost) first —
  /// the configuration priority queue of Section 3.1.
  std::vector<SearchPath> config_pq;
  /// False when no path meets the target; config_pq then holds the single
  /// fastest path as a best-effort fallback.
  bool met_slo = false;
  SearchStats stats;
  /// Every target for which the search returns this same answer.
  TargetInterval holds_for;
};

struct SearchOptions {
  std::size_t k = 5;  ///< solutions kept (paper default, Section 5.4)
  /// Hard cap on surviving partial paths per stage (memory guard; the
  /// dual-blade pruning keeps real workloads far below it). Excess paths —
  /// the costliest ones — are dropped. Must be > 0, like k.
  std::size_t max_paths = 200'000;
};

/// Runs ESG_1Q over `stages` with target latency `g_slo_ms`. Throws
/// std::invalid_argument on no stages, k == 0, max_paths == 0 or a stage
/// whose batch cap admits no configuration.
[[nodiscard]] SearchResult esg_1q(std::span<const StageInput> stages,
                                  TimeMs g_slo_ms, const SearchOptions& options = {});

/// Deterministic model of the scheduling latency a search of `nodes_expanded`
/// configurations costs (DESIGN.md, substitutions): wall-clock charging would
/// break replay determinism, so simulated runs charge this instead.
struct OverheadModel {
  TimeMs base_ms = 0.2;      ///< fixed per-invocation bookkeeping
  double per_node_us = 0.43; ///< per examined configuration (calibrated to
                             ///< the paper's 7258 ms brute force over 256^3)

  [[nodiscard]] TimeMs overhead_ms(std::size_t nodes_expanded) const {
    return base_ms + static_cast<double>(nodes_expanded) * per_node_us / 1000.0;
  }
};

}  // namespace esg::core
