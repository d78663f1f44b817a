// The simulated cluster: a fixed set of homogeneous invokers plus the
// OpenWhisk-style home-invoker hash (Section 2: the controller picks an
// invoker from a hash of the function's namespace and action so future
// instances land on the same node and hit warm containers).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "cluster/cluster_index.hpp"
#include "cluster/data_transfer.hpp"
#include "cluster/invoker.hpp"
#include "common/types.hpp"

namespace esg::cluster {

class Cluster {
 public:
  /// Builds `node_count` identical invokers.
  Cluster(std::size_t node_count, NodeCapacity capacity = {});

  /// Heterogeneous fleet: one invoker per capacity entry (Appendix A notes
  /// the scheduling algorithms work unchanged on heterogeneous hardware).
  explicit Cluster(const std::vector<NodeCapacity>& capacities);

  // Invokers hold a raw pointer into the heap-allocated state index, so the
  // cluster can move (the allocation is stable) but must not be copied.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  Cluster(Cluster&&) = default;
  Cluster& operator=(Cluster&&) = default;

  [[nodiscard]] std::size_t size() const { return invokers_.size(); }
  [[nodiscard]] Invoker& invoker(InvokerId id);
  [[nodiscard]] const Invoker& invoker(InvokerId id) const;
  [[nodiscard]] std::vector<Invoker>& invokers() { return invokers_; }
  [[nodiscard]] const std::vector<Invoker>& invokers() const { return invokers_; }

  /// Deterministic home invoker for (app, function), mimicking OpenWhisk's
  /// namespace/action hash.
  [[nodiscard]] InvokerId home_invoker(AppId app, FunctionId function) const;

  /// Total free resources across the fleet. Retired nodes are not part of
  /// the fleet and contribute nothing; on a static fleet (no retired nodes)
  /// this is the plain sum over every invoker, dead or alive. O(1): running
  /// sums maintained by Invoker hooks (DESIGN.md §15).
  [[nodiscard]] std::size_t total_free_vcpus() const {
    return index_->free_vcpus;
  }
  [[nodiscard]] std::size_t total_free_vgpus() const {
    return index_->free_vgpus;
  }

  /// Ascending-id set of invokers that *may* hold a warm container for
  /// `function` — a lazy superset (keep-alive expiry is evaluated lazily).
  /// For inspection only: find_warm is the one walk over it.
  [[nodiscard]] const std::set<InvokerId>& warm_candidates(
      FunctionId function) const;

  /// The lowest-id invoker that holds a warm container for `function` at
  /// `now` and that `accept(id)` takes, or std::nullopt. Walks the
  /// candidate set in ascending id and asks Invoker::has_warm before
  /// `accept`, so keep-alive expiries are observed (and traced) in the
  /// order a whole-fleet first-fit scan observes them; a candidate seen
  /// without a warm container leaves the set (only add_warm brings it back).
  template <typename Accept>
  [[nodiscard]] std::optional<InvokerId> find_warm(FunctionId function,
                                                   TimeMs now,
                                                   Accept accept) const;

  /// Unexpired warm containers of `function` across the fleet at `now`.
  /// Answers from the index's tally while its soonest-expiry bound is after
  /// `now`; otherwise asks every invoker in id order, which prunes and
  /// traces expiries as a whole-fleet count does, and re-tightens the bound.
  [[nodiscard]] std::size_t warm_count(FunctionId function, TimeMs now) const;

  /// Cross-validates the incremental index against a full fleet scan. Per
  /// function, the tally must equal the fleet's parked warm entries and its
  /// bound must not exceed any of their expiries; every invoker holding an
  /// entry unexpired at `now` must be in the candidate set; the free-resource
  /// sums must match the O(n) recomputation. Read-only: it neither prunes
  /// nor traces, so calling it changes nothing a run records. Throws via
  /// check() on violation (test hook for the crash/reclaim/drain/retire
  /// transitions).
  void check_index_invariants(TimeMs now) const;

  /// Fleet-size census by lifecycle state (for stats and elastic policies).
  [[nodiscard]] std::size_t count_state(NodeState state) const;
  [[nodiscard]] std::size_t active_count() const {
    return count_state(NodeState::kActive);
  }
  [[nodiscard]] std::size_t warming_count() const {
    return count_state(NodeState::kWarming);
  }
  [[nodiscard]] std::size_t draining_count() const {
    return count_state(NodeState::kDraining);
  }

  /// Installs the keep-alive tracing observer on every invoker.
  void set_warm_span_callback(WarmSpanCallback callback) {
    for (auto& inv : invokers_) inv.set_warm_span_callback(callback);
  }

  /// End-of-run flush of still-open keep-alive windows (see Invoker).
  void flush_warm_spans(TimeMs now) const {
    for (const auto& inv : invokers_) inv.flush_warm_spans(now);
  }

 private:
  void attach_index();

  std::vector<Invoker> invokers_;
  // Heap allocation keeps invoker back-pointers stable across cluster moves.
  // std::unique_ptr does not propagate const, so the lazy candidate cleanup
  // and the warm tally's bound refresh work from const queries.
  std::unique_ptr<ClusterStateIndex> index_;
};

template <typename Accept>
std::optional<InvokerId> Cluster::find_warm(FunctionId function, TimeMs now,
                                            Accept accept) const {
  const auto it = index_->warm.find(function);
  if (it == index_->warm.end()) return std::nullopt;
  std::set<InvokerId>& candidates = it->second.candidates;
  for (auto cit = candidates.begin(); cit != candidates.end();) {
    const InvokerId id = *cit;
    if (!invokers_[id.get()].has_warm(function, now)) {
      cit = candidates.erase(cit);
      continue;
    }
    if (accept(id)) return id;
    ++cit;
  }
  return std::nullopt;
}

}  // namespace esg::cluster
