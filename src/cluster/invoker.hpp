// One worker node ("Invoker" in OpenWhisk terms): a pool of vCPUs and vGPU
// slices plus a keep-alive pool of warm containers.
//
// Resource accounting: active tasks hold vCPUs/vGPUs for their whole
// occupancy (cold start + data transfer + execution). Idle warm containers
// hold no vCPU/vGPU — they are paused, keeping only the loaded model, which
// is what makes a subsequent start "warm". Warm entries expire after the
// keep-alive window (OpenWhisk's fixed 10 minutes, Section 2); expiry is
// evaluated lazily against the caller-provided current time, so this module
// has no dependency on the simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "cluster/cluster_index.hpp"
#include "common/types.hpp"

namespace esg::cluster {

struct NodeCapacity {
  std::uint16_t vcpus = 16;  ///< testbed: 16 vCPUs per node (Section 4)
  std::uint16_t vgpus = 7;   ///< one A100 split into 7 MIG slices
};

inline constexpr TimeMs kKeepAliveMs = 10.0 * 60.0 * 1000.0;  // 10 minutes

/// How a warm container's keep-alive window ended (for tracing).
enum class WarmEnd : std::uint8_t {
  kAcquired,  ///< consumed by a dispatch (warm start)
  kExpired,   ///< keep-alive window ran out unused
  kOpen,      ///< still parked when the trace was flushed
  kCrashed,   ///< lost when the invoker crashed (fault injection)
  kDrained,   ///< released when the invoker left the fleet (scale-in/reclaim)
};

/// Fleet-membership lifecycle of a node, orthogonal to the crash-window
/// `alive()` flag (a node can be Active yet dead during a crash window).
/// Static fleets keep every node Active forever; the elastic layer walks
/// Retired -> Warming -> Active -> Draining -> Retired.
enum class NodeState : std::uint8_t {
  kActive,    ///< in the fleet, accepts placements and warm containers
  kWarming,   ///< acquired, paying provisioning lead time, not yet placeable
  kDraining,  ///< finishing in-flight work; accepts nothing new
  kRetired,   ///< not part of the fleet (released, reclaimed, or never acquired)
};

/// Observer invoked whenever a keep-alive window closes: (invoker, function,
/// window start, window end, how it ended). Lazily-expired entries are
/// reported when the expiry is observed, with the exact expiry time.
using WarmSpanCallback = std::function<void(InvokerId, FunctionId, TimeMs,
                                            TimeMs, WarmEnd)>;

class Invoker {
 public:
  struct WarmEntry {
    TimeMs expiry = 0.0;  ///< when the keep-alive window runs out
    TimeMs since = 0.0;   ///< when the container was parked
  };
  using WarmPool = std::unordered_map<FunctionId, std::vector<WarmEntry>>;

  Invoker(InvokerId id, NodeCapacity capacity)
      : id_(id), capacity_(capacity) {}

  [[nodiscard]] InvokerId id() const { return id_; }
  [[nodiscard]] NodeCapacity capacity() const { return capacity_; }
  [[nodiscard]] std::uint16_t free_vcpus() const {
    return static_cast<std::uint16_t>(capacity_.vcpus - used_vcpus_);
  }
  [[nodiscard]] std::uint16_t free_vgpus() const {
    return static_cast<std::uint16_t>(capacity_.vgpus - used_vgpus_);
  }
  [[nodiscard]] std::uint16_t used_vcpus() const { return used_vcpus_; }
  [[nodiscard]] std::uint16_t used_vgpus() const { return used_vgpus_; }

  [[nodiscard]] bool can_fit(std::uint16_t vcpus, std::uint16_t vgpus) const {
    return alive_ && state_ == NodeState::kActive && vcpus <= free_vcpus() &&
           vgpus <= free_vgpus();
  }

  /// False while a fault-injected crash window is open. A dead invoker fits
  /// nothing, parks no warm containers, and serves no warm start; its used
  /// vCPU/vGPU counters keep working so the controller can release the
  /// resources of the tasks it kills.
  [[nodiscard]] bool alive() const { return alive_; }

  /// Fleet-membership state; see NodeState. Static fleets stay kActive.
  [[nodiscard]] NodeState state() const { return state_; }

  /// True when new placements, prewarms, and provisioned containers may
  /// target this node: alive, Active, not draining or retired.
  [[nodiscard]] bool accepts_placements() const {
    return alive_ && state_ == NodeState::kActive;
  }

  /// Retired -> Warming: the node has been acquired and is paying its
  /// provisioning lead time. Throws std::logic_error from any other state.
  void begin_warming();

  /// Warming -> Active: provisioning finished, the node joins the fleet.
  void activate();

  /// Active|Warming -> Draining: stop accepting new placements; in-flight
  /// tasks keep their resources until they finish (or are reclaimed).
  void begin_drain();

  /// Draining|Warming -> Retired: the node leaves the fleet. Every parked
  /// warm container is released (reported as WarmEnd::kDrained). Requires
  /// used vCPUs/vGPUs == 0 — callers must have completed or failed all
  /// in-flight tasks first; the check is the no-leak invariant.
  void retire(TimeMs now);

  /// Crashes the node: drops every warm container (reported as
  /// WarmEnd::kCrashed) and marks the node dead. The caller is responsible
  /// for failing the tasks that were running here and releasing their
  /// resources.
  void crash(TimeMs now);

  /// Brings a crashed node back, alive and with an empty warm pool.
  void rejoin();

  /// Reserves resources for a task. Throws std::logic_error on over-commit.
  void allocate(std::uint16_t vcpus, std::uint16_t vgpus);
  /// Returns resources. Throws std::logic_error on under-flow.
  void release(std::uint16_t vcpus, std::uint16_t vgpus);

  /// Number of unexpired idle warm containers for `function` at `now`.
  [[nodiscard]] std::size_t warm_count(FunctionId function, TimeMs now) const;
  [[nodiscard]] bool has_warm(FunctionId function, TimeMs now) const {
    return warm_count(function, now) > 0;
  }

  /// Consumes one warm container (the one expiring soonest). Returns false
  /// if none is available — the caller then pays a cold start.
  bool acquire_warm(FunctionId function, TimeMs now);

  /// Parks a warm container that stays usable until now + keep_alive.
  void add_warm(FunctionId function, TimeMs now, TimeMs keep_alive = kKeepAliveMs);

  /// Total unexpired warm containers across functions (for reporting).
  [[nodiscard]] std::size_t total_warm(TimeMs now) const;

  /// Every parked warm container by function, expired ones not yet pruned
  /// included, in no particular order. Unlike the queries above it neither
  /// prunes nor traces (for the cluster's tally and its cross-check).
  [[nodiscard]] const WarmPool& parked_warm() const { return warm_; }

  /// Installs the keep-alive tracing observer (empty = disabled).
  void set_warm_span_callback(WarmSpanCallback callback) {
    warm_callback_ = std::move(callback);
  }

  /// Reports every still-parked warm container as an open window ending at
  /// `now` (end-of-run trace flush). The containers stay usable.
  void flush_warm_spans(TimeMs now) const;

  /// Installs the shared cluster state index (see cluster_index.hpp). Called
  /// by Cluster; the pointer must outlive the invoker's mutations.
  void attach_index(ClusterStateIndex* index) { index_ = index; }

 private:
  InvokerId id_;
  NodeCapacity capacity_;
  std::uint16_t used_vcpus_ = 0;
  std::uint16_t used_vgpus_ = 0;
  bool alive_ = true;
  NodeState state_ = NodeState::kActive;
  // function -> idle warm containers (unsorted, tiny lists).
  // Mutable: const queries prune expired entries lazily.
  mutable WarmPool warm_;
  WarmSpanCallback warm_callback_;
  ClusterStateIndex* index_ = nullptr;  // owned by Cluster; null when detached

  /// Drops `function`'s containers expired at `now` (and from the index's
  /// tally); returns its pool entry, or warm_.end() when none is left (one
  /// lookup for the caller's query).
  WarmPool::iterator prune_expired(FunctionId function, TimeMs now) const;
  /// Empties the warm pool, reporting each container as ending for
  /// `reason` (as expired if its window had already run out) and taking
  /// this node out of the index's candidate sets and tallies. Shared by
  /// crash and retire.
  void release_warm_pool(TimeMs now, WarmEnd reason);
};

}  // namespace esg::cluster
