#include "cluster/cluster.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/check.hpp"

namespace esg::cluster {

Cluster::Cluster(std::size_t node_count, NodeCapacity capacity) {
  if (node_count == 0) {
    throw std::invalid_argument("Cluster: need at least one invoker");
  }
  invokers_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    invokers_.emplace_back(InvokerId(static_cast<std::uint32_t>(i)), capacity);
  }
  attach_index();
}

Cluster::Cluster(const std::vector<NodeCapacity>& capacities) {
  if (capacities.empty()) {
    throw std::invalid_argument("Cluster: need at least one invoker");
  }
  invokers_.reserve(capacities.size());
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    invokers_.emplace_back(InvokerId(static_cast<std::uint32_t>(i)),
                           capacities[i]);
  }
  attach_index();
}

void Cluster::attach_index() {
  index_ = std::make_unique<ClusterStateIndex>();
  for (auto& inv : invokers_) {
    inv.attach_index(index_.get());
    // Every node starts Active with an empty warm pool: seed the totals.
    index_->free_vcpus += inv.free_vcpus();
    index_->free_vgpus += inv.free_vgpus();
  }
}

const std::set<InvokerId>& Cluster::warm_candidates(FunctionId function) const {
  static const std::set<InvokerId> kEmpty;
  const auto it = index_->warm.find(function);
  return it == index_->warm.end() ? kEmpty : it->second.candidates;
}

std::size_t Cluster::warm_count(FunctionId function, TimeMs now) const {
  const auto it = index_->warm.find(function);
  if (it == index_->warm.end()) return 0;  // never parked anywhere
  FunctionWarmState& fleet = it->second;
  // Nothing parked expires before the bound, so asking every invoker could
  // prune (and trace) nothing and would sum to the tally.
  if (fleet.soonest > now) return fleet.parked;
  std::size_t warm = 0;
  TimeMs soonest = kNoTime;
  for (const auto& inv : invokers_) {
    warm += inv.warm_count(function, now);
    const auto pool = inv.parked_warm().find(function);
    if (pool == inv.parked_warm().end()) continue;
    for (const auto& entry : pool->second) {
      soonest = std::min(soonest, entry.expiry);
    }
  }
  check(warm == fleet.parked,
        "ClusterStateIndex: warm tally diverged from the fleet walk");
  fleet.soonest = soonest;
  return warm;
}

void Cluster::check_index_invariants(TimeMs now) const {
  std::size_t scan_vcpus = 0;
  std::size_t scan_vgpus = 0;
  for (const auto& inv : invokers_) {
    if (inv.state() != NodeState::kRetired) {
      scan_vcpus += inv.free_vcpus();
      scan_vgpus += inv.free_vgpus();
    }
  }
  check(scan_vcpus == index_->free_vcpus,
        "ClusterStateIndex: free_vcpus diverged from the fleet scan");
  check(scan_vgpus == index_->free_vgpus,
        "ClusterStateIndex: free_vgpus diverged from the fleet scan");
  // Parked entries are read without pruning, so the scans below observe
  // (and trace) no expiry a run's own queries would not.
  for (const auto& inv : invokers_) {
    for (const auto& [fn, entries] : inv.parked_warm()) {
      const auto it = index_->warm.find(fn);
      check(it != index_->warm.end(),
            "ClusterStateIndex: parked function missing from the index");
      const FunctionWarmState& fleet = it->second;
      for (const auto& entry : entries) {
        check(fleet.soonest <= entry.expiry,
              "ClusterStateIndex: soonest-expiry bound above a parked entry");
        // Superset property: a node holding an unexpired warm container
        // must be a candidate for that function.
        check(entry.expiry <= now || fleet.candidates.count(inv.id()) == 1,
              "ClusterStateIndex: warm invoker missing from candidate set");
      }
    }
  }
  for (const auto& [fn, fleet] : index_->warm) {
    std::size_t parked = 0;
    for (const auto& inv : invokers_) {
      const auto pool = inv.parked_warm().find(fn);
      if (pool != inv.parked_warm().end()) parked += pool->second.size();
    }
    check(fleet.parked == parked,
          "ClusterStateIndex: warm tally diverged from the parked entries");
  }
}

Invoker& Cluster::invoker(InvokerId id) {
  if (id.get() >= invokers_.size()) {
    throw std::out_of_range("Cluster::invoker: bad id");
  }
  return invokers_[id.get()];
}

const Invoker& Cluster::invoker(InvokerId id) const {
  if (id.get() >= invokers_.size()) {
    throw std::out_of_range("Cluster::invoker: bad id");
  }
  return invokers_[id.get()];
}

InvokerId Cluster::home_invoker(AppId app, FunctionId function) const {
  // Splitmix-style avalanche of the (app, function) pair; stable across runs.
  std::uint64_t h = (std::uint64_t{app.get()} << 32) | function.get();
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  h ^= h >> 31;
  return InvokerId(static_cast<std::uint32_t>(h % invokers_.size()));
}

std::size_t Cluster::count_state(NodeState state) const {
  std::size_t count = 0;
  for (const auto& inv : invokers_) count += inv.state() == state ? 1 : 0;
  return count;
}

}  // namespace esg::cluster
