#include "cluster/invoker.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace esg::cluster {

void Invoker::allocate(std::uint16_t vcpus, std::uint16_t vgpus) {
  check(can_fit(vcpus, vgpus), "Invoker::allocate over-commits the node");
  used_vcpus_ = static_cast<std::uint16_t>(used_vcpus_ + vcpus);
  used_vgpus_ = static_cast<std::uint16_t>(used_vgpus_ + vgpus);
  if (index_ != nullptr) {  // can_fit implies non-retired: always counted
    index_->free_vcpus -= vcpus;
    index_->free_vgpus -= vgpus;
  }
}

void Invoker::release(std::uint16_t vcpus, std::uint16_t vgpus) {
  check(vcpus <= used_vcpus_ && vgpus <= used_vgpus_,
        "Invoker::release returns more than allocated");
  used_vcpus_ = static_cast<std::uint16_t>(used_vcpus_ - vcpus);
  used_vgpus_ = static_cast<std::uint16_t>(used_vgpus_ - vgpus);
  // A retired node cannot hold task resources (retire checks used == 0), so
  // a release always lands on a counted node.
  if (index_ != nullptr) {
    index_->free_vcpus += vcpus;
    index_->free_vgpus += vgpus;
  }
}

void Invoker::release_warm_pool(TimeMs now, WarmEnd reason) {
  if (warm_callback_) {
    // Sorted function order: warm_ is an unordered_map and the callback
    // feeds the trace, which must stay byte-reproducible.
    std::vector<FunctionId> functions;
    functions.reserve(warm_.size());
    for (const auto& [fn, _] : warm_) functions.push_back(fn);
    std::sort(functions.begin(), functions.end());
    for (FunctionId fn : functions) {
      for (const WarmEntry& e : warm_.at(fn)) {
        // Entries that had already expired are reported as such; the rest
        // end for `reason`.
        warm_callback_(id_, fn, e.since, std::min(e.expiry, now),
                       e.expiry <= now ? WarmEnd::kExpired : reason);
      }
    }
  }
  if (index_ != nullptr) {
    for (const auto& [fn, entries] : warm_) {
      FunctionWarmState& fleet = index_->warm[fn];
      fleet.candidates.erase(id_);
      fleet.parked -= entries.size();
    }
  }
  warm_.clear();
}

Invoker::WarmPool::iterator Invoker::prune_expired(FunctionId function,
                                                   TimeMs now) const {
  auto it = warm_.find(function);
  if (it == warm_.end()) return it;
  auto& entries = it->second;
  if (warm_callback_) {
    for (const WarmEntry& e : entries) {
      if (e.expiry <= now) {
        warm_callback_(id_, function, e.since, e.expiry, WarmEnd::kExpired);
      }
    }
  }
  const std::size_t expired = std::erase_if(
      entries, [now](const WarmEntry& e) { return e.expiry <= now; });
  if (expired > 0 && index_ != nullptr) {
    index_->warm[function].parked -= expired;
  }
  if (!entries.empty()) return it;
  warm_.erase(it);
  return warm_.end();
}

std::size_t Invoker::warm_count(FunctionId function, TimeMs now) const {
  const auto it = prune_expired(function, now);
  return it == warm_.end() ? 0 : it->second.size();
}

bool Invoker::acquire_warm(FunctionId function, TimeMs now) {
  const auto it = prune_expired(function, now);
  if (it == warm_.end()) return false;
  auto& entries = it->second;
  auto soonest = std::min_element(
      entries.begin(), entries.end(),
      [](const WarmEntry& a, const WarmEntry& b) { return a.expiry < b.expiry; });
  if (warm_callback_) {
    warm_callback_(id_, function, soonest->since, now, WarmEnd::kAcquired);
  }
  entries.erase(soonest);
  if (entries.empty()) warm_.erase(it);
  // The index's soonest-expiry bound stays where it is: it is a lower bound,
  // and a stale one only sends the next Cluster::warm_count down its walk.
  if (index_ != nullptr) --index_->warm[function].parked;
  return true;
}

void Invoker::add_warm(FunctionId function, TimeMs now, TimeMs keep_alive) {
  // A dead node cannot park containers: in-flight prewarm/provisioning
  // events that land during a crash window are silently dropped. Draining
  // and retired nodes refuse new warm state the same way — the drain
  // contract is "nothing new lands here".
  if (!alive_ || state_ == NodeState::kDraining ||
      state_ == NodeState::kRetired) {
    return;
  }
  const TimeMs expiry = now + keep_alive;
  warm_[function].push_back(WarmEntry{expiry, now});
  if (index_ != nullptr) {
    FunctionWarmState& fleet = index_->warm[function];
    fleet.candidates.insert(id_);
    ++fleet.parked;
    fleet.soonest = std::min(fleet.soonest, expiry);
  }
}

void Invoker::crash(TimeMs now) {
  release_warm_pool(now, WarmEnd::kCrashed);
  alive_ = false;
}

void Invoker::rejoin() { alive_ = true; }

void Invoker::begin_warming() {
  check(state_ == NodeState::kRetired,
        "Invoker::begin_warming: node is not retired");
  state_ = NodeState::kWarming;
  // The node rejoins the free-resource totals (used is 0 while retired).
  if (index_ != nullptr) {
    index_->free_vcpus += free_vcpus();
    index_->free_vgpus += free_vgpus();
  }
}

void Invoker::activate() {
  check(state_ == NodeState::kWarming,
        "Invoker::activate: node is not warming");
  state_ = NodeState::kActive;
}

void Invoker::begin_drain() {
  check(state_ == NodeState::kActive || state_ == NodeState::kWarming,
        "Invoker::begin_drain: node is not active or warming");
  state_ = NodeState::kDraining;
}

void Invoker::retire(TimeMs now) {
  check(state_ == NodeState::kDraining || state_ == NodeState::kWarming,
        "Invoker::retire: node is not draining or warming");
  check(used_vcpus_ == 0 && used_vgpus_ == 0,
        "Invoker::retire: node still holds task resources (leak)");
  release_warm_pool(now, WarmEnd::kDrained);
  state_ = NodeState::kRetired;
  // The node leaves the free-resource totals; used is 0 (checked above), so
  // its entire free capacity goes away.
  if (index_ != nullptr) {
    index_->free_vcpus -= free_vcpus();
    index_->free_vgpus -= free_vgpus();
  }
}

void Invoker::flush_warm_spans(TimeMs now) const {
  if (!warm_callback_) return;
  // Sorted function order, as in release_warm_pool: the spans go to the
  // trace.
  std::vector<FunctionId> functions;
  functions.reserve(warm_.size());
  for (const auto& [fn, _] : warm_) functions.push_back(fn);
  std::sort(functions.begin(), functions.end());
  for (FunctionId fn : functions) {
    const auto it = prune_expired(fn, now);  // reports expiries first
    if (it == warm_.end()) continue;
    for (const WarmEntry& e : it->second) {
      warm_callback_(id_, fn, e.since, now, WarmEnd::kOpen);
    }
  }
}

std::size_t Invoker::total_warm(TimeMs now) const {
  std::size_t total = 0;
  // Collect keys first: prune_expired may erase map entries while iterating.
  // Sorted, since the expiries it reports go to the trace.
  std::vector<FunctionId> functions;
  functions.reserve(warm_.size());
  for (const auto& [fn, _] : warm_) functions.push_back(fn);
  std::sort(functions.begin(), functions.end());
  for (FunctionId fn : functions) total += warm_count(fn, now);
  return total;
}

}  // namespace esg::cluster
