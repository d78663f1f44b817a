// Incremental cluster-state index invariants (DESIGN.md §15): the
// function-keyed warm-candidate index must stay a superset of the true warm
// state and the free-resource running sums must match a full fleet scan,
// across every lifecycle transition — allocate/release, warm add/acquire/
// lazy expiry, crash/rejoin, drain/retire, and elastic begin_warming/
// activate — and warm_count's per-function tally must answer what a walk
// over every invoker answers. check_index_invariants() is the
// cross-validating scan.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"

namespace esg::cluster {
namespace {

FunctionId fn(std::uint32_t v) { return FunctionId{v}; }
InvokerId inv(std::uint32_t v) { return InvokerId{v}; }
bool accept_any(InvokerId) { return true; }

std::size_t scan_free_vcpus(const Cluster& cluster) {
  std::size_t total = 0;
  for (const auto& node : cluster.invokers()) {
    if (node.state() != NodeState::kRetired) total += node.free_vcpus();
  }
  return total;
}

std::size_t scan_free_vgpus(const Cluster& cluster) {
  std::size_t total = 0;
  for (const auto& node : cluster.invokers()) {
    if (node.state() != NodeState::kRetired) total += node.free_vgpus();
  }
  return total;
}

TEST(ClusterIndex, FreshClusterSeedsTotalsFromCapacity) {
  Cluster cluster(4);
  EXPECT_EQ(cluster.total_free_vcpus(), 4u * 16u);
  EXPECT_EQ(cluster.total_free_vgpus(), 4u * 7u);
  cluster.check_index_invariants(0.0);
}

TEST(ClusterIndex, AllocateReleaseKeepTotalsExact) {
  Cluster cluster(3);
  cluster.invoker(inv(0)).allocate(4, 2);
  cluster.invoker(inv(1)).allocate(16, 0);
  cluster.check_index_invariants(0.0);
  EXPECT_EQ(cluster.total_free_vcpus(), scan_free_vcpus(cluster));
  EXPECT_EQ(cluster.total_free_vgpus(), scan_free_vgpus(cluster));
  cluster.invoker(inv(0)).release(4, 2);
  cluster.invoker(inv(1)).release(16, 0);
  cluster.check_index_invariants(0.0);
  EXPECT_EQ(cluster.total_free_vcpus(), 3u * 16u);
}

TEST(ClusterIndex, WarmAddMakesNodeACandidate) {
  Cluster cluster(4);
  cluster.invoker(inv(2)).add_warm(fn(7), 0.0);
  cluster.invoker(inv(0)).add_warm(fn(7), 1.0);
  const std::set<InvokerId>& candidates = cluster.warm_candidates(fn(7));
  ASSERT_EQ(candidates.size(), 2u);
  // Ascending-id order reproduces the historical whole-fleet first-fit.
  EXPECT_EQ(*candidates.begin(), inv(0));
  EXPECT_EQ(*std::next(candidates.begin()), inv(2));
  EXPECT_TRUE(cluster.warm_candidates(fn(8)).empty());
  cluster.check_index_invariants(1.0);
}

TEST(ClusterIndex, AcquireLeavesLazySupersetIntact) {
  Cluster cluster(2);
  cluster.invoker(inv(1)).add_warm(fn(3), 0.0);
  EXPECT_TRUE(cluster.invoker(inv(1)).acquire_warm(fn(3), 5.0));
  // The index may still list the node (lazy superset); the invariant only
  // demands it contains every node with has_warm == true.
  cluster.check_index_invariants(5.0);
  EXPECT_FALSE(cluster.invoker(inv(1)).has_warm(fn(3), 5.0));
  EXPECT_FALSE(cluster.find_warm(fn(3), 5.0, accept_any).has_value());
  EXPECT_TRUE(cluster.warm_candidates(fn(3)).empty());
  cluster.check_index_invariants(5.0);
}

TEST(ClusterIndex, LazyExpiryObservedThenDropped) {
  Cluster cluster(2);
  cluster.invoker(inv(0)).add_warm(fn(1), 0.0, /*keep_alive=*/100.0);
  cluster.check_index_invariants(50.0);
  // Past expiry the entry is gone from the true state but may linger in the
  // candidate set until find_warm observes has_warm == false and drops it.
  EXPECT_FALSE(cluster.invoker(inv(0)).has_warm(fn(1), 200.0));
  cluster.check_index_invariants(200.0);
  EXPECT_FALSE(cluster.find_warm(fn(1), 200.0, accept_any).has_value());
  EXPECT_TRUE(cluster.warm_candidates(fn(1)).empty());
  cluster.check_index_invariants(200.0);
  // Re-parking after the drop re-inserts the candidate.
  cluster.invoker(inv(0)).add_warm(fn(1), 300.0);
  EXPECT_EQ(cluster.warm_candidates(fn(1)).count(inv(0)), 1u);
  cluster.check_index_invariants(300.0);
}

TEST(ClusterIndex, CrashErasesCandidatesEagerly) {
  Cluster cluster(3);
  cluster.invoker(inv(1)).add_warm(fn(4), 0.0);
  cluster.invoker(inv(1)).add_warm(fn(5), 0.0);
  cluster.invoker(inv(2)).add_warm(fn(4), 0.0);
  cluster.invoker(inv(1)).crash(10.0);
  // A crashed node must not be offered as a warm candidate for any function.
  EXPECT_EQ(cluster.warm_candidates(fn(4)).count(inv(1)), 0u);
  EXPECT_EQ(cluster.warm_candidates(fn(5)).count(inv(1)), 0u);
  EXPECT_EQ(cluster.warm_candidates(fn(4)).count(inv(2)), 1u);
  cluster.check_index_invariants(10.0);
  cluster.invoker(inv(1)).rejoin();
  cluster.check_index_invariants(10.0);
  cluster.invoker(inv(1)).add_warm(fn(4), 11.0);
  EXPECT_EQ(cluster.warm_candidates(fn(4)).count(inv(1)), 1u);
  cluster.check_index_invariants(11.0);
}

TEST(ClusterIndex, DrainRetireRemovesCapacityAndCandidates) {
  Cluster cluster(3);
  cluster.invoker(inv(0)).add_warm(fn(2), 0.0);
  cluster.invoker(inv(0)).begin_drain();
  // Draining nodes keep their warm pool (in-flight work may still land
  // warm); retiring releases everything.
  cluster.check_index_invariants(1.0);
  cluster.invoker(inv(0)).retire(2.0);
  EXPECT_EQ(cluster.warm_candidates(fn(2)).count(inv(0)), 0u);
  EXPECT_EQ(cluster.total_free_vcpus(), 2u * 16u);
  EXPECT_EQ(cluster.total_free_vgpus(), 2u * 7u);
  EXPECT_EQ(cluster.total_free_vcpus(), scan_free_vcpus(cluster));
  cluster.check_index_invariants(2.0);
}

TEST(ClusterIndex, WarmingNodeRejoinsTotalsBeforeActivation) {
  Cluster cluster(2);
  cluster.invoker(inv(1)).begin_drain();
  cluster.invoker(inv(1)).retire(0.0);
  EXPECT_EQ(cluster.total_free_vcpus(), 16u);
  cluster.check_index_invariants(0.0);
  // Elastic re-acquisition: Warming already contributes free capacity (the
  // scan counts every non-retired node), so the hook must add it back at
  // begin_warming, not at activate.
  cluster.invoker(inv(1)).begin_warming();
  EXPECT_EQ(cluster.total_free_vcpus(), 2u * 16u);
  EXPECT_EQ(cluster.total_free_vcpus(), scan_free_vcpus(cluster));
  cluster.check_index_invariants(1.0);
  cluster.invoker(inv(1)).activate();
  EXPECT_EQ(cluster.total_free_vcpus(), 2u * 16u);
  cluster.check_index_invariants(2.0);
}

TEST(ClusterIndex, FullLifecycleChurnStaysConsistent) {
  Cluster cluster(5);
  for (std::uint32_t round = 0; round < 4; ++round) {
    const TimeMs now = 100.0 * round;
    for (std::uint32_t i = 0; i < 5; ++i) {
      cluster.invoker(inv(i)).add_warm(fn(i % 3), now, 150.0);
    }
    cluster.invoker(inv(round % 5)).allocate(2, 1);
    cluster.check_index_invariants(now);
    cluster.invoker(inv((round + 1) % 5)).crash(now + 10.0);
    cluster.check_index_invariants(now + 10.0);
    cluster.invoker(inv((round + 1) % 5)).rejoin();
    cluster.invoker(inv(round % 5)).release(2, 1);
    cluster.check_index_invariants(now + 20.0);
  }
  // Scale the fleet down and back up through drain/retire/warming.
  cluster.invoker(inv(4)).begin_drain();
  cluster.check_index_invariants(500.0);
  cluster.invoker(inv(4)).retire(510.0);
  cluster.check_index_invariants(510.0);
  cluster.invoker(inv(4)).begin_warming();
  cluster.invoker(inv(4)).activate();
  cluster.invoker(inv(4)).add_warm(fn(0), 520.0);
  cluster.check_index_invariants(520.0);
  EXPECT_EQ(cluster.total_free_vcpus(), scan_free_vcpus(cluster));
  EXPECT_EQ(cluster.total_free_vgpus(), scan_free_vgpus(cluster));
}

struct WarmSpan {
  InvokerId invoker;
  FunctionId function;
  TimeMs since = 0.0;
  TimeMs end = 0.0;
  WarmEnd reason{};
  bool operator==(const WarmSpan&) const = default;
};

/// A cluster that logs every keep-alive window it closes.
struct LoggedCluster {
  Cluster cluster;
  std::vector<WarmSpan> log;

  explicit LoggedCluster(std::size_t nodes) : cluster(nodes) {
    cluster.set_warm_span_callback(
        [this](InvokerId i, FunctionId f, TimeMs since, TimeMs end,
               WarmEnd reason) { log.push_back({i, f, since, end, reason}); });
  }
  // The callback holds `this`.
  LoggedCluster(const LoggedCluster&) = delete;
  LoggedCluster& operator=(const LoggedCluster&) = delete;
};

/// One random churn step on `node`, chosen by `op` in [0, 1): park a warm
/// container, acquire one, crash or rejoin, retire or bring back, or (the
/// last tenth) nothing.
void churn(Invoker& node, FunctionId f, double op, TimeMs now,
           TimeMs keep_alive) {
  if (op < 0.45) {
    node.add_warm(f, now, keep_alive);
  } else if (op < 0.7) {
    (void)node.acquire_warm(f, now);
  } else if (op < 0.8) {
    if (node.alive()) {
      node.crash(now);
    } else {
      node.rejoin();
    }
  } else if (op < 0.9) {
    if (node.state() == NodeState::kActive) {
      node.begin_drain();
      node.retire(now);
    } else if (node.state() == NodeState::kRetired) {
      node.begin_warming();
    } else if (node.state() == NodeState::kWarming) {
      node.activate();
    }
  }
}

// find_warm against the walk it replaces: every invoker in id order,
// has_warm before accept. Two twin clusters take the same random adds,
// acquires, expiries, crashes and retirements; after each step both answer
// the same query with a random accept set, and the answers, the logged
// keep-alive spans and the index invariants must agree.
TEST(ClusterIndex, FindWarmMatchesAFleetWalkUnderChurn) {
  constexpr std::uint32_t kNodes = 6;
  constexpr std::uint32_t kFunctions = 4;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    RngStream rng = RngFactory(seed).stream("find-warm");
    const auto pick = [&rng](std::uint32_t n) {
      return static_cast<std::uint32_t>(rng.below(n));
    };
    LoggedCluster indexed(kNodes);
    LoggedCluster walked(kNodes);
    TimeMs now = 0.0;
    for (int step = 0; step < 400; ++step) {
      const InvokerId id = inv(pick(kNodes));
      const FunctionId f = fn(pick(kFunctions));
      const double op = rng.uniform();
      const TimeMs keep_alive = rng.uniform(10.0, 200.0);
      for (LoggedCluster* twin : {&indexed, &walked}) {
        churn(twin->cluster.invoker(id), f, op, now, keep_alive);
      }
      now += rng.uniform(0.0, 40.0);

      const FunctionId query = fn(pick(kFunctions));
      const std::uint32_t accepted = pick(1u << kNodes);
      const auto accept = [accepted](InvokerId i) {
        return ((accepted >> i.get()) & 1u) != 0;
      };
      std::optional<InvokerId> expected;
      for (const Invoker& node : walked.cluster.invokers()) {
        if (node.has_warm(query, now) && accept(node.id())) {
          expected = node.id();
          break;
        }
      }
      ASSERT_EQ(indexed.cluster.find_warm(query, now, accept), expected)
          << "step " << step;
      ASSERT_EQ(indexed.log, walked.log) << "step " << step;
      indexed.cluster.check_index_invariants(now);
      walked.cluster.check_index_invariants(now);
    }
  }
}

// warm_count against the walk its tally short-cuts: the sum of every
// invoker's count in id order. The twins take the same random churn as
// above, at whole-millisecond times, so that queries also land exactly on
// an expiry; after each step the indexed twin's warm_count must equal the
// walked twin's sum, with equal keep-alive span logs.
TEST(ClusterIndex, WarmCountMatchesAFleetWalkUnderChurn) {
  constexpr std::uint32_t kNodes = 6;
  constexpr std::uint32_t kFunctions = 4;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    RngStream rng = RngFactory(seed).stream("warm-count");
    const auto pick = [&rng](std::uint32_t n) {
      return static_cast<std::uint32_t>(rng.below(n));
    };
    LoggedCluster indexed(kNodes);
    LoggedCluster walked(kNodes);
    TimeMs now = 0.0;
    for (int step = 0; step < 400; ++step) {
      const InvokerId id = inv(pick(kNodes));
      const FunctionId f = fn(pick(kFunctions));
      const double op = rng.uniform();
      const TimeMs keep_alive = 10.0 + pick(190);
      for (LoggedCluster* twin : {&indexed, &walked}) {
        churn(twin->cluster.invoker(id), f, op, now, keep_alive);
      }
      now += pick(40);

      const FunctionId query = fn(pick(kFunctions));
      std::size_t expected = 0;
      for (const Invoker& node : walked.cluster.invokers()) {
        expected += node.warm_count(query, now);
      }
      ASSERT_EQ(indexed.cluster.warm_count(query, now), expected)
          << "step " << step;
      ASSERT_EQ(indexed.log, walked.log) << "step " << step;
      indexed.cluster.check_index_invariants(now);
      walked.cluster.check_index_invariants(now);
    }
  }
}

TEST(ClusterIndex, WarmCountAtTheExactExpiryCountsNothing) {
  LoggedCluster logged(3);
  logged.cluster.invoker(inv(1)).add_warm(fn(2), 100.0, /*keep_alive=*/50.0);
  EXPECT_EQ(logged.cluster.warm_count(fn(2), 149.0), 1u);
  EXPECT_TRUE(logged.log.empty());
  // Like prune_expired, an entry whose expiry equals `now` has expired.
  EXPECT_EQ(logged.cluster.warm_count(fn(2), 150.0), 0u);
  EXPECT_EQ(logged.log, (std::vector<WarmSpan>{
                            {inv(1), fn(2), 100.0, 150.0, WarmEnd::kExpired}}));
  logged.cluster.check_index_invariants(150.0);
}

TEST(ClusterIndex, WarmCountStaysExactPastAStaleBound) {
  LoggedCluster logged(3);
  Cluster& cluster = logged.cluster;
  cluster.invoker(inv(0)).add_warm(fn(1), 0.0, 100.0);   // expires at 100
  cluster.invoker(inv(1)).add_warm(fn(1), 0.0, 300.0);   // at 300
  cluster.invoker(inv(2)).add_warm(fn(1), 10.0, 500.0);  // at 510
  // The acquisition takes the entry expiring at 100 but leaves the bound
  // there, so the count at 200 walks the fleet and re-tightens it to 300.
  EXPECT_TRUE(cluster.invoker(inv(0)).acquire_warm(fn(1), 20.0));
  cluster.check_index_invariants(20.0);
  EXPECT_EQ(cluster.warm_count(fn(1), 200.0), 2u);
  EXPECT_EQ(cluster.warm_count(fn(1), 300.0), 1u);
  EXPECT_EQ(cluster.warm_count(fn(1), 509.0), 1u);
  EXPECT_EQ(cluster.warm_count(fn(1), 510.0), 0u);
  EXPECT_EQ(logged.log,
            (std::vector<WarmSpan>{
                {inv(0), fn(1), 0.0, 20.0, WarmEnd::kAcquired},
                {inv(1), fn(1), 0.0, 300.0, WarmEnd::kExpired},
                {inv(2), fn(1), 10.0, 510.0, WarmEnd::kExpired}}));
  cluster.check_index_invariants(510.0);
}

TEST(ClusterIndex, InvariantCheckPrunesAndTracesNothing) {
  LoggedCluster logged(2);
  logged.cluster.invoker(inv(0)).add_warm(fn(1), 0.0, 100.0);
  logged.cluster.invoker(inv(1)).add_warm(fn(1), 0.0, 300.0);
  logged.cluster.check_index_invariants(200.0);
  EXPECT_TRUE(logged.log.empty());
  // The expired entry is still parked, so a query observes it now.
  EXPECT_EQ(logged.cluster.invoker(inv(0)).parked_warm().size(), 1u);
  EXPECT_EQ(logged.cluster.warm_count(fn(1), 200.0), 1u);
  EXPECT_EQ(logged.log, (std::vector<WarmSpan>{
                            {inv(0), fn(1), 0.0, 100.0, WarmEnd::kExpired}}));
}

TEST(ClusterIndex, MovedClusterKeepsWorkingIndex) {
  Cluster original(2);
  original.invoker(inv(0)).add_warm(fn(9), 0.0);
  Cluster moved(std::move(original));
  // The index is heap-allocated, so invoker back-pointers survive the move.
  EXPECT_EQ(moved.warm_candidates(fn(9)).count(inv(0)), 1u);
  moved.invoker(inv(1)).add_warm(fn(9), 1.0);
  EXPECT_EQ(moved.warm_candidates(fn(9)).size(), 2u);
  moved.check_index_invariants(1.0);
}

}  // namespace
}  // namespace esg::cluster
