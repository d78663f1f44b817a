// A golden digest of ESG_1Q over a seeded corpus of queries on the built-in
// (Table 3) profiles. Everything a caller can observe — feasibility, every
// configuration of every configPQ path, the bit patterns of both path
// totals and all four search statistics — is folded into one FNV-1a hash,
// recorded from the search before its partial paths became index-linked.
// A change to either pruning blade, the max_paths cut or the tie order of
// the sorts moves the digest. nodes_expanded is pinned too because the
// simulator charges scheduling overhead from it. A second digest pins the
// target interval each answer holds for, which the memo keys its cells by.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/esg_1q.hpp"
#include "core/search_memo.hpp"
#include "profile/function_spec.hpp"
#include "profile/profile_table.hpp"
#include "support/fnv1a.hpp"

namespace esg::core {
namespace {

constexpr int kQueries = 3'000;
constexpr std::uint64_t kGoldenDigest = 0x94749a684077799bull;
constexpr std::uint64_t kIntervalDigest = 0xa47a6a831a228ac7ull;

using test::Fnv1a;

struct Query {
  std::vector<StageInput> stages;
  TimeMs target_ms = 0.0;
  SearchOptions options;
};

/// 1-3 stages (a function may repeat), a first-stage batch cap that is
/// unconstrained or 1-40 (every batch size, the caps between them and caps
/// past the largest), a target of 0.5-2x the min-config latency sum, K in
/// {1, 5, 80} and max_paths either 3 (truncation on) or the default.
Query make_query(RngStream& rng, const profile::ProfileSet& set) {
  const auto specs = profile::builtin_specs();
  Query q;
  const std::size_t n = 1 + rng.below(3);
  TimeMs min_config_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& table = set.table(specs[rng.below(specs.size())].id);
    q.stages.push_back(StageInput{&table, 0});
    min_config_sum += table.min_config_entry().latency_ms;
  }
  q.stages.front().batch_cap =
      rng.chance(0.25) ? 0 : static_cast<std::uint16_t>(1 + rng.below(40));
  q.target_ms = min_config_sum * rng.uniform(0.5, 2.0);
  constexpr std::size_t kKs[] = {1, 5, 80};
  q.options.k = kKs[rng.below(3)];
  if (rng.chance(0.5)) q.options.max_paths = 3;
  return q;
}

void fold(Fnv1a& digest, const SearchResult& result) {
  digest.add_u64(result.met_slo ? 1 : 0);
  digest.add_u64(result.config_pq.size());
  for (const SearchPath& path : result.config_pq) {
    digest.add_u64(path.entries.size());
    for (const profile::ProfileEntry& e : path.entries) {
      digest.add_u64(e.config.batch);
      digest.add_u64(e.config.vcpus);
      digest.add_u64(e.config.vgpus);
    }
    digest.add_f64(path.total_latency_ms);
    digest.add_f64(path.total_per_job_cost);
  }
  digest.add_u64(result.stats.nodes_expanded);
  digest.add_u64(result.stats.pruned_time);
  digest.add_u64(result.stats.pruned_cost);
  digest.add_u64(result.stats.paths_kept);
}

TEST(SearchGolden, CorpusDigestIsPinned) {
  const profile::ProfileSet set = profile::ProfileSet::builtin();
  RngStream rng = RngFactory(16).stream("search-golden");
  Fnv1a digest;
  int infeasible = 0;
  int at_cap = 0;
  for (int i = 0; i < kQueries; ++i) {
    const Query q = make_query(rng, set);
    const SearchResult result = esg_1q(q.stages, q.target_ms, q.options);
    fold(digest, result);
    if (!result.met_slo) ++infeasible;
    if (result.stats.paths_kept == q.options.max_paths) ++at_cap;
  }
  // The corpus must reach both outcomes and the max_paths cap, or the
  // digest would pin less than it claims to.
  EXPECT_GT(infeasible, kQueries / 20);
  EXPECT_LT(infeasible, kQueries / 2);
  EXPECT_GT(at_cap, kQueries / 10);
  EXPECT_EQ(digest.value(), kGoldenDigest)
      << "digest 0x" << std::hex << digest.value();
}

// The bit patterns of holds_for over the same corpus, recorded from the
// search that applied both blades one configuration at a time: lo and hi
// are the tLow values of the last configuration each stage passed and of
// the first it broke off at, so a search that derives them per partial
// path must still land on the same doubles.
TEST(SearchGolden, TargetIntervalDigestIsPinned) {
  const profile::ProfileSet set = profile::ProfileSet::builtin();
  RngStream rng = RngFactory(16).stream("search-golden");
  Fnv1a digest;
  int bounded = 0;
  for (int i = 0; i < kQueries; ++i) {
    const Query q = make_query(rng, set);
    const SearchResult result = esg_1q(q.stages, q.target_ms, q.options);
    digest.add_f64(result.holds_for.lo);
    digest.add_f64(result.holds_for.hi);
    if (std::isfinite(result.holds_for.lo) && std::isfinite(result.holds_for.hi)) {
      ++bounded;
    }
  }
  // Most intervals must be closed on both sides, or the digest would pin
  // mostly infinities.
  EXPECT_GT(bounded, kQueries / 2);
  EXPECT_EQ(digest.value(), kIntervalDigest)
      << "digest 0x" << std::hex << digest.value();
}

// The same corpus through one SearchMemo: the first pass mixes misses and
// hits, and the second, whose every target lies in a cell the first pass
// stored, is answered from the memo alone. Both must give the digest.
TEST(SearchGolden, CorpusThroughOneMemoReproducesTheDigest) {
  const profile::ProfileSet set = profile::ProfileSet::builtin();
  SearchMemo memo;
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(::testing::Message() << "pass " << pass);
    RngStream rng = RngFactory(16).stream("search-golden");
    Fnv1a digest;
    const std::size_t hits = memo.hits();
    for (int i = 0; i < kQueries; ++i) {
      const Query q = make_query(rng, set);
      fold(digest, memo.search(q.stages, q.target_ms, q.options));
    }
    EXPECT_EQ(digest.value(), kGoldenDigest)
        << "digest 0x" << std::hex << digest.value();
    if (pass == 1) {
      EXPECT_EQ(memo.hits() - hits, static_cast<std::size_t>(kQueries));
    }
  }
}

}  // namespace
}  // namespace esg::core
