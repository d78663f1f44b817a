// SearchMemo must answer every target exactly as a fresh esg_1q call does:
// the same configuration in every stage of every path, the same bits in
// both path totals, met_slo, all four statistics and the target interval.
// The targets are random ones per key, then each stored cell's lo and hi
// and their std::nextafter neighbours, the only places where a cell's
// bounds can be wrong. Each cell is also probed through a memo that holds
// only that cell, so a target just outside it cannot be answered by a
// neighbouring cell that happens to be stored.
#include "core/search_memo.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "profile/function_spec.hpp"
#include "profile/profile_table.hpp"

namespace esg::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_entry(const profile::ProfileEntry& a,
                       const profile::ProfileEntry& b) {
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(bits(a.latency_ms), bits(b.latency_ms));
  EXPECT_EQ(bits(a.task_cost), bits(b.task_cost));
  EXPECT_EQ(bits(a.per_job_cost), bits(b.per_job_cost));
}

/// Bit-for-bit equality of everything a SearchResult carries.
void expect_same(const SearchResult& memo, const SearchResult& fresh) {
  EXPECT_EQ(memo.met_slo, fresh.met_slo);
  ASSERT_EQ(memo.config_pq.size(), fresh.config_pq.size());
  for (std::size_t p = 0; p < fresh.config_pq.size(); ++p) {
    const SearchPath& a = memo.config_pq[p];
    const SearchPath& b = fresh.config_pq[p];
    ASSERT_EQ(a.entries.size(), b.entries.size()) << "path " << p;
    for (std::size_t i = 0; i < b.entries.size(); ++i) {
      expect_same_entry(a.entries[i], b.entries[i]);
    }
    EXPECT_EQ(bits(a.total_latency_ms), bits(b.total_latency_ms)) << "path " << p;
    EXPECT_EQ(bits(a.total_per_job_cost), bits(b.total_per_job_cost))
        << "path " << p;
  }
  EXPECT_EQ(memo.stats.nodes_expanded, fresh.stats.nodes_expanded);
  EXPECT_EQ(memo.stats.pruned_time, fresh.stats.pruned_time);
  EXPECT_EQ(memo.stats.pruned_cost, fresh.stats.pruned_cost);
  EXPECT_EQ(memo.stats.paths_kept, fresh.stats.paths_kept);
  EXPECT_EQ(bits(memo.holds_for.lo), bits(fresh.holds_for.lo));
  EXPECT_EQ(bits(memo.holds_for.hi), bits(fresh.holds_for.hi));
}

struct Key {
  std::vector<StageInput> stages;
  SearchOptions options;
  TimeMs min_config_sum = 0.0;
};

/// 1-3 built-in stages (a function may repeat), a first-stage batch cap that
/// is unconstrained or 1-40, K in {1, 5, 80} and max_paths 3 or the default.
Key make_key(RngStream& rng, const profile::ProfileSet& set) {
  const auto specs = profile::builtin_specs();
  Key key;
  const std::size_t n = 1 + rng.below(3);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& table = set.table(specs[rng.below(specs.size())].id);
    key.stages.push_back(StageInput{&table, 0});
    key.min_config_sum += table.min_config_entry().latency_ms;
  }
  key.stages.front().batch_cap =
      rng.chance(0.25) ? 0 : static_cast<std::uint16_t>(1 + rng.below(40));
  constexpr std::size_t kKs[] = {1, 5, 80};
  key.options.k = kKs[rng.below(3)];
  if (rng.chance(0.5)) key.options.max_paths = 3;
  return key;
}

/// The targets at which a cell's bounds are decided.
std::vector<TimeMs> edge_targets(const TargetInterval& cell) {
  return {cell.hi,
          std::nextafter(cell.hi, -kInf),
          std::nextafter(cell.hi, kInf),
          cell.lo,
          std::nextafter(cell.lo, kInf),
          std::nextafter(cell.lo, -kInf)};
}

TEST(SearchMemo, AnswersEveryTargetAsAFreshSearchDoes) {
  const profile::ProfileSet set = profile::ProfileSet::builtin();
  RngStream rng = RngFactory(23).stream("search-memo");
  SearchMemo memo;
  std::size_t edge_hits = 0;
  std::size_t edges = 0;
  for (int k = 0; k < 30; ++k) {
    const Key key = make_key(rng, set);
    SCOPED_TRACE(::testing::Message() << "key " << k);
    std::set<std::pair<TimeMs, TimeMs>> cells;
    for (int t = 0; t < 48; ++t) {
      const TimeMs g = key.min_config_sum * rng.uniform(0.3, 2.5);
      const SearchResult fresh = esg_1q(key.stages, g, key.options);
      ASSERT_LT(fresh.holds_for.lo, g);
      ASSERT_LE(g, fresh.holds_for.hi);
      expect_same(memo.search(key.stages, g, key.options), fresh);
      cells.emplace(fresh.holds_for.lo, fresh.holds_for.hi);
    }
    for (const auto& [lo, hi] : cells) {
      SearchMemo one_cell;
      for (const TimeMs g : edge_targets(TargetInterval{lo, hi})) {
        SCOPED_TRACE(::testing::Message() << "target " << g << " of (" << lo
                                          << ", " << hi << "]");
        const SearchResult fresh = esg_1q(key.stages, g, key.options);
        const std::size_t hits = one_cell.hits();
        expect_same(one_cell.search(key.stages, g, key.options), fresh);
        expect_same(memo.search(key.stages, g, key.options), fresh);
        edge_hits += one_cell.hits() - hits;
        ++edges;
      }
    }
  }
  // The random targets repeat cells, and the edge probes inside a cell hit
  // it: the memo must have answered, not just searched.
  EXPECT_GT(memo.hits(), memo.cells());
  EXPECT_GT(edge_hits, edges / 6);
}

TEST(SearchMemo, HitsAnswerWithoutSearching) {
  const profile::ProfileSet set = profile::ProfileSet::builtin();
  const std::vector<StageInput> stages = {
      {&set.table(profile::id_of(profile::Function::kDeblur)), 4},
      {&set.table(profile::id_of(profile::Function::kSegmentation)), 0}};
  SearchMemo memo;
  const SearchResult first = memo.search(stages, 900.0);
  EXPECT_EQ(memo.cells(), 1u);
  EXPECT_EQ(memo.hits(), 0u);
  ASSERT_LT(first.holds_for.lo, 900.0);
  ASSERT_LE(900.0, first.holds_for.hi);
  // Every target of the cell is a hit, and a hit still reports the effort
  // of the search it stands for.
  const SearchResult at_hi = memo.search(stages, first.holds_for.hi);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(at_hi.stats.nodes_expanded, first.stats.nodes_expanded);
  // Just past either bound is another cell.
  (void)memo.search(stages, std::nextafter(first.holds_for.hi, kInf));
  (void)memo.search(stages, first.holds_for.lo);
  EXPECT_EQ(memo.cells(), 3u);
  EXPECT_EQ(memo.hits(), 1u);
  // The same views under other options are another key.
  SearchOptions k1;
  k1.k = 1;
  (void)memo.search(stages, 900.0, k1);
  EXPECT_EQ(memo.cells(), 4u);
  // A cap that selects the same view (the table has no batch 5) is the
  // same key.
  std::vector<StageInput> cap5 = stages;
  cap5.front().batch_cap = 5;
  expect_same(memo.search(cap5, 900.0), first);
  EXPECT_EQ(memo.hits(), 2u);
}

TEST(SearchMemo, RejectsWhatEsg1qRejects) {
  const profile::ProfileSet set = profile::ProfileSet::builtin();
  SearchMemo memo;
  EXPECT_THROW((void)memo.search({}, 100.0), std::invalid_argument);
  const std::vector<StageInput> stages = {
      {&set.table(profile::id_of(profile::Function::kDeblur)), 0}};
  SearchOptions no_k;
  no_k.k = 0;
  EXPECT_THROW((void)memo.search(stages, 100.0, no_k), std::invalid_argument);
  SearchOptions no_paths;
  no_paths.max_paths = 0;
  EXPECT_THROW((void)memo.search(stages, 100.0, no_paths), std::invalid_argument);
  EXPECT_EQ(memo.cells(), 0u);
}

}  // namespace
}  // namespace esg::core
