// An exact memo of ESG_1Q answers (DESIGN.md §5). ESG re-plans at every
// stage dispatch, and most of those searches repeat an earlier one: the
// same stage views, only another target. A search's answer holds for every
// target in its interval (lo, hi] (SearchResult::holds_for), so the memo
// keeps, per key — the searched views and the search options — one cell per
// interval, in a map keyed by hi. Two searches of one key that share a
// target make the same decisions and so return the same interval: the cells
// of a key never overlap, and the first cell with hi >= g is the only one
// that can hold g. A target is answered from that cell when lo < g, and by
// a fresh esg_1q call, whose cell is then stored, when not.
//
// A cell is stored compactly: each path as one entry index per stage into
// that stage's view, and the cell's met_slo and search statistics. A hit
// rebuilds the SearchResult from them, recomputing each path's totals by
// the search's own sums (stage by stage, from zero), so it is bit-identical
// to the fresh search's, nodes_expanded included (the simulator charges
// scheduling overhead from it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "core/esg_1q.hpp"
#include "profile/profile_table.hpp"

namespace esg::core {

class SearchMemo {
 public:
  /// Returns exactly what esg_1q(stages, g_slo_ms, options) returns, and
  /// throws what it throws. The stages' tables must outlive the memo.
  [[nodiscard]] SearchResult search(std::span<const StageInput> stages,
                                    TimeMs g_slo_ms,
                                    const SearchOptions& options = {});

  /// Cells stored, over all keys.
  [[nodiscard]] std::size_t cells() const { return cells_; }
  /// Searches answered from a stored cell.
  [[nodiscard]] std::size_t hits() const { return hits_; }

 private:
  /// The searched views, identified by their first entry (a view is a
  /// slice of its table's storage, and no two slices start at one entry),
  /// and the two options that shape the answer.
  struct Key {
    std::size_t k = 0;
    std::size_t max_paths = 0;
    std::vector<const profile::ProfileEntry*> views;

    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };

  /// A SearchResult in 32 bytes. Its paths are `paths` runs of one entry
  /// index per stage, from Cells::entries[first_entry] on.
  struct Cell {
    TimeMs lo = 0.0;
    std::uint32_t nodes_expanded = 0;
    std::uint32_t pruned_time = 0;
    std::uint32_t pruned_cost = 0;
    std::uint32_t paths_kept = 0;
    std::uint32_t first_entry = 0;
    std::uint16_t paths = 0;
    bool met_slo = false;
  };
  static_assert(sizeof(Cell) == 32);
  struct Cells {
    std::map<TimeMs, Cell> by_hi;
    std::vector<std::uint16_t> entries;
  };

  void store(Cells& cells, const SearchResult& result);

  std::unordered_map<Key, Cells, KeyHash> memo_;
  // Scratch reused by every search, so a hit allocates only its result.
  Key key_;
  std::vector<profile::ProfileView> views_;
  std::size_t cells_ = 0;
  std::size_t hits_ = 0;
};

}  // namespace esg::core
