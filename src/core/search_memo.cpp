#include "core/search_memo.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/check.hpp"

namespace esg::core {

std::size_t SearchMemo::KeyHash::operator()(const Key& key) const {
  std::size_t h = key.k * 0x9e3779b97f4a7c15ull + key.max_paths;
  for (const profile::ProfileEntry* view : key.views) {
    h ^= std::hash<const profile::ProfileEntry*>{}(view) + 0x9e3779b97f4a7c15ull +
         (h << 6) + (h >> 2);
  }
  return h;
}

SearchResult SearchMemo::search(std::span<const StageInput> stages,
                                TimeMs g_slo_ms, const SearchOptions& options) {
  key_.k = options.k;
  key_.max_paths = options.max_paths;
  key_.views.clear();
  views_.clear();
  for (const StageInput& stage : stages) {
    // A null table or an empty view is esg_1q's to reject.
    if (stage.table == nullptr) return esg_1q(stages, g_slo_ms, options);
    views_.push_back(stage.table->view(stage.batch_cap));
    if (views_.back().entries.empty()) return esg_1q(stages, g_slo_ms, options);
    key_.views.push_back(views_.back().entries.data());
  }

  auto key = memo_.find(key_);
  if (key != memo_.end()) {
    const Cells& cells = key->second;
    const auto hit = cells.by_hi.lower_bound(g_slo_ms);
    if (hit != cells.by_hi.end() && hit->second.lo < g_slo_ms) {
      ++hits_;
      const Cell& cell = hit->second;
      SearchResult result;
      result.met_slo = cell.met_slo;
      result.stats = SearchStats{cell.nodes_expanded, cell.pruned_time,
                                 cell.pruned_cost, cell.paths_kept};
      result.holds_for = TargetInterval{cell.lo, hit->first};
      result.config_pq.resize(cell.paths);
      const std::uint16_t* entry = cells.entries.data() + cell.first_entry;
      for (SearchPath& path : result.config_pq) {
        path.entries.reserve(views_.size());
        for (const profile::ProfileView& view : views_) {
          const profile::ProfileEntry& e = view.entries[*entry++];
          path.entries.push_back(e);
          // esg_1q sums a path's totals in this order, from zero.
          path.total_latency_ms += e.latency_ms;
          path.total_per_job_cost += e.per_job_cost;
        }
      }
      return result;
    }
  }

  SearchResult result = esg_1q(stages, g_slo_ms, options);
  if (key == memo_.end()) key = memo_.emplace(key_, Cells{}).first;
  store(key->second, result);
  return result;
}

void SearchMemo::store(Cells& cells, const SearchResult& result) {
  // A cell that does not fit the compact layout is not stored; the built-in
  // tables and ESG's searches are orders of magnitude inside it.
  constexpr std::size_t kMax32 = std::numeric_limits<std::uint32_t>::max();
  constexpr std::size_t kMax16 = std::numeric_limits<std::uint16_t>::max();
  const SearchStats& stats = result.stats;
  const std::size_t entries = result.config_pq.size() * views_.size();
  if (std::max({stats.nodes_expanded, stats.pruned_time, stats.pruned_cost,
                stats.paths_kept, cells.entries.size() + entries}) > kMax32 ||
      result.config_pq.size() > kMax16 ||
      std::ranges::any_of(views_, [](const profile::ProfileView& view) {
        return view.entries.size() > kMax16 + 1;
      })) {
    return;
  }
  Cell cell;
  cell.lo = result.holds_for.lo;
  cell.nodes_expanded = static_cast<std::uint32_t>(stats.nodes_expanded);
  cell.pruned_time = static_cast<std::uint32_t>(stats.pruned_time);
  cell.pruned_cost = static_cast<std::uint32_t>(stats.pruned_cost);
  cell.paths_kept = static_cast<std::uint32_t>(stats.paths_kept);
  cell.first_entry = static_cast<std::uint32_t>(cells.entries.size());
  cell.paths = static_cast<std::uint16_t>(result.config_pq.size());
  cell.met_slo = result.met_slo;
  // A cell already stored under this hi is this same cell (cells of a key
  // never overlap), searched again for a target that no cell holds: -inf,
  // or NaN.
  if (!cells.by_hi.emplace(result.holds_for.hi, cell).second) return;
  ++cells_;
  for (const SearchPath& path : result.config_pq) {
    for (std::size_t i = 0; i < views_.size(); ++i) {
      // A linear find: a path's entry lies within the prefix of its view
      // that passed the time blade, and a miss has just run a search that
      // scanned that prefix for every partial path it extended.
      const auto view = views_[i].entries;
      const auto at = std::ranges::find(view, path.entries[i].config,
                                        &profile::ProfileEntry::config);
      check(at != view.end(), "SearchMemo: a path entry is not in its view");
      cells.entries.push_back(static_cast<std::uint16_t>(at - view.begin()));
    }
  }
}

}  // namespace esg::core
