#include "core/esg_1q.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "common/check.hpp"

namespace esg::core {

namespace {

using profile::ProfileEntry;
using profile::ProfileView;

/// Sorted (ascending) list of at most K values; used as minRSC.
class KBest {
 public:
  explicit KBest(std::size_t k) : k_(k) {}

  [[nodiscard]] bool full() const { return values_.size() == k_; }
  [[nodiscard]] Usd worst() const { return values_.back(); }

  /// True if a candidate with optimistic cost `rsc_low` can still matter.
  [[nodiscard]] bool admits(Usd rsc_low) const {
    return !full() || rsc_low < worst();
  }

  void insert(Usd rsc_fastest) {
    auto pos = std::upper_bound(values_.begin(), values_.end(), rsc_fastest);
    values_.insert(pos, rsc_fastest);
    if (values_.size() > k_) values_.pop_back();
  }

  void reset() { values_.clear(); }

 private:
  std::size_t k_;
  std::vector<Usd> values_;
};

/// A partial path: its totals, the index of its prefix in the previous
/// level and the index of its last configuration in this stage's view.
/// Paths through stages 0..i live in level i + 1, and level 0 holds the
/// empty prefix. No path copies its prefix; the results are rebuilt from
/// the links.
struct Node {
  TimeMs latency_ms = 0.0;
  Usd cost = 0.0;
  std::uint32_t parent = 0;
  std::uint32_t entry = 0;
};

constexpr auto kCheaper = [](const Node& a, const Node& b) { return a.cost < b.cost; };

}  // namespace

SearchResult esg_1q(std::span<const StageInput> stages, TimeMs g_slo_ms,
                    const SearchOptions& options) {
  if (stages.empty()) throw std::invalid_argument("esg_1q: no stages");
  if (options.k == 0) throw std::invalid_argument("esg_1q: k must be > 0");
  if (options.max_paths == 0) {
    throw std::invalid_argument("esg_1q: max_paths must be > 0");
  }
  const std::size_t n = stages.size();

  // Per-stage config lists (latency-ascending) under the batch caps: views
  // into the tables, so nothing is copied.
  std::vector<ProfileView> views(n);
  for (std::size_t i = 0; i < n; ++i) {
    check(stages[i].table != nullptr, "esg_1q: null profile table");
    views[i] = stages[i].table->view(stages[i].batch_cap);
    if (views[i].entries.empty()) {
      throw std::invalid_argument("esg_1q: a stage has no admissible config");
    }
  }

  // Suffix bounds over stages i..n-1; the search reads them from i = 1 on.
  // A view's first entry is its fastest, so it gives the stage's min
  // latency and the cost of finishing that stage as fast as possible.
  struct Suffix {
    TimeMs min_lat = 0.0;
    Usd min_cost = 0.0;
    Usd fast_cost = 0.0;
  };
  std::vector<Suffix> suf(n + 1);
  for (std::size_t i = n; i-- > 1;) {
    const ProfileEntry& fastest = views[i].entries.front();
    suf[i].min_lat = fastest.latency_ms + suf[i + 1].min_lat;
    suf[i].min_cost = views[i].min_per_job_cost + suf[i + 1].min_cost;
    suf[i].fast_cost = fastest.per_job_cost + suf[i + 1].fast_cost;
  }

  SearchResult result;
  SearchStats& stats = result.stats;
  TargetInterval& holds_for = result.holds_for;
  KBest min_rsc(options.k);

  std::vector<std::vector<Node>> levels(n + 1);
  levels[0].push_back(Node{});  // the empty prefix

  for (std::size_t i = 0; i < n; ++i) {
    min_rsc.reset();
    std::vector<Node>& paths = levels[i];
    std::vector<Node>& next = levels[i + 1];
    check(paths.size() <= std::numeric_limits<std::uint32_t>::max(),
          "esg_1q: level too large for its parent index");
    // Best-first: cheaper prefixes first tighten minRSC sooner.
    std::sort(paths.begin(), paths.end(), kCheaper);
    const auto list = views[i].entries;
    for (std::size_t p = 0; p < paths.size(); ++p) {
      const Node& path = paths[p];
      for (std::size_t j = 0; j < list.size(); ++j) {
        const ProfileEntry& e = list[j];
        ++stats.nodes_expanded;
        const TimeMs t_low = path.latency_ms + e.latency_ms + suf[i + 1].min_lat;
        if (t_low >= g_slo_ms) {
          ++stats.pruned_time;
          holds_for.hi = std::min(holds_for.hi, t_low);
          break;  // the list is latency-sorted: everything after is worse
        }
        holds_for.lo = std::max(holds_for.lo, t_low);
        const Usd rsc_low = path.cost + e.per_job_cost + suf[i + 1].min_cost;
        if (!min_rsc.admits(rsc_low)) {
          ++stats.pruned_cost;
          continue;
        }
        const Usd rsc_fastest = path.cost + e.per_job_cost + suf[i + 1].fast_cost;
        min_rsc.insert(rsc_fastest);
        next.push_back(Node{path.latency_ms + e.latency_ms, path.cost + e.per_job_cost,
                            static_cast<std::uint32_t>(p),
                            static_cast<std::uint32_t>(j)});
      }
    }
    if (next.size() > options.max_paths) {
      std::nth_element(next.begin(), next.begin() + options.max_paths, next.end(),
                       kCheaper);
      next.resize(options.max_paths);
    }
    stats.paths_kept = std::max(stats.paths_kept, next.size());
    if (next.empty()) break;  // nothing feasible
  }

  std::vector<Node>& complete = levels[n];
  if (!complete.empty()) {
    std::sort(complete.begin(), complete.end(), [](const Node& a, const Node& b) {
      if (a.cost != b.cost) return a.cost < b.cost;
      return a.latency_ms < b.latency_ms;
    });
    const std::size_t keep = std::min(options.k, complete.size());
    result.config_pq.resize(keep);
    for (std::size_t r = 0; r < keep; ++r) {
      SearchPath& out = result.config_pq[r];
      out.entries.resize(n);
      std::size_t at = r;
      for (std::size_t i = n; i-- > 0;) {
        const Node& node = levels[i + 1][at];
        out.entries[i] = views[i].entries[node.entry];
        at = node.parent;
      }
      out.total_latency_ms = complete[r].latency_ms;
      out.total_per_job_cost = complete[r].cost;
    }
    result.met_slo = true;
    return result;
  }

  // Nothing meets the target: fall back to the fastest path so the caller
  // can still make best-effort progress. A view is sorted by latency, ties
  // cheaper first, so its first entry is that stage's fastest.
  SearchPath fastest;
  for (const ProfileView& view : views) {
    const ProfileEntry& best = view.entries.front();
    fastest.entries.push_back(best);
    fastest.total_latency_ms += best.latency_ms;
    fastest.total_per_job_cost += best.per_job_cost;
  }
  result.config_pq.push_back(std::move(fastest));
  result.met_slo = false;
  return result;
}

}  // namespace esg::core
