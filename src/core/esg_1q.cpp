#include "core/esg_1q.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"

namespace esg::core {

namespace {

using profile::ProfileEntry;
using profile::ProfileView;

constexpr Usd kInf = std::numeric_limits<Usd>::infinity();

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

/// Bounds over the stages after the one being extended.
struct Suffix {
  TimeMs min_lat = 0.0;
  Usd min_cost = 0.0;
  Usd fast_cost = 0.0;
};

/// What the time blade leaves of one partial path at one stage. tLow never
/// decreases along the latency-sorted list (IEEE addition is monotone), so
/// the configurations that pass it are the list's first `passing` ones.
/// `rsc_low` is the least rscLow among them (+inf when none passes): every
/// other rscLow is at least as large, so the cost blade rejects all of them
/// exactly when it rejects this one.
struct Reach {
  Usd rsc_low = kInf;
  std::uint32_t passing = 0;
};

/// Levels of at least this many paths are ordered by cost buckets; smaller
/// ones are sorted whole.
constexpr std::size_t kBucketedLevel = 64;

/// Scratch a search reuses from one large level to the next.
struct Scratch {
  std::vector<Reach> reach;           ///< per path, in the level's order
  std::vector<std::uint32_t> order;   ///< passing paths, bucket by bucket
  std::vector<std::uint32_t> ends;    ///< each bucket's end in `order`
  std::vector<std::uint32_t> alive;   ///< one bucket's paths left to extend
};

/// Extends one level's partial paths through the next stage's list.
class Stage {
 public:
  Stage(std::span<const ProfileEntry> list, const Suffix& rest, TimeMs g_slo_ms,
        KBest& min_rsc, std::vector<Node>& next, SearchResult& result)
      : list_(list), rest_(rest), g_slo_ms_(g_slo_ms), min_rsc_(min_rsc),
        next_(next), stats_(result.stats), holds_for_(result.holds_for) {}

  /// Algorithm 1's order: every path, cheapest first, as std::sort(kCheaper)
  /// leaves them. Children link to the sorted positions. Returns the
  /// configurations that passed the time blade.
  std::size_t extend_sorted(std::vector<Node>& paths) {
    std::sort(paths.begin(), paths.end(), kCheaper);
    std::size_t passing = 0;
    for (std::size_t p = 0; p < paths.size(); ++p) {
      const Reach reach = time_blade(paths[p]);
      passing += reach.passing;
      extend(paths[p], static_cast<std::uint32_t>(p), reach);
    }
    return passing;
  }

  /// The same extensions in the same order, without sorting the paths the
  /// cost blade drops: a dropped path changes no state, so where it would
  /// sit in that order does not matter. The paths are bucketed by the bit
  /// pattern of their cost, which orders finite non-negative doubles like
  /// their values and puts equal costs in one bucket. Walking the buckets
  /// cheapest first, each bucket sheds the paths minRSC already rejects (it
  /// only tightens, so they stay rejected) and sorts the rest. Children link
  /// to the level's positions as generated, which it leaves in place.
  ///
  /// Returns nothing when two of the sorted paths share a cost: their order
  /// is then std::sort's tie order over the whole level, which only
  /// extend_sorted reproduces, so the caller redoes the level with it.
  std::optional<std::size_t> extend_cheapest_first(const std::vector<Node>& paths,
                                                   Scratch& s) {
    s.reach.resize(paths.size());
    std::size_t passing = 0;
    std::size_t live = 0;
    std::uint64_t low = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t high = 0;
    for (std::size_t p = 0; p < paths.size(); ++p) {
      s.reach[p] = time_blade(paths[p]);
      if (s.reach[p].passing == 0) continue;  // extends nothing, in any order
      passing += s.reach[p].passing;
      ++live;
      const auto bits = std::bit_cast<std::uint64_t>(paths[p].cost);
      low = std::min(low, bits);
      high = std::max(high, bits);
    }
    if (live == 0) return passing;
    check(high < std::bit_cast<std::uint64_t>(kInf),
          "esg_1q: path costs must be finite and non-negative");

    // About one bucket per live path.
    const int shift = std::max(0, static_cast<int>(std::bit_width(high - low)) -
                                      static_cast<int>(std::bit_width(live)));
    const auto bucket = [&](const Node& path) {
      return (std::bit_cast<std::uint64_t>(path.cost) - low) >> shift;
    };
    s.ends.assign(((high - low) >> shift) + 1, 0);
    for (std::size_t p = 0; p < paths.size(); ++p) {
      if (s.reach[p].passing > 0) ++s.ends[bucket(paths[p])];
    }
    std::uint32_t start = 0;
    for (std::uint32_t& end : s.ends) start += std::exchange(end, start);
    s.order.resize(live);
    for (std::size_t p = 0; p < paths.size(); ++p) {
      if (s.reach[p].passing > 0) {
        s.order[s.ends[bucket(paths[p])]++] = static_cast<std::uint32_t>(p);
      }
    }

    const auto cheaper = [&](std::uint32_t a, std::uint32_t b) {
      return paths[a].cost < paths[b].cost;
    };
    const auto tied = [&](std::uint32_t a, std::uint32_t b) {
      return paths[a].cost == paths[b].cost;
    };
    std::size_t begin = 0;
    for (const std::uint32_t end : s.ends) {
      s.alive.clear();
      for (; begin < end; ++begin) {
        const std::uint32_t p = s.order[begin];
        if (min_rsc_.admits(s.reach[p].rsc_low)) s.alive.push_back(p);
      }
      std::sort(s.alive.begin(), s.alive.end(), cheaper);
      if (std::adjacent_find(s.alive.begin(), s.alive.end(), tied) != s.alive.end()) {
        return std::nullopt;
      }
      for (const std::uint32_t p : s.alive) extend(paths[p], p, s.reach[p]);
    }
    return passing;
  }

 private:
  /// The time blade for one path, applied once: scans the passing prefix of
  /// the list and counts what Algorithm 1 examines (each passing
  /// configuration, and the one that breaks the stage off).
  Reach time_blade(const Node& path) {
    Usd cheapest = kInf;
    TimeMs last = 0.0;
    std::size_t j = 0;
    for (; j < list_.size(); ++j) {
      const TimeMs t_low = path.latency_ms + list_[j].latency_ms + rest_.min_lat;
      if (t_low >= g_slo_ms_) {
        ++stats_.pruned_time;
        holds_for_.hi = std::min(holds_for_.hi, t_low);
        break;  // the list is latency-sorted: everything after is worse
      }
      last = t_low;
      cheapest = std::min(cheapest, list_[j].per_job_cost);
    }
    stats_.nodes_expanded += j < list_.size() ? j + 1 : j;
    if (j == 0) return {};
    holds_for_.lo = std::max(holds_for_.lo, last);
    return {path.cost + cheapest + rest_.min_cost, static_cast<std::uint32_t>(j)};
  }

  /// The cost blade for one path, then for each passing configuration in
  /// list order, as Algorithm 1 applies it. A path whose cheapest passing
  /// configuration minRSC rejects is dropped without visiting any.
  void extend(const Node& path, std::uint32_t p, const Reach& reach) {
    if (!min_rsc_.admits(reach.rsc_low)) return;
    for (std::uint32_t j = 0; j < reach.passing; ++j) {
      const ProfileEntry& e = list_[j];
      const Usd cost = path.cost + e.per_job_cost;
      if (!min_rsc_.admits(cost + rest_.min_cost)) continue;
      min_rsc_.insert(cost + rest_.fast_cost);
      next_.push_back(Node{path.latency_ms + e.latency_ms, cost, p, j});
    }
  }

  std::span<const ProfileEntry> list_;
  const Suffix& rest_;
  TimeMs g_slo_ms_;
  KBest& min_rsc_;
  std::vector<Node>& next_;
  SearchStats& stats_;
  TargetInterval& holds_for_;
};

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
  std::vector<Suffix> suf(n + 1);
  for (std::size_t i = n; i-- > 1;) {
    const ProfileEntry& fastest = views[i].entries.front();
    suf[i].min_lat = fastest.latency_ms + suf[i + 1].min_lat;
    suf[i].min_cost = views[i].min_per_job_cost + suf[i + 1].min_cost;
    suf[i].fast_cost = fastest.per_job_cost + suf[i + 1].fast_cost;
  }

  SearchResult result;
  SearchStats& stats = result.stats;
  KBest min_rsc(options.k);
  Scratch scratch;

  std::vector<std::vector<Node>> levels(n + 1);
  levels[0].push_back(Node{});  // the empty prefix

  for (std::size_t i = 0; i < n; ++i) {
    min_rsc.reset();
    std::vector<Node>& paths = levels[i];
    std::vector<Node>& next = levels[i + 1];
    check(paths.size() <= std::numeric_limits<std::uint32_t>::max(),
          "esg_1q: level too large for its parent index");
    // Best-first: cheaper prefixes first tighten minRSC sooner.
    Stage stage(views[i].entries, suf[i + 1], g_slo_ms, min_rsc, next, result);
    std::optional<std::size_t> passing;
    if (paths.size() >= kBucketedLevel) {
      const SearchStats stats_before = stats;
      const TargetInterval holds_before = result.holds_for;
      passing = stage.extend_cheapest_first(paths, scratch);
      if (!passing) {  // a tie: undo the level and redo it in sorted order
        stats = stats_before;
        result.holds_for = holds_before;
        next.clear();
        min_rsc.reset();
      }
    }
    if (!passing) passing = stage.extend_sorted(paths);
    // Every passing configuration that was not extended was cost-pruned.
    stats.pruned_cost += *passing - next.size();
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
