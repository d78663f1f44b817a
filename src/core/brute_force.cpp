#include "core/brute_force.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/check.hpp"

namespace esg::core {

SearchResult brute_force_search(std::span<const StageInput> stages,
                                TimeMs g_slo_ms, const SearchOptions& options) {
  if (stages.empty()) throw std::invalid_argument("brute_force_search: no stages");
  if (options.k == 0) throw std::invalid_argument("brute_force_search: k == 0");
  const std::size_t n = stages.size();

  std::vector<std::vector<profile::ProfileEntry>> lists(n);
  for (std::size_t i = 0; i < n; ++i) {
    check(stages[i].table != nullptr, "brute_force_search: null table");
    // Filtered here rather than taken from ProfileTable::view, so this
    // oracle does not share ESG_1Q's inputs.
    for (const profile::ProfileEntry& e : stages[i].table->entries()) {
      if (stages[i].batch_cap == 0 || e.config.batch <= stages[i].batch_cap) {
        lists[i].push_back(e);
      }
    }
    if (lists[i].empty()) {
      throw std::invalid_argument("brute_force_search: empty stage");
    }
  }

  SearchResult result;
  std::vector<SearchPath> feasible;
  SearchPath fastest;
  fastest.total_latency_ms = 0.0;

  // Track the fastest path for the fallback.
  for (std::size_t i = 0; i < n; ++i) {
    const auto best = std::min_element(
        lists[i].begin(), lists[i].end(),
        [](const auto& a, const auto& b) { return a.latency_ms < b.latency_ms; });
    fastest.entries.push_back(*best);
    fastest.total_latency_ms += best->latency_ms;
    fastest.total_per_job_cost += best->per_job_cost;
  }

  std::vector<std::size_t> cursor(n, 0);
  for (;;) {
    ++result.stats.nodes_expanded;
    TimeMs latency = 0.0;
    Usd cost = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      latency += lists[i][cursor[i]].latency_ms;
      cost += lists[i][cursor[i]].per_job_cost;
    }
    if (latency < g_slo_ms) {
      SearchPath p;
      p.entries.reserve(n);
      for (std::size_t i = 0; i < n; ++i) p.entries.push_back(lists[i][cursor[i]]);
      p.total_latency_ms = latency;
      p.total_per_job_cost = cost;
      feasible.push_back(std::move(p));
      // Keep memory bounded: trim to the K cheapest once in a while.
      if (feasible.size() > options.k * 64) {
        std::nth_element(feasible.begin(), feasible.begin() + options.k,
                         feasible.end(), [](const auto& a, const auto& b) {
                           return a.total_per_job_cost < b.total_per_job_cost;
                         });
        feasible.resize(options.k);
      }
    }
    // Odometer increment.
    std::size_t i = 0;
    while (i < n && ++cursor[i] == lists[i].size()) {
      cursor[i] = 0;
      ++i;
    }
    if (i == n) break;
  }

  if (!feasible.empty()) {
    std::sort(feasible.begin(), feasible.end(), [](const auto& a, const auto& b) {
      if (a.total_per_job_cost != b.total_per_job_cost) {
        return a.total_per_job_cost < b.total_per_job_cost;
      }
      return a.total_latency_ms < b.total_latency_ms;
    });
    feasible.resize(std::min(options.k, feasible.size()));
    result.config_pq = std::move(feasible);
    result.met_slo = true;
  } else {
    result.config_pq.push_back(std::move(fastest));
    result.met_slo = false;
  }
  return result;
}

}  // namespace esg::core
