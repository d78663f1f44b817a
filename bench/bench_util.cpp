#include "bench_util.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/build_info.hpp"

namespace esg::bench {

TimeMs horizon_ms() {
  if (const char* env = std::getenv("ESG_BENCH_HORIZON_MS")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 60'000.0;
}

std::vector<std::uint64_t> seeds() {
  std::size_t n = 1;
  if (const char* env = std::getenv("ESG_BENCH_SEEDS")) {
    const long v = std::atol(env);
    if (v > 0) n = static_cast<std::size_t>(v);
  }
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(42 + i);
  return out;
}

exp::Scenario make_scenario(exp::SchedulerKind kind,
                            const exp::SettingCombo& combo) {
  exp::Scenario s;
  s.scheduler = kind;
  s.slo = combo.slo;
  s.load = combo.load;
  s.horizon_ms = horizon_ms();
  // Measure steady state: let the warm pools build up and queues settle
  // before counting (the transient affects every scheduler identically).
  s.warmup_ms = 0.55 * s.horizon_ms;
  return s;
}

std::vector<GridResult> run_grid(std::span<const exp::Scenario> grid) {
  const auto seed_list = seeds();

  // Expand to (scenario, seed) work items so the pool stays busy.
  struct Item {
    std::size_t scenario;
    std::uint64_t seed;
  };
  std::vector<Item> items;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    for (const std::uint64_t seed : seed_list) items.push_back({i, seed});
  }

  std::vector<GridResult> results(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    results[i].replicas.resize(seed_list.size());
  }

  std::atomic<std::size_t> next{0};
  const unsigned workers = std::min<unsigned>(
      std::max(1u, std::thread::hardware_concurrency()),
      static_cast<unsigned>(items.size()));
  {
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= items.size()) return;
          exp::Scenario scenario = grid[items[i].scenario];
          scenario.seed = items[i].seed;
          const std::size_t replica = i % seed_list.size();
          results[items[i].scenario].replicas[replica] =
              exp::run_scenario(scenario);
        }
      });
    }
  }
  for (auto& r : results) r.aggregate = exp::aggregate(r.replicas);
  return results;
}

void write_meta_json(std::FILE* out) {
  // Single source of truth for the provenance block: the same object backs
  // esg_sim --build-info, the esg.perf.v2 "meta" field, and every BENCH_*.json.
  std::fprintf(out, "  \"meta\": %s,\n", common::meta_json_object().c_str());
}

void print_banner(const std::string& id, const std::string& paper_claim) {
  std::printf("=== %s ===\n", id.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("horizon: %.0f ms simulated traffic, %zu seed(s)\n\n",
              horizon_ms(), seeds().size());
}

}  // namespace esg::bench
