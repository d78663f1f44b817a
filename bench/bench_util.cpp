#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "common/build_info.hpp"
#include "common/spec_lex.hpp"
#include "exp/run_all.hpp"

namespace esg::bench {

std::uint64_t env_integer(const char* name, std::uint64_t lo, std::uint64_t hi,
                          std::uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  try {
    return lex::Field{name, env}.integer(lo, hi);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

TimeMs horizon_ms() {
  return static_cast<TimeMs>(
      env_integer("ESG_BENCH_HORIZON_MS", 1, lex::kMaxId, 60'000));
}

std::vector<std::uint64_t> seeds() {
  // Capped well below what `out` could reserve: a replica is a whole run.
  const std::uint64_t n = env_integer("ESG_BENCH_SEEDS", 1, 1'000, 1);
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(42 + i);
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
  std::vector<exp::Scenario> runs;
  runs.reserve(grid.size() * seed_list.size());
  for (const exp::Scenario& scenario : grid) {
    for (const std::uint64_t seed : seed_list) {
      runs.push_back(scenario);
      runs.back().seed = seed;
    }
  }
  std::vector<exp::RunResult> ran = exp::run_all(runs);

  std::vector<GridResult> results(grid.size());
  for (std::size_t i = 0; i < ran.size(); ++i) {
    if (ran[i].error) {
      std::fprintf(stderr, "run %s/seed%llu failed: %s\n",
                   std::string(exp::to_string(runs[i].scheduler)).c_str(),
                   static_cast<unsigned long long>(runs[i].seed),
                   exp::error_message(ran[i].error).c_str());
      std::exit(1);
    }
    results[i / seed_list.size()].replicas.push_back(std::move(ran[i].output));
  }
  for (auto& r : results) r.aggregate = exp::aggregate(r.replicas);
  return results;
}

bool close_json(std::FILE* out, const std::string& path) {
  const bool failed = std::ferror(out) != 0;
  if (std::fclose(out) != 0 || failed) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
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
