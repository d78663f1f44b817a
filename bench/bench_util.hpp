// Shared helpers for the per-figure/table bench binaries.
//
// Environment knobs (all optional; a bad value exits 2, see env_integer):
//   ESG_BENCH_HORIZON_MS — arrival-window length per run (default 60000)
//   ESG_BENCH_SEEDS      — replicas per scenario (default 1, at most 1000)
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "exp/scenario.hpp"

namespace esg::bench {

/// The environment variable `name` as an integer in [lo, hi], or `fallback`
/// when it is unset. Any other value prints "<name> must be an integer in
/// [lo, hi], got '<value>'" to stderr and exits 2. Every bench knob that
/// takes a number reads through here.
[[nodiscard]] std::uint64_t env_integer(const char* name, std::uint64_t lo,
                                        std::uint64_t hi,
                                        std::uint64_t fallback);

/// Arrival horizon from the environment (default 60 s of simulated traffic).
[[nodiscard]] TimeMs horizon_ms();

/// Replica seeds from the environment (default {42}).
[[nodiscard]] std::vector<std::uint64_t> seeds();

/// A paper scenario: scheduler x (SLO, load) combo with the bench horizon.
[[nodiscard]] exp::Scenario make_scenario(exp::SchedulerKind kind,
                                          const exp::SettingCombo& combo);

/// Runs every scenario over all seeds through exp::run_all; outputs are
/// ordered like the inputs and each entry aggregates its seeds. Once every
/// run has finished, the first failed run is reported and the bench exits 1.
struct GridResult {
  exp::Aggregate aggregate;
  std::vector<exp::RunOutput> replicas;
};

[[nodiscard]] std::vector<GridResult> run_grid(std::span<const exp::Scenario> grid);

/// Prints the standard bench banner.
void print_banner(const std::string& id, const std::string& paper_claim);

/// Writes the shared provenance block for checked-in BENCH_*.json baselines:
///   "meta": {"host": ..., "kernel": ..., "cpus": N, "commit": ...},
/// (two-space indent, trailing comma + newline). The commit is the git HEAD
/// at run time ("unknown" outside a checkout), so a regenerated baseline
/// records which revision and machine produced its numbers.
void write_meta_json(std::FILE* out);

/// Closes a BENCH_*.json file. Returns false, after printing "cannot write
/// <path>" to stderr, when a write or the close failed.
[[nodiscard]] bool close_json(std::FILE* out, const std::string& path);

}  // namespace esg::bench
