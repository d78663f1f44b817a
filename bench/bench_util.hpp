// Shared helpers for the per-figure/table bench binaries.
//
// Environment knobs (all optional):
//   ESG_BENCH_HORIZON_MS — arrival-window length per run (default 10000)
//   ESG_BENCH_SEEDS      — replicas per scenario (default 1)
#pragma once

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "exp/scenario.hpp"

namespace esg::bench {

/// Arrival horizon from the environment (default 10 s of simulated traffic).
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
