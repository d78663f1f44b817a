// The parallel scenario runner (DESIGN.md §15): every multi-run caller —
// esg_sim's multi-seed and --sweep paths, bench::run_grid and
// bench_core_throughput — runs its scenarios through run_all.
#pragma once

#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <vector>

#include "exp/scenario.hpp"

namespace esg::exp {

/// The (scheduler × seed) cross product of a base scenario, scheduler-major
/// with seeds in the given order. File-backed tracing is stripped from every
/// run: runs made in parallel would race on the output files.
[[nodiscard]] std::vector<Scenario> cross_product(
    const Scenario& base, std::span<const SchedulerKind> schedulers,
    std::span<const std::uint64_t> seeds);

/// One run of run_all: the scenario's output, or the exception its run threw
/// (the output is then default-constructed).
struct RunResult {
  RunOutput output;
  std::exception_ptr error;
};

/// Runs each scenario exactly once, on min(jobs, scenarios.size()) threads
/// (jobs 0 = hardware concurrency) that take the next index from one shared
/// counter. Slot i holds scenario i's output or exception, so the results are
/// the same for any thread count, wall_seconds and layers aside. Runs share
/// no mutable state, but two scenarios that name the same output file race
/// on it. `run` does one run; tests pass a stand-in for run_scenario.
[[nodiscard]] std::vector<RunResult> run_all(
    std::span<const Scenario> scenarios, unsigned jobs = 0,
    RunOutput (*run)(const Scenario&) = run_scenario);

/// The message of a run's exception: what() of a std::exception, else a
/// fixed text.
[[nodiscard]] std::string error_message(const std::exception_ptr& error);

}  // namespace esg::exp
