#include "exp/run_all.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

namespace esg::exp {

std::vector<Scenario> cross_product(const Scenario& base,
                                    std::span<const SchedulerKind> schedulers,
                                    std::span<const std::uint64_t> seeds) {
  std::vector<Scenario> runs;
  runs.reserve(schedulers.size() * seeds.size());
  for (const SchedulerKind scheduler : schedulers) {
    for (const std::uint64_t seed : seeds) {
      Scenario& run = runs.emplace_back(base);
      run.scheduler = scheduler;
      run.seed = seed;
      run.trace = TraceConfig{};
    }
  }
  return runs;
}

std::vector<RunResult> run_all(std::span<const Scenario> scenarios,
                               unsigned jobs,
                               RunOutput (*run)(const Scenario&)) {
  std::vector<RunResult> results(scenarios.size());
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  // Each thread writes only the slots of the indices it takes, and joining
  // the threads publishes every slot to the caller.
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < scenarios.size(); i = next++) {
      try {
        results[i].output = run(scenarios[i]);
      } catch (...) {
        results[i].error = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> threads(
        std::min<std::size_t>(jobs, scenarios.size()));
    for (std::jthread& thread : threads) thread = std::jthread(work);
  }  // joins them all
  return results;
}

std::string error_message(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace esg::exp
