// Always-on hot-path counters for the simulator itself (DESIGN.md §13).
//
// Unlike the layer clock's wall-clock times (perf/layer_clock.hpp), these
// are plain uint64 increments embedded in the components they describe
// (Simulator, Controller, PrewarmManager, FairQueue) — branch-free,
// allocation-free, and fully deterministic: two runs with the same seed
// produce identical values, which the test suite asserts. Each component owns a Counters instance; the run
// harness merges them into one RunOutput-level view at the end of the run.
#pragma once

#include <cstdint>

namespace esg::perf {

struct Counters {
  // src/sim event loop.
  std::uint64_t events_scheduled = 0;  ///< schedule_at calls accepted
  std::uint64_t events_fired = 0;      ///< actions actually executed
  std::uint64_t events_cancelled = 0;  ///< cancel() calls that took effect
  std::uint64_t heap_pushes = 0;       ///< priority-queue inserts
  std::uint64_t heap_pops = 0;         ///< priority-queue removals (incl. cancelled drops)

  // src/platform controller scan.
  std::uint64_t scan_rounds = 0;   ///< controller scan() invocations
  std::uint64_t queue_visits = 0;  ///< process_queue() visits (non-empty queues)
  std::uint64_t afw_peeks = 0;     ///< AFW queue head peeks (plan-view builds)
  std::uint64_t plans = 0;         ///< Scheduler::plan() calls
  std::uint64_t replans = 0;       ///< plan() calls that replaced a cached plan
  std::uint64_t dispatches = 0;    ///< stage dispatches to an invoker
  std::uint64_t warm_hits = 0;     ///< dispatches satisfied from the warm pool
  std::uint64_t warm_misses = 0;   ///< dispatches that provisioned a container

  // src/prewarm.
  std::uint64_t prewarms_issued = 0;   ///< proactive warm-ups sent to invokers
  std::uint64_t prewarms_skipped = 0;  ///< prewarm decisions that declined

  // src/tenant fair queueing.
  std::uint64_t vt_updates = 0;  ///< per-flow virtual-time advances

  // src/forecast.
  std::uint64_t forecasts_issued = 0;    ///< per-app per-bin predictions made
  std::uint64_t forecasts_consumed = 0;  ///< consumer queries served

  void merge(const Counters& other);
};

/// Stable name ↔ member mapping used by every reporting surface (perf JSON,
/// stats-JSONL gauges, Perfetto counter tracks, the --perf-summary table).
/// Order here is the canonical emission order; adding a field means adding
/// it exactly once, here.
struct CounterField {
  const char* name;
  std::uint64_t Counters::* member;
};

inline constexpr CounterField kCounterFields[] = {
    {"events_scheduled", &Counters::events_scheduled},
    {"events_fired", &Counters::events_fired},
    {"events_cancelled", &Counters::events_cancelled},
    {"heap_pushes", &Counters::heap_pushes},
    {"heap_pops", &Counters::heap_pops},
    {"scan_rounds", &Counters::scan_rounds},
    {"queue_visits", &Counters::queue_visits},
    {"afw_peeks", &Counters::afw_peeks},
    {"plans", &Counters::plans},
    {"replans", &Counters::replans},
    {"dispatches", &Counters::dispatches},
    {"warm_hits", &Counters::warm_hits},
    {"warm_misses", &Counters::warm_misses},
    {"prewarms_issued", &Counters::prewarms_issued},
    {"prewarms_skipped", &Counters::prewarms_skipped},
    {"vt_updates", &Counters::vt_updates},
    {"forecasts_issued", &Counters::forecasts_issued},
    {"forecasts_consumed", &Counters::forecasts_consumed},
};

inline constexpr std::size_t kCounterFieldCount =
    sizeof(kCounterFields) / sizeof(kCounterFields[0]);

inline void Counters::merge(const Counters& other) {
  for (const CounterField& f : kCounterFields) this->*f.member += other.*f.member;
}

}  // namespace esg::perf
