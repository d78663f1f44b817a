// Per-layer self time of one simulator run (DESIGN.md §13).
//
// A LayerClock keeps one fixed table of nanoseconds per layer. A switch
// charges the time since the previous switch to the current layer and makes
// the new layer current, so self time needs no scope tree and the slots add
// up to the time the clock ran. A LayerScope switches for its lifetime and
// gives the previous layer back on exit, exceptions included:
//
//   void Controller::scan() {
//     const perf::LayerScope layer(perf::Layer::kScan);
//     ...
//   }
//
// The running clock is per thread, so parallel seed replicas never share a
// table. With no clock running on the thread a scope costs one thread-local
// load and one branch, so every build carries the scopes and a run chooses
// at run time whether to time them (run_scenario for --perf-out, esg_sim for
// --perf-summary). A switch never allocates, formats or looks anything up.
// The shape follows nvcache's CHRONO_TRANSFER over a fixed enum perfindex.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace esg::perf {

/// One slot per layer with a code boundary, in report order. Warm-pool
/// lookups and metric updates have none: they count toward their caller.
enum class Layer : std::uint8_t {
  kSetup,        ///< run_scenario before the first event
  kEngine,       ///< event loop, plus handlers outside the slots below
  kScan,         ///< Controller::scan and process_queue
  kPlan,         ///< Scheduler::plan
  kPlace,        ///< Scheduler::place, locality_first_place when forced
  kDispatch,     ///< Controller::dispatch
  kPrewarm,      ///< PrewarmManager entry points and warm-up checks
  kSinks,        ///< TraceRecorder's fan-out to its sinks
  kAttribution,  ///< run_scenario's online report build and write
};

inline constexpr std::size_t kLayerCount = 9;
static_assert(static_cast<std::size_t>(Layer::kAttribution) + 1 == kLayerCount);

/// Report names, indexed by Layer.
inline constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "setup",   "engine",  "scan",  "plan",       "place",
    "dispatch", "prewarm", "sinks", "attribution"};

/// A clock's reading. All zero when no clock ran.
struct LayerTimes {
  std::array<std::uint64_t, kLayerCount> self_ns{};
  std::uint64_t window_ns = 0;  ///< time the clock ran; the slots sum to it
};

/// Times this thread's layers from construction to destruction, starting in
/// kSetup. One clock per thread at a time.
class LayerClock {
 public:
  LayerClock() : start_(Clock::now()), last_(start_) {
    if (running_ != nullptr) {
      throw std::logic_error("LayerClock: a clock already runs on this thread");
    }
    running_ = this;
  }
  ~LayerClock() { running_ = nullptr; }
  LayerClock(const LayerClock&) = delete;
  LayerClock& operator=(const LayerClock&) = delete;

  /// The clock running on this thread, or nullptr.
  [[nodiscard]] static LayerClock* running() { return running_; }

  /// Charges the time since the last switch to the current layer, makes
  /// `next` current and returns the layer it replaced.
  Layer switch_to(Layer next) {
    charge();
    const Layer previous = current_;
    current_ = next;
    return previous;
  }

  /// The layer the open interval will be charged to.
  [[nodiscard]] Layer current() const { return current_; }

  /// The table so far, the open interval charged to the current layer.
  [[nodiscard]] LayerTimes read() {
    charge();
    return times_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  void charge() {
    const Clock::time_point now = Clock::now();
    times_.self_ns[static_cast<std::size_t>(current_)] += ns(now - last_);
    times_.window_ns = ns(now - start_);
    last_ = now;
  }

  static std::uint64_t ns(Clock::duration d) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  }

  static inline thread_local LayerClock* running_ = nullptr;

  Clock::time_point start_;
  Clock::time_point last_;
  Layer current_ = Layer::kSetup;
  LayerTimes times_;
};

/// Makes `layer` current on this thread's clock for the scope's lifetime.
/// Must end before the clock that ran when it began.
class LayerScope {
 public:
  explicit LayerScope(Layer layer) : clock_(LayerClock::running()) {
    if (clock_ != nullptr) previous_ = clock_->switch_to(layer);
  }
  ~LayerScope() {
    if (clock_ != nullptr) clock_->switch_to(previous_);
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

  /// Moves the scope on to `layer` (call it with no inner scope open); the
  /// exit still gives back the layer that was current when the scope began.
  void switch_to(Layer layer) {
    if (clock_ != nullptr) clock_->switch_to(layer);
  }

 private:
  LayerClock* clock_;
  Layer previous_ = Layer::kSetup;
};

}  // namespace esg::perf
