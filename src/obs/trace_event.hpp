// Typed trace vocabulary of the observability subsystem.
//
// A *span* is a phase with duration (request lifetime, queue wait, cold
// start, input staging, execution, keep-alive window); an *instant* is a
// point decision (dispatch, rejection, forced minimum-config dispatch); a
// *counter sample* is one point of a gauge time series (vGPU occupancy,
// queue depth). All timestamps are simulated milliseconds taken from
// Simulator::now() by the call sites — this layer never reads a clock, which
// keeps traces bit-reproducible.
//
// Tracks use Chrome-trace coordinates: `pid` groups lanes into a named
// process (the controller, the request pool, one process per invoker) and
// `tid` is one lane inside it (a GPU slice, the provisioning lane, ...).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace esg::obs {

// Each kind's trace category is its entry in recorder.cpp's name table,
// which lists the kinds in enumerator order.
enum class SpanKind : std::uint8_t {
  kRequest,        ///< end-to-end request (arrival -> last sink completion)
  kQueueWait,      ///< one job sitting in its AFW queue (enqueue -> dispatch)
  kStage,          ///< one job's task as seen from the request timeline
  kStaging,        ///< input staging on the invoker (batch waits for slowest)
  kExec,           ///< model execution (exactly one per dispatched task)
  kSliceOccupied,  ///< extra vGPU slices held by a multi-slice task
  kColdStart,      ///< container provisioning (create + model load)
  kKeepAlive,      ///< idle warm container parked in the keep-alive pool
  kPrewarm,        ///< proactive warm-up issued by the prewarm manager
  kInvokerDown,    ///< fault-injected crash window (crash -> rejoin)
};

enum class InstantKind : std::uint8_t {
  kDispatch,           ///< controller committed a (batch, vCPU, vGPU) config
  kNoPlacement,        ///< no invoker fits any candidate (recheck round)
  kDefer,              ///< strategy chose to wait for more jobs
  kForcedMinDispatch,  ///< recheck-list escape hatch fired
  kPrewarmIssued,
  kPrewarmSkipped,
  kBudgetPlan,    ///< per-stage SLO budgets fixed at request arrival
  kBudgetReplan,  ///< renormalised group budget from a mid-workflow re-plan
  kFault,             ///< a job's task failed (transient/timeout/crash)
  kRetry,             ///< failed jobs re-enqueued after backoff
  kRetryExhausted,    ///< retry budget spent; the request was aborted
  kInvokerCrash,      ///< fault-injected node loss observed by the controller
  kInvokerRejoin,     ///< crashed node returned to service
  kColdStartFailure,  ///< container provisioning burned its time and failed
  kScaleOut,          ///< elastic policy acquired a node (Retired -> Warming)
  kScaleIn,           ///< elastic policy released an idle node
  kNodeActivated,     ///< a warming node finished provisioning (joins fleet)
  kNodeRetired,       ///< a node left the fleet (drain finished)
  kSpotWarning,       ///< spot reclamation notice; the node starts draining
  kSpotReclaim,       ///< reclamation deadline hit; in-flight work was killed
  kShed,              ///< request rejected at admission (load shedding)
  kForecastBin,       ///< one closed forecast bin: predicted vs realized
  kForecastPrewarm,   ///< proactive warm target raised from a forecast
};

[[nodiscard]] std::string_view to_string(SpanKind kind);
[[nodiscard]] std::string_view to_string(InstantKind kind);

/// Inverse of to_string, for reading serialized traces back (the offline
/// analysis path). Returns nullopt for categories this build does not know.
[[nodiscard]] std::optional<SpanKind> span_kind_from_string(std::string_view s);
[[nodiscard]] std::optional<InstantKind> instant_kind_from_string(
    std::string_view s);

struct Track {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;

  constexpr auto operator<=>(const Track&) const = default;
};

// Reserved pid layout. Invoker i maps to pid kInvokerPidBase + i, so traces
// from fleets of any size keep stable, collision-free coordinates.
inline constexpr std::uint32_t kControllerPid = 1;
inline constexpr std::uint32_t kRequestsPid = 2;
inline constexpr std::uint32_t kInvokerPidBase = 100;

// Invoker lanes 0..vgpus-1 render per-slice occupancy; these sit above them.
inline constexpr std::uint32_t kProvisionLane = 900;
inline constexpr std::uint32_t kWarmPoolLane = 901;

[[nodiscard]] constexpr Track controller_track() { return {kControllerPid, 0}; }
[[nodiscard]] constexpr Track request_track(RequestId id) {
  return {kRequestsPid, id.get()};
}
[[nodiscard]] constexpr Track invoker_track(InvokerId id, std::uint32_t lane) {
  return {kInvokerPidBase + id.get(), lane};
}

/// Key/value payload rendered into the trace "args" object. Values are
/// pre-rendered strings; build one only behind TraceRecorder::is_enabled().
using ArgList = std::vector<std::pair<std::string, std::string>>;

struct Span {
  SpanKind kind{};
  std::string name;
  Track track;
  TimeMs start_ms = 0.0;
  TimeMs end_ms = 0.0;
  ArgList args;
};

struct Instant {
  InstantKind kind{};
  std::string name;
  Track track;
  TimeMs at_ms = 0.0;
  ArgList args;
};

struct CounterSample {
  std::string name;
  Track track;  ///< tid is ignored; counters attach to the process
  TimeMs at_ms = 0.0;
  double value = 0.0;
};

}  // namespace esg::obs
