// Declarative fault specification (DESIGN.md §9).
//
// A FaultSpec describes every fault a run injects, parsed from the
// `--fault-spec` CLI string (or `@file`). The grammar is a `;`- or
// newline-separated list of clauses, each `kind:key=value,key=value`:
//
//   crash:invoker=3,at=2000,down=1500      node 3 dies at t=2000ms and
//                                          rejoins (empty) 1500ms later
//   dispatch:prob=0.05[,function=2]        each dispatched task of function 2
//                                          (or of any function) fails mid-run
//                                          with probability 0.05
//   coldstart:prob=0.2[,function=1]        container provisioning fails with
//                                          probability 0.2 (no warm container
//                                          joins the pool)
//   slow:invoker=1,at=500,for=4000,factor=3
//                                          node 1's GPU slices run 3x slower
//                                          during [500, 4500)
//   spot:at=2000,nodes=3[,warn=500]        correlated spot reclamation: at
//                                          t=2000ms the provider announces it
//                                          is taking 3 nodes back; they drain
//                                          for the 500ms warning lead time and
//                                          are reclaimed (in-flight work
//                                          killed, node retired) at t=2500ms
//
// Clauses starting with '#' are comments; clause splitting, `@file` rules
// and number checks are common/spec_lex's (DESIGN.md §16). Probabilities
// must be finite in [0, 1], times finite and non-negative, factors finite
// and >= 1; violations throw std::invalid_argument naming the line and the
// clause. Two crash
// windows on the same invoker must not overlap (a rejoin firing inside
// another open window would corrupt the node's alive state) — overlaps are
// rejected at parse time with an error naming both clause lines. A spec
// whose probabilities are all zero and that carries no crash, no slowing
// window, and no spot reclamation is *inert* — the platform treats it
// exactly like no spec at all, which is what makes zero-rate runs
// byte-identical to fault-free runs.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace esg::fault {

/// One invoker outage: the node dies at `at_ms` losing its warm pool and all
/// running tasks, and rejoins (empty, alive) at `at_ms + down_ms`.
struct CrashWindow {
  InvokerId invoker;
  TimeMs at_ms = 0.0;
  TimeMs down_ms = 0.0;
};

/// Transient dispatch failure: each dispatched task of the matching function
/// (all functions when unset) dies mid-execution with probability `prob`.
struct DispatchFault {
  double prob = 0.0;
  std::optional<FunctionId> function;
};

/// Cold-start failure: container provisioning of the matching function burns
/// the full cold-start time and then fails with probability `prob`.
struct ColdStartFault {
  double prob = 0.0;
  std::optional<FunctionId> function;
};

/// GPU-slice degradation: tasks dispatched to `invoker` while
/// [at_ms, at_ms + duration_ms) covers the dispatch run `factor`x slower.
struct SlowdownWindow {
  InvokerId invoker;
  TimeMs at_ms = 0.0;
  TimeMs duration_ms = 0.0;
  double factor = 1.0;
};

/// Correlated spot reclamation: at `at_ms` the provider announces it is
/// taking `nodes` nodes back; after the `warn_ms` lead time (the real-world
/// 30s/2min spot notice, scaled) the victims are reclaimed — in-flight tasks
/// killed, warm pools dropped, nodes retired from the fleet. Victim choice
/// is the controller's (deterministic: highest-id non-retired nodes).
struct SpotReclamation {
  TimeMs at_ms = 0.0;
  std::size_t nodes = 1;
  TimeMs warn_ms = 0.0;
};

struct FaultSpec {
  std::vector<CrashWindow> crashes;
  std::vector<DispatchFault> dispatch;
  std::vector<ColdStartFault> cold_start;
  std::vector<SlowdownWindow> slowdowns;
  std::vector<SpotReclamation> spot;

  /// True when the spec can never produce a fault: no crash, no spot
  /// reclamation, no slowdown with factor > 1, every probability zero.
  /// Inert specs are treated as "no fault injection" end to end.
  [[nodiscard]] bool inert() const;
};

/// Parses the clause grammar above. Throws std::invalid_argument on
/// malformed input, unknown keys/kinds, or out-of-range values.
[[nodiscard]] FaultSpec parse_fault_spec(std::string_view text);

/// CLI entry point: `@path` loads the spec text from a file (throwing
/// std::invalid_argument when unreadable); anything else parses in place.
[[nodiscard]] FaultSpec load_fault_spec(std::string_view arg);

/// Canonical round-trippable rendering (parse(to_string(s)) == s).
[[nodiscard]] std::string to_string(const FaultSpec& spec);

}  // namespace esg::fault
