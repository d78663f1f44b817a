// --forecast spec grammar (DESIGN.md §14).
//
//   --forecast "<predictor>[;lead-ms=<ms>][;bin-ms=<ms>]"
//   <predictor> := oracle | last-bin | ewma[:alpha=A]
//                | seasonal[:period-ms=P,bins=B]
//
// The first clause names the predictor (with optional `key=value`
// parameters after a colon); later clauses carry keys shared by every
// predictor: `lead-ms` (how far ahead consumers act on a forecast) and
// `bin-ms` (the width of the observation bins online predictors learn from).
// `,` also separates the shared keys (`oracle;lead-ms=3000,bin-ms=500`, the
// form to_string writes). `none` (or an empty string) is the inert spec:
// nothing is constructed and the run is byte-identical to a build without
// the flag. Clause splitting, `@file` indirection and number checks are
// common/spec_lex's (DESIGN.md §16): NaN/inf/negative values, duplicate
// keys, parameters on the wrong predictor and unknown keys all raise
// std::invalid_argument naming the line and the offending clause.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace esg::forecast {

enum class ForecastKind : std::uint8_t {
  kNone,     ///< inert: no forecaster is constructed
  kOracle,   ///< reads the trace's true per-bin rates (perfect hindsight)
  kLastBin,  ///< next bin = last completed bin
  kEwma,     ///< EWMA over completed bin counts
  kSeasonal, ///< per-bin-of-period running means (captures diurnal ramps)
};

[[nodiscard]] std::string_view to_string(ForecastKind kind);

struct ForecastSpec {
  ForecastKind kind = ForecastKind::kNone;
  /// EWMA weight of the newest bin (ewma predictor only).
  double ewma_alpha = 0.3;
  /// Seasonal period; defaults match one esg_tracegen day (120 x 1000 ms).
  TimeMs seasonal_period_ms = 120'000.0;
  /// Bins the seasonal period is split into.
  std::size_t seasonal_bins = 120;
  /// Observation bin width for the online predictors and accuracy tracking.
  TimeMs bin_ms = 1'000.0;
  /// How far ahead consumers act (prewarm targets, planner look-ahead).
  TimeMs lead_ms = 2'000.0;

  [[nodiscard]] bool enabled() const { return kind != ForecastKind::kNone; }
  /// Inert spec: nothing is constructed, artefacts stay byte-identical.
  [[nodiscard]] bool inert() const { return !enabled(); }
};

/// Parses the inline grammar. Throws std::invalid_argument on malformed
/// input; an empty string or "none" yields the inert spec.
[[nodiscard]] ForecastSpec parse_forecast_spec(std::string_view text);

/// parse_forecast_spec with `@file` indirection: an argument starting with
/// '@' names a file whose clauses (one per line) are parsed.
[[nodiscard]] ForecastSpec load_forecast_spec(std::string_view arg);

/// Canonical round-trippable rendering (parse(to_string(s)) == s).
[[nodiscard]] std::string to_string(const ForecastSpec& spec);

}  // namespace esg::forecast
