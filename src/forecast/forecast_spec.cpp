#include "forecast/forecast_spec.hpp"

#include <vector>

#include "common/spec_lex.hpp"

namespace esg::forecast {

namespace {

constexpr std::string_view kGrammar = "forecast-spec";

}  // namespace

std::string_view to_string(ForecastKind kind) {
  switch (kind) {
    case ForecastKind::kNone:
      return "none";
    case ForecastKind::kOracle:
      return "oracle";
    case ForecastKind::kLastBin:
      return "last-bin";
    case ForecastKind::kEwma:
      return "ewma";
    case ForecastKind::kSeasonal:
      return "seasonal";
  }
  return "unknown";
}

ForecastSpec parse_forecast_spec(std::string_view text) {
  ForecastSpec spec;
  const std::vector<lex::Where> clauses = lex::clauses(kGrammar, text);
  if (clauses.empty() || (clauses.size() == 1 && clauses[0].clause == "none")) {
    return spec;
  }

  // The first clause names the predictor; later ones carry the shared keys.
  const lex::Where& head = clauses.front();
  const auto [name, params] = lex::split_first(head.clause, ':');
  if (name == "oracle") {
    spec.kind = ForecastKind::kOracle;
  } else if (name == "last-bin") {
    spec.kind = ForecastKind::kLastBin;
  } else if (name == "ewma") {
    spec.kind = ForecastKind::kEwma;
  } else if (name == "seasonal") {
    spec.kind = ForecastKind::kSeasonal;
  } else {
    head.fail("unknown predictor '" + std::string(name) +
              "' (oracle|last-bin|ewma|seasonal|none)");
  }

  lex::Fields kv(head, params.value_or(""));
  if (spec.kind == ForecastKind::kEwma) {
    if (auto f = kv.take("alpha")) spec.ewma_alpha = f->number(lex::kFraction);
  }
  if (spec.kind == ForecastKind::kSeasonal) {
    if (auto f = kv.take("period-ms")) {
      spec.seasonal_period_ms = f->number(lex::kPositive);
    }
    if (auto f = kv.take("bins")) spec.seasonal_bins = f->integer(1, 1u << 20);
  }
  kv.finish();

  lex::Fields shared;
  for (std::size_t i = 1; i < clauses.size(); ++i) {
    shared.add(clauses[i], clauses[i].clause);
  }
  if (auto f = shared.take("lead-ms")) {
    spec.lead_ms = f->number(lex::kNonNegative);
  }
  if (auto f = shared.take("bin-ms")) spec.bin_ms = f->number(lex::kPositive);
  shared.finish();
  return spec;
}

ForecastSpec load_forecast_spec(std::string_view arg) {
  return parse_forecast_spec(lex::load_text(kGrammar, arg));
}

std::string to_string(const ForecastSpec& spec) {
  if (!spec.enabled()) return "none";
  std::string out(to_string(spec.kind));
  if (spec.kind == ForecastKind::kEwma) {
    out += ":alpha=" + lex::fmt_g(spec.ewma_alpha);
  } else if (spec.kind == ForecastKind::kSeasonal) {
    out += ":period-ms=" + lex::fmt_g(spec.seasonal_period_ms);
    out += ",bins=" + std::to_string(spec.seasonal_bins);
  }
  out += ";lead-ms=" + lex::fmt_g(spec.lead_ms);
  out += ",bin-ms=" + lex::fmt_g(spec.bin_ms);
  return out;
}

}  // namespace esg::forecast
