#include "elastic/elastic_spec.hpp"

#include "common/spec_lex.hpp"

namespace esg::elastic {

std::string_view to_string(ElasticPolicy policy) {
  switch (policy) {
    case ElasticPolicy::kNone:
      return "none";
    case ElasticPolicy::kQueue:
      return "queue";
    case ElasticPolicy::kRate:
      return "rate";
    case ElasticPolicy::kForecast:
      return "forecast";
  }
  return "unknown";
}

ElasticSpec parse_elastic_spec(std::string_view text) {
  const lex::Where at{"elastic-spec", lex::trim(text)};
  ElasticSpec spec;
  if (at.clause.empty() || at.clause == "none") return spec;

  const auto [policy, body] = lex::split_first(at.clause, ':');
  if (policy == "queue") {
    spec.policy = ElasticPolicy::kQueue;
  } else if (policy == "rate") {
    spec.policy = ElasticPolicy::kRate;
  } else if (policy == "forecast") {
    spec.policy = ElasticPolicy::kForecast;
  } else {
    at.fail("unknown policy '" + std::string(policy) +
            "' (queue|rate|forecast|none)");
  }

  lex::Fields kv(at, body.value_or(""));
  if (auto f = kv.take("min")) spec.min_nodes = f->integer(0, lex::kMaxId);
  if (auto f = kv.take("max")) spec.max_nodes = f->integer(0, lex::kMaxId);
  if (auto f = kv.take("out")) spec.out_threshold = f->number(lex::kPositive);
  if (auto f = kv.take("step")) spec.out_step = f->integer(1, lex::kMaxId);
  if (auto f = kv.take("idle-ms")) spec.idle_ms = f->number(lex::kNonNegative);
  if (auto f = kv.take("eval-ms")) spec.eval_ms = f->number(lex::kPositive);
  if (auto f = kv.take("provision-ms")) {
    spec.provision_ms = f->number(lex::kNonNegative);
  }
  if (auto f = kv.take("alpha")) spec.rate_alpha = f->number(lex::kFraction);
  if (auto f = kv.take("shed")) spec.shed = f->on_off();
  if (auto f = kv.take("shed-margin")) {
    spec.shed_margin = f->number(lex::kPositive);
  }
  kv.finish();

  if (spec.max_nodes > 0 && spec.min_nodes > spec.max_nodes) {
    at.fail("min must be <= max");
  }
  return spec;
}

std::string to_string(const ElasticSpec& spec) {
  if (!spec.enabled()) return "none";
  std::string out(to_string(spec.policy));
  out += ":min=" + std::to_string(spec.min_nodes);
  out += ",max=" + std::to_string(spec.max_nodes);
  out += ",out=" + lex::fmt_g(spec.out_threshold);
  out += ",step=" + std::to_string(spec.out_step);
  out += ",idle-ms=" + lex::fmt_g(spec.idle_ms);
  out += ",eval-ms=" + lex::fmt_g(spec.eval_ms);
  out += ",provision-ms=" + lex::fmt_g(spec.provision_ms);
  if (spec.policy == ElasticPolicy::kRate) {
    out += ",alpha=" + lex::fmt_g(spec.rate_alpha);
  }
  out += ",shed=";
  out += spec.shed ? "on" : "off";
  if (spec.shed) out += ",shed-margin=" + lex::fmt_g(spec.shed_margin);
  return out;
}

}  // namespace esg::elastic
