#include "fault/fault_spec.hpp"

#include "common/spec_lex.hpp"

namespace esg::fault {

namespace {

constexpr std::string_view kGrammar = "fault-spec";

/// Crash clauses in spec order, kept for overlap diagnostics.
using CrashClauses = std::vector<lex::Where>;

void parse_clause(FaultSpec& spec, const lex::Where& at,
                  CrashClauses& crash_clauses) {
  const auto [kind, body] = lex::split_first(at.clause, ':');
  if (!body) at.fail("expected kind:key=value,...");
  lex::Fields kv(at, *body);
  const auto id = [](const lex::Field& f) {
    return static_cast<std::uint32_t>(f.integer(0, lex::kMaxId));
  };

  if (kind == "crash") {
    CrashWindow c;
    c.invoker = InvokerId(id(kv.need("invoker")));
    c.at_ms = kv.need("at").number(lex::kNonNegative);
    c.down_ms = kv.need("down").number(lex::kNonNegative);
    spec.crashes.push_back(c);
    crash_clauses.push_back(at);
  } else if (kind == "dispatch" || kind == "coldstart") {
    const double prob = kv.need("prob").number(lex::kProbability);
    std::optional<FunctionId> function;
    if (const auto fn = kv.take("function")) function = FunctionId(id(*fn));
    if (kind == "dispatch") {
      spec.dispatch.push_back(DispatchFault{prob, function});
    } else {
      spec.cold_start.push_back(ColdStartFault{prob, function});
    }
  } else if (kind == "slow") {
    SlowdownWindow w;
    w.invoker = InvokerId(id(kv.need("invoker")));
    w.at_ms = kv.need("at").number(lex::kNonNegative);
    w.duration_ms = kv.need("for").number(lex::kNonNegative);
    w.factor = kv.need("factor").number(lex::Range{1.0});
    spec.slowdowns.push_back(w);
  } else if (kind == "spot") {
    SpotReclamation s;
    s.at_ms = kv.need("at").number(lex::kNonNegative);
    s.nodes = kv.need("nodes").integer(1, lex::kMaxId);
    if (const auto warn = kv.take("warn")) {
      s.warn_ms = warn->number(lex::kNonNegative);
    }
    spec.spot.push_back(s);
  } else {
    at.fail("unknown kind '" + std::string(kind) +
            "' (crash|dispatch|coldstart|slow|spot)");
  }
  kv.finish();
}

/// Rejects crash windows on the same invoker whose [at, at+down) intervals
/// overlap: the second crash would fire on an already-dead node and its
/// rejoin would revive the node while the other window is still open.
/// Back-to-back windows (one ending exactly where the next starts) are
/// fine — the rejoin event is scheduled before the next crash.
void reject_overlapping_crashes(const FaultSpec& spec,
                                const CrashClauses& crash_clauses) {
  const auto window = [](const CrashWindow& c) {
    return "[" + lex::fmt_g(c.at_ms) + ", " + lex::fmt_g(c.at_ms + c.down_ms) +
           ")";
  };
  for (std::size_t i = 0; i < spec.crashes.size(); ++i) {
    for (std::size_t j = i + 1; j < spec.crashes.size(); ++j) {
      const CrashWindow& a = spec.crashes[i];
      const CrashWindow& b = spec.crashes[j];
      if (a.invoker != b.invoker) continue;
      if (a.at_ms + a.down_ms > b.at_ms && b.at_ms + b.down_ms > a.at_ms) {
        crash_clauses[j].fail(
            "crash window on invoker " + std::to_string(b.invoker.get()) +
            " " + window(b) + " overlaps the window at line " +
            std::to_string(crash_clauses[i].line) + " " + window(a));
      }
    }
  }
}

}  // namespace

bool FaultSpec::inert() const {
  if (!crashes.empty()) return false;
  for (const auto& s : spot) {
    if (s.nodes > 0) return false;
  }
  for (const auto& d : dispatch) {
    if (d.prob > 0.0) return false;
  }
  for (const auto& c : cold_start) {
    if (c.prob > 0.0) return false;
  }
  for (const auto& s : slowdowns) {
    if (s.factor > 1.0) return false;
  }
  return true;
}

FaultSpec parse_fault_spec(std::string_view text) {
  FaultSpec spec;
  CrashClauses crash_clauses;
  for (const lex::Where& at : lex::clauses(kGrammar, text)) {
    parse_clause(spec, at, crash_clauses);
  }
  reject_overlapping_crashes(spec, crash_clauses);
  return spec;
}

FaultSpec load_fault_spec(std::string_view arg) {
  return parse_fault_spec(lex::load_text(kGrammar, arg));
}

std::string to_string(const FaultSpec& spec) {
  std::string out;
  const auto clause = [&out](const std::string& s) {
    if (!out.empty()) out += ';';
    out += s;
  };
  for (const auto& c : spec.crashes) {
    clause("crash:invoker=" + std::to_string(c.invoker.get()) +
           ",at=" + lex::fmt_g(c.at_ms) + ",down=" + lex::fmt_g(c.down_ms));
  }
  for (const auto& d : spec.dispatch) {
    std::string s = "dispatch:prob=" + lex::fmt_g(d.prob);
    if (d.function) s += ",function=" + std::to_string(d.function->get());
    clause(s);
  }
  for (const auto& c : spec.cold_start) {
    std::string s = "coldstart:prob=" + lex::fmt_g(c.prob);
    if (c.function) s += ",function=" + std::to_string(c.function->get());
    clause(s);
  }
  for (const auto& w : spec.slowdowns) {
    clause("slow:invoker=" + std::to_string(w.invoker.get()) +
           ",at=" + lex::fmt_g(w.at_ms) + ",for=" + lex::fmt_g(w.duration_ms) +
           ",factor=" + lex::fmt_g(w.factor));
  }
  for (const auto& s : spec.spot) {
    std::string str = "spot:at=" + lex::fmt_g(s.at_ms) +
                      ",nodes=" + std::to_string(s.nodes);
    if (s.warn_ms > 0.0) str += ",warn=" + lex::fmt_g(s.warn_ms);
    clause(str);
  }
  return out;
}

}  // namespace esg::fault
