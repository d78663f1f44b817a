#include "tenant/tenant_spec.hpp"

#include <set>
#include <stdexcept>

#include "common/spec_lex.hpp"

namespace esg::tenant {

namespace {

constexpr std::string_view kGrammar = "tenant-spec";

bool valid_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void parse_mode(const lex::Where& at, std::string_view field,
                TenantDef& def) {
  if (field == "time") {
    def.mode = ChargeMode::kTime;
  } else if (field == "energy") {
    def.mode = ChargeMode::kEnergy;
  } else if (field.starts_with("hybrid=")) {
    def.mode = ChargeMode::kHybrid;
    def.hybrid_alpha =
        lex::Field{"hybrid alpha", field.substr(7), at}.number(
            lex::kProbability);
  } else {
    at.fail("unknown charge mode '" + std::string(field) +
            "' (time|energy|hybrid=<alpha>)");
  }
}

void parse_apps(const lex::Where& at, std::string_view list,
                TenantDef& def) {
  if (list.empty()) at.fail("apps= needs at least one app id");
  for (const std::string_view piece : lex::split(list, ',')) {
    const lex::Field app{"apps entry", lex::trim(piece), at};
    if (app.value.empty()) at.fail("empty app id in apps=");
    def.apps.push_back(static_cast<std::uint32_t>(app.integer(0, lex::kMaxId)));
  }
}

/// name : weight [: mode] [: apps=...] — fields split on ':'.
TenantDef parse_tenant_clause(const lex::Where& at) {
  std::vector<std::string_view> fields = lex::split(at.clause, ':');
  for (std::string_view& field : fields) field = lex::trim(field);
  if (fields.size() < 2) {
    at.fail("expected <name>:<weight>[:<mode>][:apps=...]");
  }
  if (!valid_name(fields[0])) {
    at.fail("tenant names must be non-empty [A-Za-z0-9_-]");
  }
  TenantDef def;
  def.name = std::string(fields[0]);
  def.weight = lex::Field{"weight", fields[1], at}.number(lex::kPositive);

  bool saw_mode = false;
  bool saw_apps = false;
  for (std::size_t i = 2; i < fields.size(); ++i) {
    const std::string_view field = fields[i];
    if (field.starts_with("apps=")) {
      if (saw_apps) at.fail("duplicate apps= field");
      saw_apps = true;
      parse_apps(at, field.substr(5), def);
    } else {
      if (saw_mode) at.fail("duplicate charge-mode field");
      saw_mode = true;
      parse_mode(at, field, def);
    }
  }
  return def;
}

}  // namespace

std::string_view to_string(ChargeMode mode) {
  switch (mode) {
    case ChargeMode::kTime:
      return "time";
    case ChargeMode::kEnergy:
      return "energy";
    case ChargeMode::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

std::uint32_t TenantSpec::tenant_of(std::uint32_t app) const {
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    for (const std::uint32_t a : tenants[t].apps) {
      if (a == app) return static_cast<std::uint32_t>(t);
    }
  }
  return 0;
}

std::string TenantSpec::tenant_name(std::uint32_t t) const {
  if (t < tenants.size()) return tenants[t].name;
  return "t" + std::to_string(t);
}

TenantSpec parse_tenant_spec(std::string_view text) {
  TenantSpec spec;
  const std::vector<lex::Where> clauses = lex::clauses(kGrammar, text);
  if (clauses.empty() || (clauses.size() == 1 && clauses[0].clause == "none")) {
    return spec;
  }

  bool saw_throttle = false;
  std::set<std::uint32_t> claimed;
  for (const lex::Where& at : clauses) {
    if (at.clause.starts_with("throttle=")) {
      if (saw_throttle) at.fail("duplicate throttle= clause");
      saw_throttle = true;
      const lex::Field throttle{"throttle", at.clause.substr(9), at};
      spec.throttle_ms = throttle.number(lex::kPositive);
      continue;
    }
    TenantDef def = parse_tenant_clause(at);
    for (const TenantDef& other : spec.tenants) {
      if (other.name == def.name) {
        at.fail("duplicate tenant name '" + def.name + "'");
      }
    }
    for (const std::uint32_t app : def.apps) {
      if (!claimed.insert(app).second) {
        at.fail("app " + std::to_string(app) +
                " mapped to more than one tenant");
      }
    }
    spec.tenants.push_back(std::move(def));
  }
  if (spec.tenants.empty()) {
    lex::Where{kGrammar}.fail("needs at least one tenant clause");
  }
  return spec;
}

TenantSpec load_tenant_spec(std::string_view arg) {
  return parse_tenant_spec(lex::load_text(kGrammar, arg));
}

std::string to_string(const TenantSpec& spec) {
  if (!spec.enabled()) return "none";
  std::string out;
  for (const auto& def : spec.tenants) {
    if (!out.empty()) out += ";";
    out += def.name + ":" + lex::fmt_g(def.weight);
    out += ":" + std::string(to_string(def.mode));
    if (def.mode == ChargeMode::kHybrid) {
      out += "=" + lex::fmt_g(def.hybrid_alpha);
    }
    if (!def.apps.empty()) {
      out += ":apps=";
      for (std::size_t i = 0; i < def.apps.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(def.apps[i]);
      }
    }
  }
  out += ";throttle=" + lex::fmt_g(spec.throttle_ms);
  return out;
}

TenantSpec resolve_for_trace(TenantSpec spec, std::size_t trace_tenants) {
  if (trace_tenants <= 1 && !spec.enabled()) return spec;
  if (!spec.enabled()) {
    // Trace-declared tenants with no --tenants spec: implicit equal weights.
    for (std::size_t t = 0; t < trace_tenants; ++t) {
      TenantDef def;
      def.name = "t" + std::to_string(t);
      spec.tenants.push_back(std::move(def));
    }
    return spec;
  }
  if (trace_tenants > spec.tenants.size()) {
    throw std::invalid_argument(
        "tenant spec declares " + std::to_string(spec.tenants.size()) +
        " tenant(s) but the trace references tenant id " +
        std::to_string(trace_tenants - 1));
  }
  return spec;
}

}  // namespace esg::tenant
