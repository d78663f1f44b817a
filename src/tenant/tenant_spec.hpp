// Multi-tenant declaration grammar (DESIGN.md §12).
//
// A TenantSpec names the principals sharing the cluster, their fair-queueing
// weights, the charge metric each tenant's service is accounted in (time,
// energy, or a hybrid blend — following ETF), and an optional static
// app→tenant mapping. Parsed from `--tenants` (inline or `@file`) with the
// same hardening contract as FaultSpec/ElasticSpec: every malformed clause is
// rejected at parse time with a precise std::invalid_argument.
//
// Grammar (clauses separated by ';' or newlines, '#' clauses are comments;
// the shared common/spec_lex rules, DESIGN.md §16):
//
//   <name>:<weight>[:<mode>][:apps=<id>,<id>,...]   declare one tenant
//   throttle=<ms>                                   MQFQ throttle threshold T
//
//   mode  := time | energy | hybrid=<alpha in [0,1]>
//
// Examples:
//   premium:3;free:1
//   premium:3:energy:apps=0,2;free:1:time:apps=1,3
//   steady:1;bursty:1;throttle=40
//
// Tenant ids are the declaration order (first clause = tenant 0). Apps not
// claimed by any apps= list map to tenant 0; a trace with a tenant column
// overrides the static mapping per arrival. An absent spec — or a single
// declared tenant — is *inert*: the platform runs the exact single-tenant
// code path and its outputs stay byte-identical to pre-tenant builds.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace esg::tenant {

/// Which metric a tenant's virtual time advances in (ETF's knob).
enum class ChargeMode : std::uint8_t { kTime, kEnergy, kHybrid };

[[nodiscard]] std::string_view to_string(ChargeMode mode);

struct TenantDef {
  std::string name;
  double weight = 1.0;
  ChargeMode mode = ChargeMode::kTime;
  /// Blend factor for kHybrid: charge = alpha*time + (1-alpha)*energy.
  double hybrid_alpha = 0.5;
  /// Apps statically mapped to this tenant (empty on tenant 0 means
  /// "everything unclaimed").
  std::vector<std::uint32_t> apps;
};

struct TenantSpec {
  std::vector<TenantDef> tenants;
  /// MQFQ-Sticky throttle threshold T: a flow whose virtual time runs more
  /// than this far ahead of the slowest active flow is paused (in weighted
  /// service-ms).
  double throttle_ms = 50.0;

  /// At least one tenant was declared.
  [[nodiscard]] bool enabled() const { return !tenants.empty(); }

  /// Zero or one tenant: fair queueing cannot change any decision, so the
  /// platform must take the exact legacy code path (byte-identity contract).
  [[nodiscard]] bool inert() const { return tenants.size() <= 1; }

  /// Static app→tenant mapping; unclaimed apps belong to tenant 0.
  [[nodiscard]] std::uint32_t tenant_of(std::uint32_t app) const;

  /// Display name for tenant `t` ("t<N>" beyond the declared list, e.g. for
  /// trace-declared tenants on a run without a spec).
  [[nodiscard]] std::string tenant_name(std::uint32_t t) const;

  [[nodiscard]] double weight_of(std::uint32_t t) const {
    return t < tenants.size() ? tenants[t].weight : 1.0;
  }
};

/// Parses the grammar above; "" and "none" yield a disabled spec. Throws
/// std::invalid_argument on any malformed clause.
[[nodiscard]] TenantSpec parse_tenant_spec(std::string_view text);

/// CLI entry point: `@path` loads the spec text from a file (throwing
/// std::invalid_argument when unreadable); anything else parses in place.
[[nodiscard]] TenantSpec load_tenant_spec(std::string_view arg);

/// Round-trippable canonical form ("none" when disabled).
[[nodiscard]] std::string to_string(const TenantSpec& spec);

/// Expands a spec for a run that replays a trace declaring `trace_tenants`
/// tenants: a disabled spec grows implicit equal-weight tenants t0..tN-1;
/// a declared spec must already cover them (throws when the trace names a
/// tenant id >= the declared count).
[[nodiscard]] TenantSpec resolve_for_trace(TenantSpec spec,
                                           std::size_t trace_tenants);

}  // namespace esg::tenant
