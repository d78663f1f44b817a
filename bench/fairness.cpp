// Multi-tenant fairness: a steady tenant sharing the cluster with a bursty
// neighbor, per scheduler variant x weight split (DESIGN.md §12). The
// isolation metric is steady-tenant p99 *inflation*: its p99 latency with
// the bursty neighbor divided by its p99 with a calm neighbor of the same
// mean rate (same total load, only the arrival shape differs — comparing
// against a solo run instead would confound contention with load-dependent
// batching behavior). No-tenant ESG anchors the undefended end (one shared
// queue per stage, the burst walks right over the steady tenant); weighted
// per-tenant queues (ESG+shares) and MQFQ-Sticky (virtual-time dispatch +
// throttle + sticky placement) should hold the inflation down, more so as
// the steady tenant's weight grows.
//
// Besides the table, the binary writes a machine-readable JSON baseline
// (argv[1], default BENCH_fairness.json) so later changes have an isolation
// trajectory to compare against.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "tenant/tenant_spec.hpp"
#include "trace/workload_trace.hpp"

namespace {

using namespace esg;

// Steady tenant (0) owns apps 0+1, bursty tenant (1) owns apps 2+3 — the
// builtin workload's four DAGs, split disjointly so per-app latencies
// identify the tenant even on the no-tenant anchor run.
constexpr std::uint32_t kSteadyApps[] = {0, 1};
constexpr std::uint32_t kBurstyApps[] = {2, 3};
constexpr double kBinMs = 1000.0;
constexpr double kSteadyPerAppPerBin = 2.0;  // 4 req/s sustained
// The neighbor sends the same mean rate either way: 30/app/bin for 1 bin
// out of every 10 (bursty), or a flat 3/app/bin (calm anchor).
constexpr double kBurstPerAppPerBin = 30.0;  // 60 req/s during bursts
constexpr double kNeighborMeanPerAppPerBin = 3.0;
constexpr std::size_t kBurstPeriodBins = 10;
constexpr std::size_t kBurstLenBins = 1;

/// Trace with steady rows every bin and neighbor rows either spiking for
/// kBurstLenBins out of every kBurstPeriodBins (`bursty_neighbor`) or flat
/// at the same mean rate (the calm anchor). `tenanted` controls whether the
/// trace carries a tenant column: without one the run takes the exact
/// legacy single-tenant path (no fair queue, one shared queue per stage) —
/// that is the undefended anchor; with one, resolve_for_trace activates
/// per-tenant queues even without an explicit --tenants spec.
trace::WorkloadTrace make_trace(TimeMs horizon_ms, bool bursty_neighbor,
                                bool tenanted) {
  trace::WorkloadTrace t;
  t.bin_ms = kBinMs;
  t.app_count = 4;
  t.tenant_count = tenanted ? 2 : 1;
  const auto bins = static_cast<std::size_t>(horizon_ms / kBinMs);
  for (std::size_t b = 0; b < bins; ++b) {
    for (const std::uint32_t app : kSteadyApps) {
      t.rows.push_back({b, app, kSteadyPerAppPerBin, 0});
    }
    const bool bursting =
        !bursty_neighbor || b % kBurstPeriodBins < kBurstLenBins;
    const double rate =
        bursty_neighbor ? kBurstPerAppPerBin : kNeighborMeanPerAppPerBin;
    if (!bursting) continue;
    for (const std::uint32_t app : kBurstyApps) {
      t.rows.push_back({b, app, rate, tenanted ? 1u : 0u});
    }
  }
  return t;
}

exp::Scenario make_scenario(const std::shared_ptr<const trace::WorkloadTrace>& t,
                            exp::SchedulerKind kind, const std::string& spec) {
  exp::Scenario s;
  s.scheduler = kind;
  s.slo = workload::SloSetting::kModerate;
  s.arrivals.mode = exp::ArrivalMode::kTrace;
  s.arrivals.trace = t;
  s.horizon_ms = bench::horizon_ms();
  s.warmup_ms = 0.2 * s.horizon_ms;
  // A small fleet keeps the bursts from being absorbed by spare capacity —
  // contention for GPU slots is the whole point of the bench.
  s.nodes = 6;
  if (!spec.empty()) s.tenants = tenant::parse_tenant_spec(spec);
  return s;
}

struct TenantStats {
  std::size_t requests = 0;
  double hit_rate = 0.0;
  double p99_ms = 0.0;
};

/// Rolls up the apps belonging to one tenant across every replica. Shed
/// requests count toward attainment but not the latency quantile.
TenantStats roll_up(const std::vector<exp::RunOutput>& replicas,
                    std::span<const std::uint32_t> apps) {
  TenantStats stats;
  std::size_t hits = 0;
  std::vector<double> latencies;
  for (const auto& run : replicas) {
    for (const auto& c : run.metrics.completions) {
      if (std::find(apps.begin(), apps.end(), c.app.get()) == apps.end()) {
        continue;
      }
      ++stats.requests;
      if (c.hit) ++hits;
      if (!c.shed) latencies.push_back(c.latency_ms);
    }
  }
  if (stats.requests > 0) {
    stats.hit_rate =
        static_cast<double>(hits) / static_cast<double>(stats.requests);
  }
  stats.p99_ms = percentile(std::move(latencies), 0.99);
  return stats;
}

struct Variant {
  const char* name;
  exp::SchedulerKind kind;
  double steady_weight;  // 0 = no tenant spec (the undefended anchor)
};

std::string spec_for(double steady_weight) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "steady:%g:apps=0,1;bursty:1:apps=2,3;throttle=50",
                steady_weight);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_banner(
      "Fairness: steady tenant vs bursty neighbor",
      "per-tenant fair queueing (weighted shares, MQFQ-Sticky) bounds the "
      "steady tenant's p99 inflation where a shared queue lets the burst "
      "starve it");

  // Three arrival shapes: the contended trace twice (with and without a
  // tenant column — the latter is the undefended shared-queue anchor) and
  // the calm-neighbor baseline the inflation ratio divides by.
  const auto shared = std::make_shared<const trace::WorkloadTrace>(
      make_trace(bench::horizon_ms(), true, true));
  const auto shared_untenanted = std::make_shared<const trace::WorkloadTrace>(
      make_trace(bench::horizon_ms(), true, false));
  const auto calm = std::make_shared<const trace::WorkloadTrace>(
      make_trace(bench::horizon_ms(), false, false));

  const Variant variants[] = {
      {"esg-no-tenants", exp::SchedulerKind::kEsg, 0.0},
      {"esg+shares-1:1", exp::SchedulerKind::kEsg, 1.0},
      {"esg+shares-3:1", exp::SchedulerKind::kEsg, 3.0},
      {"mqfq-sticky-1:1", exp::SchedulerKind::kMqfqSticky, 1.0},
      {"mqfq-sticky-3:1", exp::SchedulerKind::kMqfqSticky, 3.0},
  };

  // The calm-neighbor anchor first, then every contended variant.
  std::vector<exp::Scenario> grid;
  grid.push_back(make_scenario(calm, exp::SchedulerKind::kEsg, ""));
  for (const Variant& v : variants) {
    const bool undefended = v.steady_weight <= 0.0;
    grid.push_back(make_scenario(undefended ? shared_untenanted : shared,
                                 v.kind,
                                 undefended ? "" : spec_for(v.steady_weight)));
  }
  const auto results = bench::run_grid(grid);

  const TenantStats steady_solo = roll_up(results[0].replicas, kSteadyApps);
  std::printf("steady tenant, calm neighbor (same mean rate): %zu requests, "
              "hit rate %.1f%%, p99 %.1f ms\n\n",
              steady_solo.requests, 100.0 * steady_solo.hit_rate,
              steady_solo.p99_ms);

  AsciiTable table({"variant", "steady hit", "steady p99 (ms)", "inflation",
                    "bursty hit", "bursty p99 (ms)"});
  std::vector<TenantStats> steady_rows, bursty_rows;
  for (std::size_t i = 0; i < std::size(variants); ++i) {
    const auto& replicas = results[i + 1].replicas;
    const TenantStats steady = roll_up(replicas, kSteadyApps);
    const TenantStats bursty = roll_up(replicas, kBurstyApps);
    const double inflation =
        steady_solo.p99_ms > 0.0 ? steady.p99_ms / steady_solo.p99_ms : 0.0;
    table.add_row({variants[i].name, AsciiTable::pct(steady.hit_rate),
                   AsciiTable::num(steady.p99_ms, 1),
                   AsciiTable::num(inflation, 2) + "x",
                   AsciiTable::pct(bursty.hit_rate),
                   AsciiTable::num(bursty.p99_ms, 1)});
    steady_rows.push_back(steady);
    bursty_rows.push_back(bursty);
  }
  std::printf("%s\n", table.render().c_str());

  // Machine-readable baseline for trend tracking across PRs.
  const char* out_path = argc > 1 ? argv[1] : "BENCH_fairness.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::write_meta_json(out);
  std::fprintf(out,
               "  \"bench\": \"fairness\",\n"
               "  \"horizon_ms\": %.0f,\n  \"seeds\": %zu,\n"
               "  \"steady_calm_anchor_p99_ms\": %.3f,\n  \"rows\": [\n",
               bench::horizon_ms(), bench::seeds().size(), steady_solo.p99_ms);
  for (std::size_t i = 0; i < std::size(variants); ++i) {
    const double inflation = steady_solo.p99_ms > 0.0
                                 ? steady_rows[i].p99_ms / steady_solo.p99_ms
                                 : 0.0;
    std::fprintf(
        out,
        "    {\"variant\": \"%s\", \"steady_weight\": %g, "
        "\"steady_requests\": %zu, \"steady_hit_rate\": %.6f, "
        "\"steady_p99_ms\": %.3f, \"inflation\": %.4f, "
        "\"bursty_requests\": %zu, \"bursty_hit_rate\": %.6f, "
        "\"bursty_p99_ms\": %.3f}%s\n",
        variants[i].name, variants[i].steady_weight, steady_rows[i].requests,
        steady_rows[i].hit_rate, steady_rows[i].p99_ms, inflation,
        bursty_rows[i].requests, bursty_rows[i].hit_rate,
        bursty_rows[i].p99_ms, i + 1 < std::size(variants) ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  if (!bench::close_json(out, out_path)) return 1;
  std::printf("wrote %s (%zu rows)\n", out_path, std::size(variants));
  return 0;
}
