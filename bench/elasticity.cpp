// Elasticity frontier: cost vs SLO attainment under spot churn, per
// scheduler x churn intensity x fleet policy (DESIGN.md §11). The static
// fleet anchors the frontier; "fixed" replaces reclaimed nodes but never
// grows or shrinks; "elastic" rides the queue-depth policy; "elastic+shed"
// adds admission control so unattainable requests are refused up front
// instead of missing late. Spot reclamations require an elastic fleet, so
// the static policy only exists at zero churn.
//
// Besides the table, the binary writes a machine-readable JSON baseline
// (argv[1], default BENCH_elasticity.json) so later changes have a
// robustness trajectory to compare against.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "elastic/elastic_spec.hpp"
#include "fault/fault_spec.hpp"

namespace {

using namespace esg;

struct Churn {
  const char* name;
  std::string spec;  // parse_fault_spec grammar (spot: clauses only)
};

struct Policy {
  const char* name;
  std::string spec;  // parse_elastic_spec grammar; empty = static fleet
};

std::string fmt_spec(const char* pattern, double horizon_ms) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), pattern, horizon_ms);
  return buf;
}

struct Cell {
  std::size_t scheduler;
  std::size_t churn;
  std::size_t policy;
};

}  // namespace

int main(int argc, char** argv) {
  bench::print_banner(
      "Elasticity: cost vs attainment under spot churn",
      "graceful degradation (drain + replacement + shedding) holds more of "
      "the SLO frontier than a static fleet once the cloud reclaims nodes");

  const exp::SettingCombo combo = exp::paper_combos()[1];  // moderate-normal
  const TimeMs horizon = bench::horizon_ms();
  std::printf("setting: %s\n\n", exp::combo_name(combo).c_str());

  // Reclamations land mid-run (fractions of the horizon) so the drain and
  // the re-acquisition both fall inside the measured window.
  const Churn churns[] = {
      {"none", ""},
      {"burst", fmt_spec("spot:at=%.0f,nodes=4,warn=500", 0.4 * horizon)},
      {"repeat", fmt_spec("spot:at=%.0f,nodes=4,warn=250", 0.3 * horizon) +
                     ";" +
                     fmt_spec("spot:at=%.0f,nodes=4,warn=250", 0.6 * horizon)},
  };
  const Policy policies[] = {
      {"static", ""},
      {"fixed", "queue:min=16,max=16,idle-ms=0,out=2,provision-ms=1000"},
      {"elastic", "queue:min=4,max=16,out=2,idle-ms=5000,provision-ms=1000"},
      {"elastic+shed",
       "queue:min=4,max=16,out=2,idle-ms=5000,provision-ms=1000,shed=on"},
  };

  // Build the valid grid: spot churn needs an elastic fleet, so the static
  // policy is the zero-churn anchor only.
  std::vector<exp::Scenario> grid;
  std::vector<Cell> cells;
  const auto schedulers = exp::all_schedulers();
  for (std::size_t si = 0; si < schedulers.size(); ++si) {
    for (std::size_t ci = 0; ci < std::size(churns); ++ci) {
      for (std::size_t pi = 0; pi < std::size(policies); ++pi) {
        if (pi == 0 && ci != 0) continue;
        exp::Scenario s = bench::make_scenario(schedulers[si], combo);
        s.elastic = elastic::parse_elastic_spec(policies[pi].spec);
        s.fault = fault::parse_fault_spec(churns[ci].spec);
        grid.push_back(s);
        cells.push_back({si, ci, pi});
      }
    }
  }
  const auto results = bench::run_grid(grid);

  AsciiTable table({"scheduler", "churn", "policy", "hit rate", "cost ($)",
                    "shed", "reclaims", "out/in", "mean wait (ms)"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::size_t shed = 0, reclaims = 0, outs = 0, ins = 0;
    for (const auto& run : results[i].replicas) {
      shed += run.metrics.shed_requests;
      reclaims += run.metrics.spot_reclaims;
      outs += run.metrics.scale_outs;
      ins += run.metrics.scale_ins;
    }
    const auto& agg = results[i].aggregate;
    table.add_row({std::string(exp::to_string(grid[i].scheduler)),
                   churns[cells[i].churn].name, policies[cells[i].policy].name,
                   AsciiTable::pct(agg.slo_hit_rate),
                   AsciiTable::num(agg.total_cost, 4), std::to_string(shed),
                   std::to_string(reclaims),
                   std::to_string(outs) + "/" + std::to_string(ins),
                   AsciiTable::num(agg.mean_job_wait_ms, 1)});
  }
  std::printf("%s\n", table.render().c_str());

  // Machine-readable baseline for trend tracking across PRs.
  const char* out_path = argc > 1 ? argv[1] : "BENCH_elasticity.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::write_meta_json(out);
  std::fprintf(out,
               "  \"bench\": \"elasticity\",\n"
               "  \"setting\": \"%s\",\n"
               "  \"horizon_ms\": %.0f,\n  \"seeds\": %zu,\n  \"rows\": [\n",
               exp::combo_name(combo).c_str(), horizon,
               bench::seeds().size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::size_t shed = 0, reclaims = 0, outs = 0, ins = 0, retries = 0;
    for (const auto& run : results[i].replicas) {
      shed += run.metrics.shed_requests;
      reclaims += run.metrics.spot_reclaims;
      outs += run.metrics.scale_outs;
      ins += run.metrics.scale_ins;
      retries += run.metrics.retries;
    }
    const auto& agg = results[i].aggregate;
    std::fprintf(
        out,
        "    {\"scheduler\": \"%s\", \"churn\": \"%s\", \"policy\": \"%s\", "
        "\"hit_rate\": %.6f, \"total_cost\": %.6f, \"requests\": %zu, "
        "\"mean_wait_ms\": %.3f, \"shed\": %zu, \"spot_reclaims\": %zu, "
        "\"scale_outs\": %zu, \"scale_ins\": %zu, \"retries\": %zu}%s\n",
        std::string(exp::to_string(grid[i].scheduler)).c_str(),
        churns[cells[i].churn].name, policies[cells[i].policy].name,
        agg.slo_hit_rate, agg.total_cost, agg.requests, agg.mean_job_wait_ms,
        shed, reclaims, outs, ins, retries,
        i + 1 < grid.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  if (!bench::close_json(out, out_path)) return 1;
  std::printf("wrote %s (%zu rows)\n", out_path, grid.size());
  return 0;
}
