// Sections 5.3/5.4: search time vs function-group size, with 256
// configurations per function. The paper reports <10 ms for group size 3,
// a jump to ~1201 ms at group size 4, and 7258 ms for a brute force over
// 256^3 paths. We measure wall-clock of the real searches and print the
// deterministic overhead model's estimate alongside.
#include <chrono>
#include <cstdio>
#include <functional>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/brute_force.hpp"
#include "core/esg_1q.hpp"
#include "profile/function_spec.hpp"

namespace {

double wall_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  using namespace esg;
  bench::print_banner(
      "Sections 5.3/5.4: search cost vs group size (256 configs/function)",
      "dual-blade pruned search stays in the ms range for group size <= 3; "
      "group size 4 jumps (~1201 ms modeled in the paper); brute force over "
      "256^3 costs 7258 ms");

  // A ~256-configuration space per function (8 batches x 4 vCPUs x 7 vGPU
  // levels = 224, enumerated WITHOUT the dominated-config filter so the
  // count matches the paper's "256 configurations" as closely as the
  // resource model allows).
  profile::ProfileSet profiles;
  {
    const std::uint16_t batches[] = {1, 2, 3, 4, 6, 8, 12, 16};
    const std::uint16_t vcpus[] = {1, 2, 4, 8};
    for (const auto& spec : profile::builtin_specs()) {
      std::vector<profile::Config> configs;
      for (std::uint16_t b : batches) {
        if (b > spec.max_batch) continue;
        for (std::uint16_t c : vcpus) {
          for (std::uint16_t g = 1; g <= 7; ++g) {
            configs.push_back(profile::Config{b, c, g});
          }
        }
      }
      profiles.add(profile::ProfileTable(spec, configs, profile::PriceModel{}));
    }
  }

  // The expanded pipeline's first four functions, as a worst-case group.
  const profile::Function fns[] = {
      profile::Function::kDeblur, profile::Function::kSuperResolution,
      profile::Function::kBackgroundRemoval, profile::Function::kSegmentation};

  AsciiTable table({"group size", "configs/function", "nodes expanded",
                    "measured search (ms)", "modeled overhead (ms)"});
  const core::OverheadModel model;

  for (std::size_t group = 1; group <= 4; ++group) {
    std::vector<core::StageInput> stages;
    TimeMs base = 0.0;
    std::size_t cfg_count = 0;
    for (std::size_t i = 0; i < group; ++i) {
      const auto& tbl = profiles.table(profile::id_of(fns[i]));
      stages.push_back(core::StageInput{&tbl, 0});
      base += tbl.min_config_entry().latency_ms;
      cfg_count = tbl.entries().size();
    }
    core::SearchResult result;
    const double ms = wall_ms([&] { result = core::esg_1q(stages, 1.1 * base); });
    table.add_row({std::to_string(group), std::to_string(cfg_count),
                   std::to_string(result.stats.nodes_expanded),
                   AsciiTable::num(ms, 2),
                   AsciiTable::num(model.overhead_ms(result.stats.nodes_expanded), 2)});
  }
  std::printf("%s\n", table.render().c_str());

  // Brute force over three stages (the paper's 7258 ms data point).
  {
    std::vector<core::StageInput> stages;
    TimeMs base = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      const auto& tbl = profiles.table(profile::id_of(fns[i]));
      stages.push_back(core::StageInput{&tbl, 0});
      base += tbl.min_config_entry().latency_ms;
    }
    core::SearchResult result;
    const double ms =
        wall_ms([&] { result = core::brute_force_search(stages, 1.1 * base); });
    std::printf("brute force, 3 stages: %zu paths, measured %.0f ms, "
                "modeled %.0f ms (paper: 7258 ms)\n",
                result.stats.nodes_expanded, ms,
                model.overhead_ms(result.stats.nodes_expanded));
  }
  return 0;
}
