// esg_tracegen — generates a synthetic Azure-shaped workload trace
// (esg.trace.v1): diurnal sinusoid intensity, Zipf app popularity, and
// multiplicative burst episodes, Poisson-sampled to integer counts.
// Deterministic for a given --seed, so CI and benches can regenerate
// identical traces instead of checking in large files.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/build_info.hpp"
#include "common/rng.hpp"
#include "common/spec_lex.hpp"
#include "trace/azure_shape.hpp"
#include "trace/workload_trace.hpp"

namespace {

namespace lex = esg::lex;

struct Options {
  esg::trace::AzureShapeOptions shape;
  std::uint64_t seed = 42;
  std::string format = "csv";  // csv|jsonl
  std::string out;             // empty = stdout
  bool help = false;
  bool version = false;
  bool build_info = false;
};

const char* kUsage =
    R"(esg_tracegen — generate a synthetic Azure-shaped workload trace (esg.trace.v1)

usage: esg_tracegen [flags]

  --apps        <n>     applications in the trace          (default 4)
  --bins        <n>     bins per day                       (default 120)
  --days        <n>     days to repeat the diurnal pattern
                        over (fresh burst draws each day;
                        trace length = bins*days)          (default 1)
  --bin-ms      <ms>    bin width                          (default 1000)
  --mean-rate   <f>     mean invocations per bin, all apps (default 60)
  --diurnal-amplitude <f>  sinusoid depth in [0,1)         (default 0.6)
  --diurnal-period <bins>  bins per cycle, 0 = whole trace (default 0)
  --zipf-s      <f>     app-popularity skew                (default 1.1)
  --bursts      <n>     burst episodes                     (default 3)
  --burst-factor <f>    intensity multiplier in a burst    (default 4)
  --burst-fraction <f>  mean episode length / trace length (default 0.05)
  --fractional  on|off  store expected counts instead of
                        Poisson-sampled integers           (default off)
  --tenants     <n>     tenants sharing the trace; >= 2 emits
                        the tenant column                  (default 1)
  --tenant-zipf <f>     tenant-popularity skew (0=uniform) (default 1)
  --seed        <n>     RNG seed                           (default 42)
  --format      csv|jsonl                                  (default csv)
  --out         <path>  output file (default: stdout)
  --version             print one provenance line (commit, compiler, build)
  --build-info          print the full build/host provenance record
  --help

exit codes: 0 success; 2 configuration error (bad flag or shape options);
1 runtime failure (unwritable output, internal error).
)";

Options parse_args(std::span<const char* const> args) {
  Options opts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view key = args[i];
    if (key == "--help" || key == "-h") {
      opts.help = true;
      return opts;
    }
    if (key == "--version") {
      opts.version = true;
      return opts;
    }
    if (key == "--build-info") {
      opts.build_info = true;
      return opts;
    }
    if (i + 1 >= args.size()) {
      throw std::invalid_argument("missing value for " + std::string(key));
    }
    const std::string_view value = args[++i];
    const lex::Field field{key, value};
    if (key == "--apps") {
      opts.shape.apps = field.integer(0, lex::kMaxId);
    } else if (key == "--bins") {
      opts.shape.bins = field.integer(0, lex::kMaxId);
    } else if (key == "--days") {
      opts.shape.days = field.integer(1, lex::kMaxId);
    } else if (key == "--bin-ms") {
      opts.shape.bin_ms = field.number();
    } else if (key == "--mean-rate") {
      opts.shape.mean_rate_per_bin = field.number();
    } else if (key == "--diurnal-amplitude") {
      opts.shape.diurnal_amplitude = field.number();
    } else if (key == "--diurnal-period") {
      opts.shape.diurnal_period_bins = field.number();
    } else if (key == "--zipf-s") {
      opts.shape.zipf_s = field.number();
    } else if (key == "--bursts") {
      opts.shape.burst_count = field.integer(0, lex::kMaxId);
    } else if (key == "--burst-factor") {
      opts.shape.burst_factor = field.number();
    } else if (key == "--burst-fraction") {
      opts.shape.burst_fraction = field.number();
    } else if (key == "--fractional") {
      opts.shape.integer_counts = !field.on_off();
    } else if (key == "--tenants") {
      opts.shape.tenants = field.integer(1, lex::kMaxId);
    } else if (key == "--tenant-zipf") {
      opts.shape.tenant_zipf_s = field.number();
    } else if (key == "--seed") {
      opts.seed = field.integer(0, std::numeric_limits<std::uint64_t>::max());
    } else if (key == "--format") {
      opts.format = std::string(value);
      if (opts.format != "csv" && opts.format != "jsonl") {
        throw std::invalid_argument("unknown --format '" + opts.format +
                                    "' (csv|jsonl)");
      }
    } else if (key == "--out") {
      opts.out = std::string(value);
    } else {
      throw std::invalid_argument("unknown flag '" + std::string(key) +
                                  "' (see --help)");
    }
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace esg;
  Options opts;
  try {
    opts = parse_args({const_cast<const char* const*>(argv) + 1,
                       static_cast<std::size_t>(argc - 1)});
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "esg_tracegen: %s\n%s", e.what(), kUsage);
    return 2;
  }
  if (opts.help) {
    std::printf("%s", kUsage);
    return 0;
  }
  if (opts.version) {
    std::printf("%s\n", common::version_line("esg_tracegen").c_str());
    return 0;
  }
  if (opts.build_info) {
    common::write_build_info(stdout, "esg_tracegen");
    return 0;
  }

  try {
    const trace::WorkloadTrace generated = trace::generate_azure_shaped(
        opts.shape, RngFactory(opts.seed).stream("azure-shape"));

    std::ofstream file;
    if (!opts.out.empty()) {
      file.open(opts.out);
      if (!file) {
        std::fprintf(stderr, "esg_tracegen: cannot open '%s'\n",
                     opts.out.c_str());
        return 1;
      }
    }
    std::ostream& out = opts.out.empty() ? std::cout : file;
    if (opts.format == "jsonl") {
      trace::write_trace_jsonl(generated, out);
    } else {
      trace::write_trace_csv(generated, out);
    }
    if (!out.flush()) {
      throw std::runtime_error(
          "cannot write '" + (opts.out.empty() ? "<stdout>" : opts.out) + "'");
    }
    if (!opts.out.empty()) {
      std::fprintf(stderr,
                   "wrote %zu bins x %zu apps (%.0f invocations, %.1f s) to %s\n",
                   generated.bin_count(), generated.app_count,
                   generated.total_count(), generated.duration_ms() / 1000.0,
                   opts.out.c_str());
    }
  } catch (const std::invalid_argument& e) {
    // Shape-option validation happens inside the generator, so a bad knob
    // combination surfaces here; it is still a configuration error.
    std::fprintf(stderr, "esg_tracegen: %s\n%s", e.what(), kUsage);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esg_tracegen: %s\n", e.what());
    return 1;
  }
  return 0;
}
