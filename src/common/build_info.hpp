// Build and host provenance shared by every CLI (--version/--build-info)
// and every checked-in BENCH/perf artefact's "meta" block.
#pragma once

#include <cstdio>
#include <string>

namespace esg::common {

struct BuildInfo {
  std::string commit;      ///< git HEAD at run time, else the configure-time bake
  std::string compiler;    ///< e.g. "g++ 12.2.0"
  std::string build_type;  ///< CMAKE_BUILD_TYPE at configure time
  bool sanitize = false;   ///< built with ESG_SANITIZE=ON
  std::string host;        ///< uname nodename, "unknown" off-unix
  std::string kernel;      ///< uname "sysname release"
  unsigned cpus = 0;       ///< std::thread::hardware_concurrency()
};

/// Gathers the full provenance record. Host fields come from uname; the
/// commit prefers `git rev-parse` at run time (so artefacts regenerated from
/// a checkout are stamped with the *current* revision) and falls back to the
/// commit baked in at configure time.
[[nodiscard]] BuildInfo build_info();

/// One-line --version output: "<tool> (esg) commit <c> · <compiler> ·
/// <build_type>[ · sanitize]".
[[nodiscard]] std::string version_line(const std::string& tool);

/// Multi-line --build-info output (key: value per line).
void write_build_info(std::FILE* out, const std::string& tool);

/// The shared provenance object for BENCH/perf JSON artefacts:
///   {"host": ..., "kernel": ..., "cpus": N, "commit": ...}
/// (no surrounding key, no trailing newline). Keys and order are frozen —
/// esg_perfdiff and the checked-in baselines rely on them.
[[nodiscard]] std::string meta_json_object();

}  // namespace esg::common
