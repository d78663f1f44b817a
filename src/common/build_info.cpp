#include "common/build_info.hpp"

#include <cstdio>
#include <thread>

#include "common/json.hpp"

#ifdef __unix__
#include <sys/utsname.h>
#endif

#ifndef ESG_BUILD_COMMIT
#define ESG_BUILD_COMMIT "unknown"
#endif
#ifndef ESG_BUILD_TYPE
#define ESG_BUILD_TYPE "unknown"
#endif

namespace esg::common {

namespace {

std::string first_line_of(const char* command) {
  std::string out;
#ifdef __unix__
  if (std::FILE* pipe = ::popen(command, "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) out = buf;
    ::pclose(pipe);
  }
#else
  (void)command;
#endif
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

std::string compiler_id() {
#if defined(__clang__)
  return "clang++ " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "g++ " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

}  // namespace

BuildInfo build_info() {
  BuildInfo info;
  info.commit = first_line_of("git rev-parse --short HEAD 2>/dev/null");
  if (info.commit.empty()) info.commit = ESG_BUILD_COMMIT;
  info.compiler = compiler_id();
  info.build_type = ESG_BUILD_TYPE;
#ifdef ESG_SANITIZE_BUILD
  info.sanitize = true;
#endif
#ifdef __unix__
  utsname uts{};
  if (::uname(&uts) == 0) {
    info.host = uts.nodename;
    info.kernel = std::string(uts.sysname) + " " + uts.release;
  }
#endif
  if (info.host.empty()) info.host = "unknown";
  if (info.kernel.empty()) info.kernel = "unknown";
  info.cpus = std::thread::hardware_concurrency();
  return info;
}

std::string version_line(const std::string& tool) {
  const BuildInfo info = build_info();
  std::string line = tool + " (esg) commit " + info.commit + " · " +
                     info.compiler + " · " + info.build_type;
  if (info.sanitize) line += " · sanitize";
  return line;
}

void write_build_info(std::FILE* out, const std::string& tool) {
  const BuildInfo info = build_info();
  std::fprintf(out, "tool: %s\n", tool.c_str());
  std::fprintf(out, "commit: %s\n", info.commit.c_str());
  std::fprintf(out, "compiler: %s\n", info.compiler.c_str());
  std::fprintf(out, "build_type: %s\n", info.build_type.c_str());
  std::fprintf(out, "sanitize: %s\n", info.sanitize ? "on" : "off");
  std::fprintf(out, "host: %s\n", info.host.c_str());
  std::fprintf(out, "kernel: %s\n", info.kernel.c_str());
  std::fprintf(out, "cpus: %u\n", info.cpus);
}

std::string meta_json_object() {
  const BuildInfo info = build_info();
  std::string out = "{\"host\": \"" + json::escape(info.host) + "\", ";
  out += "\"kernel\": \"" + json::escape(info.kernel) + "\", ";
  out += "\"cpus\": " + std::to_string(info.cpus) + ", ";
  out += "\"commit\": \"" + json::escape(info.commit) + "\"}";
  return out;
}

}  // namespace esg::common
