// Hostile input: a seeded mutation test over the five spec grammars
// (--fault-spec, --elastic, --tenants, --forecast, --arrivals), both
// esg.trace.v1 encodings, the Chrome trace esg_report reads and the perf
// JSON esg_perfdiff reads. Each mutant of a valid input either parses or
// throws std::invalid_argument; anything else fails. Under ESG_SANITIZE the
// same run checks that no mutant reads out of bounds or casts an
// out-of-range number. A last row is differential: every mutant common/json
// accepts must also pass the independent validator in tests/obs/mini_json.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "../obs/mini_json.hpp"
#include "common/json.hpp"
#include "elastic/elastic_spec.hpp"
#include "exp/cli.hpp"
#include "fault/fault_spec.hpp"
#include "forecast/forecast_spec.hpp"
#include "obs/analysis/trace_reader.hpp"
#include "perf/perfdiff.hpp"
#include "tenant/tenant_spec.hpp"
#include "trace/workload_trace.hpp"

namespace esg {
namespace {

constexpr int kMutantsPerSeed = 300;

/// Applies one to three random edits; mt19937_64's output is fixed by the
/// standard, so every platform sees the same mutants.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(std::string s) {
    const std::size_t edits = 1 + below(3);
    for (std::size_t e = 0; e < edits; ++e) edit(s);
    return s;
  }

 private:
  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

  void edit(std::string& s) {
    static const char* const kExtremes[] = {
        "1e308", "-0", "4294967296", "4294967295", "4.9e-324",
        "2.2250738585072014e-308", "18446744073709551616",
        "9007199254740993", "-1", "1e-400", "1e400", "nan", "inf", "0x10",
        "", "0"};
    static const char kBytes[] = ";,:=@#\n\r\t .-+e0123456789";
    const std::size_t at = below(s.size() + 1);
    switch (below(7)) {
      case 0:  // flip one bit of one byte
        if (!s.empty()) s[below(s.size())] ^= static_cast<char>(1 << below(8));
        break;
      case 1:  // truncate
        s.resize(at);
        break;
      case 2: {  // replace a number with an extreme
        const std::size_t start = s.find_first_of("0123456789", at);
        if (start == std::string::npos) break;
        const std::size_t end = s.find_first_not_of("0123456789.e-", start);
        s.replace(start, end == std::string::npos ? end : end - start,
                  kExtremes[below(std::size(kExtremes))]);
        break;
      }
      case 3: {  // repeat a key=value item
        const std::size_t eq = s.find('=', at);
        if (eq == std::string::npos) break;
        const std::size_t begin = s.find_last_of(",;:\n", eq) + 1;
        const std::size_t end = std::min(s.find_first_of(",;\n", eq), s.size());
        std::string item = ",";
        item.append(s, begin, end - begin);
        s.insert(end, item);
        break;
      }
      case 4:
        s.insert(at, 1, '\r');
        break;
      case 5:
        s.insert(at, 1, '\0');
        break;
      default:  // splice in a separator or digit
        s.insert(at, 1, kBytes[below(sizeof(kBytes) - 1)]);
        break;
    }
  }

  std::mt19937_64 rng_;
};

std::string printable(const std::string& s) {
  std::string out;
  for (const unsigned char c : s) {
    if (c >= 0x20 && c < 0x7f) {
      out += static_cast<char>(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", c);
      out += buf;
    }
  }
  return out;
}

struct Grammar {
  const char* name;
  std::vector<std::string> seeds;
  std::function<void(const std::string&)> parse;
};

constexpr const char* kChromeTrace =
    "[\n"
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
    "\"args\":{\"name\":\"controller\"}},\n"
    "{\"name\":\"req 7 (app 2)\",\"cat\":\"request\",\"ph\":\"X\","
    "\"ts\":49803.270,\"dur\":1200.125,\"pid\":2,\"tid\":7,"
    "\"args\":{\"app\":\"2\",\"slo_ms\":\"1161.600000\"}},\n"
    "{\"name\":\"budget replan\",\"cat\":\"budget_replan\",\"ph\":\"i\","
    "\"s\":\"t\",\"ts\":49803.270,\"pid\":1,\"tid\":0,"
    "\"args\":{\"app\":\"2\",\"stage\":\"0\",\"budget_ms\":\"1151.0\"}},\n"
    "{\"name\":\"used_vcpus\",\"ph\":\"C\",\"ts\":0.000,\"pid\":100,"
    "\"tid\":0,\"args\":{\"value\":4}}\n"
    "]\n";

constexpr const char* kPerfJson =
    "{\n  \"schema\": \"esg.perf.v1\",\n"
    "  \"meta\": {\"host\": \"vm\", \"kernel\": \"Linux 6.1\", \"cpus\": 4, "
    "\"commit\": \"abc1234\"},\n"
    "  \"run\": {\"scheduler\": \"esg\", \"seed\": 42, \"simulated_ms\": "
    "2000.000, \"wall_seconds\": 0.012500, \"events_per_sec\": 1.5e5},\n"
    "  \"counters\": {\"events_fired\": 1875, \"plans\": 12},\n"
    "  \"profile\": [\n    {\"path\": \"sim.run\", \"depth\": 0, "
    "\"calls\": 1, \"mean_ns\": 12.5}]\n}\n";

constexpr const char* kBenchJson =
    "{\"meta\": {\"cpus\": 1}, \"horizon_ms\": 60000, \"rows\": [\n"
    "  {\"scheduler\": \"esg\", \"rate_scale\": 10, \"events_per_sec\": "
    "108500.5, \"truncated\": false, \"note\": null},\n"
    "  {\"scheduler\": \"orion\", \"rate_scale\": 1, \"events_per_sec\": -0.0,"
    " \"tags\": [\"a\\\"b\", \"\\u00e9\"]}]}";

TEST(HostileInput, EveryMutantParsesOrThrowsInvalidArgument) {
  const std::string trace_path =
      ::testing::TempDir() + "/hostile_input_trace.csv";
  {
    std::ofstream out(trace_path);
    out << "esg-trace,v1,bin_ms=500,apps=2\n0,0,5\n0,1,2\n1,0,3\n";
  }
  const std::vector<Grammar> grammars = {
      {"fault-spec",
       {"crash:invoker=1,at=2000,down=1500;dispatch:prob=0.05;"
        "slow:invoker=0,at=500,for=4000,factor=3",
        "# comment\ncoldstart:prob=0.2,function=1\nspot:at=100,nodes=2,warn=5",
        "crash:invoker=2,at=10,down=5;crash:invoker=2,at=15,down=5"},
       [](const std::string& s) { (void)fault::parse_fault_spec(s); }},
      {"elastic-spec",
       {"queue:min=4,max=24,out=4,idle-ms=4000,provision-ms=1000,shed=on,"
        "shed-margin=1.5",
        "rate:min=2,max=12,out=4.5,step=3,eval-ms=100,alpha=0.5",
        "forecast:min=0,max=16"},
       [](const std::string& s) { (void)elastic::parse_elastic_spec(s); }},
      {"tenant-spec",
       {"gold:3:apps=0,2;bronze:1:energy:apps=1,3;throttle=25",
        "a:1:hybrid=0.25\n# x\nb:2:time:apps=4"},
       [](const std::string& s) { (void)tenant::parse_tenant_spec(s); }},
      {"forecast-spec",
       {"seasonal:period-ms=60000,bins=120;lead-ms=3000,bin-ms=500",
        "ewma:alpha=0.5\nlead-ms=1000\nbin-ms=250", "oracle;lead-ms=0"},
       [](const std::string& s) { (void)forecast::parse_forecast_spec(s); }},
      {"--arrivals",
       {"bursty:calm=light,burst=heavy,calm-ms=8000,burst-ms=2000",
        "trace:@" + trace_path + ",rate-scale=2,time-scale=0.5", "synthetic"},
       [](const std::string& s) {
         const std::vector<const char*> args{"--arrivals", s.c_str()};
         (void)exp::parse_cli({args.data(), args.size()});
       }},
      {"trace csv",
       {"# c\nesg-trace,v1,bin_ms=500,apps=3\n0,0,12\n0,2,3\n\n2,1,7.5\n",
        "esg-trace,v1,bin_ms=250,apps=2,tenants=2\n0,0,4,0\n0,0,1,1\n1,1,2,1\n"},
       [](const std::string& s) {
         std::istringstream in(s);
         (void)trace::parse_trace_csv(in);
       }},
      {"trace jsonl",
       {"{\"schema\":\"esg.trace.v1\",\"bin_ms\":250,\"apps\":2}\n"
        "{\"bin\":0,\"app\":0,\"count\":4}\n{\"bin\":1,\"app\":1,\"count\":2.5}\n",
        "{\"schema\":\"esg.trace.v1\",\"bin_ms\":100,\"apps\":1,\"tenants\":2}\n"
        "{\"bin\":0,\"app\":0,\"count\":1,\"tenant\":1}\n"},
       [](const std::string& s) {
         std::istringstream in(s);
         (void)trace::parse_trace_jsonl(in);
       }},
      {"chrome trace",
       {kChromeTrace,
        std::string("{\"traceEvents\":") + kChromeTrace +
            ",\"displayTimeUnit\":\"ms\"}"},
       [](const std::string& s) {
         std::istringstream in(s);
         (void)obs::analysis::read_chrome_trace(in);
       }},
      {"perf json",
       {kPerfJson, kBenchJson},
       [](const std::string& s) {
         (void)perf::diff_json(s, s, perf::DiffOptions{});
       }},
      {"json vs mini_json",
       {kChromeTrace, kPerfJson, kBenchJson,
        "{\"schema\":\"esg.trace.v1\",\"bin_ms\":250,\"apps\":2}"},
       [](const std::string& s) {
         (void)json::parse(s, "mutant");
         if (!test_json::is_valid_json(s)) {
           throw std::logic_error("accepted, but mini_json rejects it");
         }
       }},
  };

  Mutator mutator(20261017);
  for (const Grammar& g : grammars) {
    int parsed = 0;
    int rejected = 0;
    for (const std::string& seed : g.seeds) {
      ASSERT_NO_THROW(g.parse(seed)) << g.name << ": " << printable(seed);
      for (int i = 0; i < kMutantsPerSeed; ++i) {
        const std::string input = mutator.mutate(seed);
        try {
          g.parse(input);
          ++parsed;
        } catch (const std::invalid_argument&) {
          ++rejected;
        } catch (const std::exception& e) {
          ADD_FAILURE() << g.name << ": '" << printable(input)
                        << "' threw a non-invalid_argument: " << e.what();
        }
      }
    }
    // Both outcomes occur, so the mutants reach past the first check.
    EXPECT_GT(parsed, 0) << g.name;
    EXPECT_GT(rejected, 0) << g.name;
  }
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace esg
