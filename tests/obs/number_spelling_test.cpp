// The sinks spell times in fixed precision 3 and counter values in general
// precision 6 with std::to_chars, and quantize_ms and common/json read
// numbers back with std::from_chars. These tests hold them to the printf
// and strtod spellings the trace and stats files have always had; the
// snprintf and strtod references live only here.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/analysis/dataset.hpp"
#include "obs/sinks.hpp"

namespace esg::obs {
namespace {

std::string printf_spelling(const char* format, double v) {
  // "%.3f" of -DBL_MAX is 314 bytes.
  char buf[512];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

std::string reference_stats_line(double v) {
  return "{\"ts_ms\":" + printf_spelling("%.3f", v) +
         ",\"pid\":1,\"name\":\"g\",\"value\":" + printf_spelling("%.6g", v) +
         "}\n";
}

std::string reference_chrome_trace(double v) {
  return "[\n{\"name\":\"g\",\"ph\":\"C\",\"ts\":" +
         printf_spelling("%.3f", v * 1000.0) +
         ",\"pid\":1,\"tid\":0,\"args\":{\"value\":" +
         printf_spelling("%.6g", v) + "}}\n]\n";
}

double reference_quantize(double ms) {
  return std::strtod(printf_spelling("%.3f", ms * 1000.0).c_str(), nullptr) /
         1000.0;
}

bool same_double(double a, double b) {
  return std::isnan(a) ? std::isnan(b) : std::memcmp(&a, &b, sizeof a) == 0;
}

CounterSample sample_of(double v) {
  return {"g", Track{1, 0}, v, v};
}

std::string chrome_trace_of(double v) {
  std::ostringstream out;
  {
    ChromeTraceSink sink(out);
    sink.on_counter(sample_of(v));
  }
  return out.str();
}

/// Ties at the fourth decimal and at the seventh significant digit, signed
/// zeros, infinities, NaNs, denormals and the ends of the double range.
std::vector<double> edge_values() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  return {0.0005,    0.0015,     2.0025,     -0.0005,    0.0625,
          1.0005,    123.4565,   999.9995,   0.0,        -0.0,
          kInf,      -kInf,      kNan,       -kNan,      4.9e-324,
          -4.9e-324, DBL_MIN,    2.2250738585072009e-308,
          1e300,     -1e300,     1e59,       1e60,       DBL_MAX,
          -DBL_MAX,  1234565.0,  1234575.0,  999999.5,   9999995.0,
          1e-5,      0.0001,     123456.0,   1234567.0,  0.5,
          1.5,       2.5,        49803.27,   1e21};
}

TEST(NumberSpelling, SinksSpellEdgeValuesAsPrintfDoes) {
  for (const double v : edge_values()) {
    std::ostringstream stats;
    JsonlStatsSink sink(stats);
    sink.on_counter(sample_of(v));
    EXPECT_EQ(stats.str(), reference_stats_line(v)) << v;
    EXPECT_EQ(chrome_trace_of(v), reference_chrome_trace(v)) << v;
  }
}

TEST(NumberSpelling, FixedThreeHoldsAnyFiniteDouble) {
  // snprintf into the old 64-byte buffers truncated above about 1e59.
  std::ostringstream stats;
  JsonlStatsSink sink(stats);
  sink.on_counter(sample_of(-DBL_MAX));
  const std::string line = stats.str();
  const std::string ts = line.substr(9, line.find(',') - 9);
  EXPECT_EQ(ts.size(), 314u);
  EXPECT_EQ(ts, printf_spelling("%.3f", -DBL_MAX));
}

TEST(NumberSpelling, QuantizeMatchesTheStrtodOfPrintf) {
  for (const double v : edge_values()) {
    EXPECT_TRUE(same_double(analysis::quantize_ms(v), reference_quantize(v)))
        << v;
  }
}

TEST(NumberSpelling, RandomBitPatternsMatchPrintfAndStrtod) {
  // Half the draws are raw bit patterns (every exponent, NaN payloads,
  // denormals); half are times with four decimals, where fixed precision 3
  // must round the last digit as printf does.
  std::mt19937_64 rng(20261021);
  std::ostringstream stats;
  JsonlStatsSink sink(stats);
  constexpr int kDraws = 1 << 20;
  int mismatches = 0;
  for (int i = 0; i < kDraws && mismatches < 10; ++i) {
    const std::uint64_t bits = rng();
    double v = 0.0;
    if (i % 2 == 0) {
      std::memcpy(&v, &bits, sizeof v);
    } else {
      v = static_cast<double>(bits % 10'000'000'000ull) / 1e4;
    }
    stats.str("");
    sink.on_counter(sample_of(v));
    if (stats.str() != reference_stats_line(v)) {
      ++mismatches;
      ADD_FAILURE() << stats.str() << " != " << reference_stats_line(v);
    }
    if (!same_double(analysis::quantize_ms(v), reference_quantize(v))) {
      ++mismatches;
      ADD_FAILURE() << "quantize_ms(" << v << ")";
    }
    if (i % 64 == 1 && chrome_trace_of(v) != reference_chrome_trace(v)) {
      ++mismatches;
      ADD_FAILURE() << chrome_trace_of(v);
    }
    if (std::isfinite(v)) {
      // common/json reads a 17-digit spelling as strtod does.
      const std::string text = printf_spelling("%.17g", v);
      const double read = json::parse(text, "number").number;
      if (!same_double(read, std::strtod(text.c_str(), nullptr))) {
        ++mismatches;
        ADD_FAILURE() << "json::parse(" << text << ")";
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace esg::obs
