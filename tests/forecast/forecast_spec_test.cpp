// --forecast grammar: canonical specs round-trip through to_string, the
// inert spellings stay inert, and every malformed clause is rejected with
// std::invalid_argument (the CLI maps it to exit code 2).
#include "forecast/forecast_spec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

namespace esg::forecast {
namespace {

TEST(ForecastSpec, EmptyAndNoneAreInert) {
  for (const char* text : {"", "none", "  none  "}) {
    const ForecastSpec spec = parse_forecast_spec(text);
    EXPECT_EQ(spec.kind, ForecastKind::kNone) << text;
    EXPECT_TRUE(spec.inert());
    EXPECT_FALSE(spec.enabled());
  }
}

TEST(ForecastSpec, ParsesEveryPredictorWithDefaults) {
  EXPECT_EQ(parse_forecast_spec("oracle").kind, ForecastKind::kOracle);
  EXPECT_EQ(parse_forecast_spec("last-bin").kind, ForecastKind::kLastBin);
  const ForecastSpec ewma = parse_forecast_spec("ewma");
  EXPECT_EQ(ewma.kind, ForecastKind::kEwma);
  EXPECT_DOUBLE_EQ(ewma.ewma_alpha, 0.3);
  const ForecastSpec seasonal = parse_forecast_spec("seasonal");
  EXPECT_EQ(seasonal.kind, ForecastKind::kSeasonal);
  EXPECT_DOUBLE_EQ(seasonal.seasonal_period_ms, 120'000.0);
  EXPECT_EQ(seasonal.seasonal_bins, 120u);
  EXPECT_DOUBLE_EQ(seasonal.bin_ms, 1'000.0);
  EXPECT_DOUBLE_EQ(seasonal.lead_ms, 2'000.0);
}

TEST(ForecastSpec, ParsesParametersAndSharedTail) {
  const ForecastSpec spec = parse_forecast_spec(
      "seasonal:period-ms=60000,bins=60;lead-ms=1500,bin-ms=500");
  EXPECT_EQ(spec.kind, ForecastKind::kSeasonal);
  EXPECT_DOUBLE_EQ(spec.seasonal_period_ms, 60'000.0);
  EXPECT_EQ(spec.seasonal_bins, 60u);
  EXPECT_DOUBLE_EQ(spec.lead_ms, 1'500.0);
  EXPECT_DOUBLE_EQ(spec.bin_ms, 500.0);
  EXPECT_DOUBLE_EQ(parse_forecast_spec("ewma:alpha=0.75").ewma_alpha, 0.75);
  EXPECT_DOUBLE_EQ(parse_forecast_spec("oracle;lead-ms=0").lead_ms, 0.0);
}

TEST(ForecastSpec, WhitespaceAroundClausesIsIgnored) {
  const ForecastSpec spec =
      parse_forecast_spec("  ewma : alpha = 0.5 ; lead-ms = 250  ");
  EXPECT_EQ(spec.kind, ForecastKind::kEwma);
  EXPECT_DOUBLE_EQ(spec.ewma_alpha, 0.5);
  EXPECT_DOUBLE_EQ(spec.lead_ms, 250.0);
}

TEST(ForecastSpec, ToStringRoundTrips) {
  const char* specs[] = {
      "none",
      "oracle",
      "last-bin",
      "ewma:alpha=0.5;lead-ms=3000,bin-ms=500",
      "seasonal:period-ms=30000,bins=30;lead-ms=1000,bin-ms=250",
  };
  for (const char* text : specs) {
    const ForecastSpec a = parse_forecast_spec(text);
    const ForecastSpec b = parse_forecast_spec(to_string(a));
    EXPECT_EQ(a.kind, b.kind) << text;
    EXPECT_DOUBLE_EQ(a.ewma_alpha, b.ewma_alpha) << text;
    EXPECT_DOUBLE_EQ(a.seasonal_period_ms, b.seasonal_period_ms) << text;
    EXPECT_EQ(a.seasonal_bins, b.seasonal_bins) << text;
    EXPECT_DOUBLE_EQ(a.bin_ms, b.bin_ms) << text;
    EXPECT_DOUBLE_EQ(a.lead_ms, b.lead_ms) << text;
  }
  EXPECT_EQ(to_string(parse_forecast_spec("")), "none");
}

TEST(ForecastSpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      "arima",                       // unknown predictor
      "ewma:alpha=0",                // alpha out of (0, 1]
      "ewma:alpha=1.5",
      "ewma:alpha=nan",              // from_chars accepts nan; isfinite rejects
      "ewma:alpha=0.5x",             // trailing garbage
      "ewma:alpha=0.3,alpha=0.4",    // duplicate key
      "ewma:period-ms=100",          // seasonal key on the wrong predictor
      "oracle:alpha=0.5",            // parameters the oracle has none of
      "seasonal:bins=0",
      "seasonal:period-ms=-5",
      "seasonal:bins=2.5",           // fractional count
      "last-bin:foo=1",              // unknown key
      "ewma:alpha",                  // not key=value
      "ewma:=0.5",
      "oracle;lead-ms=-1",           // negative lead
      "oracle;bin-ms=0",             // non-positive bin
      "oracle;cadence-ms=5",         // unknown shared key
      "oracle;lead-ms=5,lead-ms=6",  // duplicate shared key
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)parse_forecast_spec(text), std::invalid_argument)
        << text;
  }
}

TEST(ForecastSpec, FileIndirectionFoldsNewlines) {
  const std::string path = ::testing::TempDir() + "/forecast_spec.txt";
  {
    std::ofstream out(path);
    out << "ewma:alpha=0.6\nlead-ms=750\n";
  }
  const ForecastSpec spec = load_forecast_spec("@" + path);
  EXPECT_EQ(spec.kind, ForecastKind::kEwma);
  EXPECT_DOUBLE_EQ(spec.ewma_alpha, 0.6);
  EXPECT_DOUBLE_EQ(spec.lead_ms, 750.0);
  std::remove(path.c_str());
  EXPECT_THROW((void)load_forecast_spec("@" + path), std::invalid_argument);
}

TEST(ForecastSpec, SharedKeysSplitOnSemicolonOrComma) {
  for (const char* text : {"ewma;lead-ms=1000;bin-ms=500",
                           "ewma;lead-ms=1000,bin-ms=500",
                           "ewma; bin-ms=500 ;lead-ms=1000;"}) {
    const ForecastSpec spec = parse_forecast_spec(text);
    EXPECT_EQ(spec.kind, ForecastKind::kEwma) << text;
    EXPECT_DOUBLE_EQ(spec.lead_ms, 1'000.0) << text;
    EXPECT_DOUBLE_EQ(spec.bin_ms, 500.0) << text;
    EXPECT_EQ(to_string(spec), "ewma:alpha=0.3;lead-ms=1000,bin-ms=500")
        << text;
  }
  // A key repeated across the two separators is still a duplicate.
  EXPECT_THROW((void)parse_forecast_spec("oracle;lead-ms=5;lead-ms=6"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_forecast_spec("oracle;lead-ms=5,bin-ms=1;bin-ms=2"),
               std::invalid_argument);
}

TEST(ForecastSpec, FileWithCrlfCommentsAndOneKeyPerLine) {
  const std::string path = ::testing::TempDir() + "/forecast_spec_crlf.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "# learn the diurnal shape\r\n"
           "seasonal:period-ms=60000,bins=60\r\n"
           "lead-ms=1500\r\n"
           "# observation bins\r\n"
           "bin-ms=250\r\n";
  }
  const ForecastSpec spec = load_forecast_spec("@" + path);
  EXPECT_EQ(spec.kind, ForecastKind::kSeasonal);
  EXPECT_DOUBLE_EQ(spec.seasonal_period_ms, 60'000.0);
  EXPECT_EQ(spec.seasonal_bins, 60u);
  EXPECT_DOUBLE_EQ(spec.lead_ms, 1'500.0);
  EXPECT_DOUBLE_EQ(spec.bin_ms, 250.0);
  std::remove(path.c_str());
}

TEST(ForecastSpec, ErrorsNameTheLineAndClause) {
  try {
    (void)parse_forecast_spec("oracle\nlead-ms=5\nbin-ms=0");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "forecast-spec line 3 'bin-ms=0': bin-ms must be > 0");
  }
}

TEST(ForecastSpec, KindNamesRoundTrip) {
  EXPECT_EQ(to_string(ForecastKind::kNone), "none");
  EXPECT_EQ(to_string(ForecastKind::kOracle), "oracle");
  EXPECT_EQ(to_string(ForecastKind::kLastBin), "last-bin");
  EXPECT_EQ(to_string(ForecastKind::kEwma), "ewma");
  EXPECT_EQ(to_string(ForecastKind::kSeasonal), "seasonal");
}

}  // namespace
}  // namespace esg::forecast
