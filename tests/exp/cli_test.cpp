#include "exp/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace esg::exp {
namespace {

CliOptions parse(std::initializer_list<const char*> args) {
  std::vector<const char*> v(args);
  return parse_cli({v.data(), v.size()});
}

TEST(Cli, DefaultsWhenEmpty) {
  const CliOptions opts = parse({});
  EXPECT_EQ(opts.scenario.scheduler, SchedulerKind::kEsg);
  EXPECT_EQ(opts.scenario.load, workload::LoadSetting::kLight);
  EXPECT_EQ(opts.scenario.slo, workload::SloSetting::kStrict);
  EXPECT_EQ(opts.seeds, (std::vector<std::uint64_t>{42}));
  EXPECT_FALSE(opts.help);
  EXPECT_TRUE(opts.csv_dir.empty());
}

TEST(Cli, ParsesEverySchedulerName) {
  EXPECT_EQ(parse({"--scheduler", "infless"}).scenario.scheduler,
            SchedulerKind::kInfless);
  EXPECT_EQ(parse({"--scheduler", "fast-gshare"}).scenario.scheduler,
            SchedulerKind::kFastGshare);
  EXPECT_EQ(parse({"--scheduler", "fastgshare"}).scenario.scheduler,
            SchedulerKind::kFastGshare);
  EXPECT_EQ(parse({"--scheduler", "orion"}).scenario.scheduler,
            SchedulerKind::kOrion);
  EXPECT_EQ(parse({"--scheduler", "aquatope"}).scenario.scheduler,
            SchedulerKind::kAquatope);
}

TEST(Cli, ParsesWorkloadAndSlo) {
  const CliOptions opts =
      parse({"--load", "heavy", "--slo", "relaxed", "--nodes", "4"});
  EXPECT_EQ(opts.scenario.load, workload::LoadSetting::kHeavy);
  EXPECT_EQ(opts.scenario.slo, workload::SloSetting::kRelaxed);
  EXPECT_EQ(opts.scenario.nodes, 4u);
}

TEST(Cli, ParsesNumbersAndSeeds) {
  const CliOptions opts = parse({"--horizon-ms", "12000", "--warmup-ms",
                                 "3000", "--seeds", "3", "--noise-cv", "0.1"});
  EXPECT_DOUBLE_EQ(opts.scenario.horizon_ms, 12000.0);
  EXPECT_DOUBLE_EQ(opts.scenario.warmup_ms, 3000.0);
  EXPECT_EQ(opts.seeds, (std::vector<std::uint64_t>{42, 43, 44}));
  EXPECT_DOUBLE_EQ(opts.scenario.controller.noise_cv, 0.1);
}

TEST(Cli, ParsesAblationSwitches) {
  const CliOptions opts = parse(
      {"--gpu-sharing", "off", "--batching", "off", "--prewarm", "off"});
  EXPECT_FALSE(opts.scenario.controller.enable_gpu_sharing);
  EXPECT_FALSE(opts.scenario.controller.enable_batching);
  EXPECT_FALSE(opts.scenario.controller.enable_prewarm);
}

TEST(Cli, ParsesEsgKnobs) {
  const CliOptions opts = parse({"--k", "20", "--group-size", "2"});
  EXPECT_EQ(opts.scenario.esg.k, 20u);
  EXPECT_EQ(opts.scenario.esg.max_group_size, 2u);
}

TEST(Cli, HelpShortCircuits) {
  EXPECT_TRUE(parse({"--help"}).help);
  EXPECT_TRUE(parse({"-h"}).help);
  EXPECT_FALSE(cli_usage().empty());
}

TEST(Cli, RejectsBadInput) {
  EXPECT_THROW(parse({"--scheduler", "nope"}), std::invalid_argument);
  EXPECT_THROW(parse({"--load", "extreme"}), std::invalid_argument);
  EXPECT_THROW(parse({"--slo", "loose"}), std::invalid_argument);
  EXPECT_THROW(parse({"--unknown", "1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--horizon-ms"}), std::invalid_argument);  // no value
  EXPECT_THROW(parse({"--horizon-ms", "abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"--seeds", "0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--nodes", "0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--batching", "maybe"}), std::invalid_argument);
}

TEST(Cli, CsvDirCaptured) {
  EXPECT_EQ(parse({"--csv-dir", "/tmp/out"}).csv_dir, "/tmp/out");
}

TEST(Cli, ParsesTracingFlags) {
  const CliOptions opts =
      parse({"--trace-out", "t.json", "--stats-out", "s.jsonl",
             "--stats-interval-ms", "50"});
  EXPECT_EQ(opts.scenario.trace.trace_path, "t.json");
  EXPECT_EQ(opts.scenario.trace.stats_path, "s.jsonl");
  EXPECT_DOUBLE_EQ(opts.scenario.trace.stats_interval_ms, 50.0);
  EXPECT_TRUE(opts.scenario.trace.enabled());
}

TEST(Cli, TracingOffByDefault) {
  EXPECT_FALSE(parse({}).scenario.trace.enabled());
}

TEST(Cli, ParsesReportOut) {
  const CliOptions opts = parse({"--report-out", "report.json"});
  EXPECT_EQ(opts.scenario.trace.report_path, "report.json");
  // --report-out alone must enable the traced (sequential) run path.
  EXPECT_TRUE(opts.scenario.trace.enabled());
  EXPECT_NE(cli_usage().find("--report-out"), std::string::npos);
}

TEST(Cli, ParsesPerfOut) {
  const CliOptions opts = parse({"--perf-out", "perf.json"});
  EXPECT_EQ(opts.scenario.trace.perf_path, "perf.json");
  // --perf-out alone must enable the traced (sequential) run path.
  EXPECT_TRUE(opts.scenario.trace.enabled());
  EXPECT_NE(cli_usage().find("--perf-out"), std::string::npos);
}

TEST(Cli, ParsesPerfSummary) {
  EXPECT_FALSE(parse({}).perf_summary);
  const CliOptions opts = parse({"--perf-summary", "--seeds", "2"});
  EXPECT_TRUE(opts.perf_summary);
  // The flag takes no value: the next token parsed as a normal flag.
  EXPECT_EQ(opts.seeds, (std::vector<std::uint64_t>{42, 43}));
  EXPECT_NE(cli_usage().find("--perf-summary"), std::string::npos);
}

TEST(Cli, VersionAndBuildInfoShortCircuit) {
  EXPECT_FALSE(parse({}).version);
  EXPECT_FALSE(parse({}).build_info);
  // Like --help, these return immediately without demanding values for
  // anything that follows.
  EXPECT_TRUE(parse({"--version", "--bogus"}).version);
  EXPECT_TRUE(parse({"--build-info", "--bogus"}).build_info);
}

TEST(Cli, UnknownFlagNamesItselfAndPointsAtHelp) {
  try {
    (void)parse({"--no-such-flag", "1"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--no-such-flag"), std::string::npos) << what;
    EXPECT_NE(what.find("--help"), std::string::npos) << what;
  }
}

TEST(Cli, RejectsBadStatsInterval) {
  EXPECT_THROW(parse({"--stats-interval-ms", "0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--stats-interval-ms", "-5"}), std::invalid_argument);
}

TEST(Cli, RejectsNegativeAndNonFiniteTimes) {
  EXPECT_THROW(parse({"--horizon-ms", "-1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--warmup-ms", "-0.5"}), std::invalid_argument);
  // std::from_chars happily parses these; the CLI must not.
  EXPECT_THROW(parse({"--horizon-ms", "nan"}), std::invalid_argument);
  EXPECT_THROW(parse({"--horizon-ms", "inf"}), std::invalid_argument);
  EXPECT_THROW(parse({"--warmup-ms", "nan"}), std::invalid_argument);
  EXPECT_THROW(parse({"--stats-interval-ms", "nan"}), std::invalid_argument);
  EXPECT_THROW(parse({"--seeds", "nan"}), std::invalid_argument);
  EXPECT_THROW(parse({"--noise-cv", "inf"}), std::invalid_argument);
}

TEST(Cli, IntegerFlagsRejectFractionsAndOutOfRangeValues) {
  for (const char* flag : {"--nodes", "--k", "--group-size", "--jobs",
                           "--seeds"}) {
    for (const char* value : {"2.5", "1e30", "1e20", "-1", "4294967295",
                              "nan"}) {
      EXPECT_THROW(parse({flag, value}), std::invalid_argument)
          << flag << " " << value;
    }
  }
  try {
    (void)parse({"--nodes", "2.5"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--nodes must be an integer in [1, 4294967294], got '2.5'");
  }
}

TEST(Cli, IntegerFlagsKeepIntegralSpellingsAndFullSeedRange) {
  EXPECT_EQ(parse({"--nodes", "1e1"}).scenario.nodes, 10u);
  EXPECT_EQ(parse({"--k", "3.0"}).scenario.esg.k, 3u);
  EXPECT_EQ(parse({"--jobs", "4294967294"}).jobs, 4294967294u);
  EXPECT_EQ(parse({"--seeds", "18446744073709551615,9007199254740993"}).seeds,
            (std::vector<std::uint64_t>{18446744073709551615u,
                                        9007199254740993u}));
  EXPECT_THROW(parse({"--seeds", "18446744073709551616,"}),
               std::invalid_argument);
}

TEST(Cli, ForecastSharedKeysAcceptSemicolons) {
  const CliOptions opts =
      parse({"--forecast", "ewma;lead-ms=1000;bin-ms=500"});
  EXPECT_DOUBLE_EQ(opts.scenario.forecast.lead_ms, 1000.0);
  EXPECT_DOUBLE_EQ(opts.scenario.forecast.bin_ms, 500.0);
}

TEST(Cli, FaultSpecOffByDefault) {
  EXPECT_TRUE(parse({}).scenario.fault.inert());
}

TEST(Cli, ParsesFaultSpec) {
  const CliOptions opts =
      parse({"--fault-spec", "dispatch:prob=0.05;crash:invoker=3,at=2000,down=1500"});
  EXPECT_FALSE(opts.scenario.fault.inert());
  ASSERT_EQ(opts.scenario.fault.dispatch.size(), 1u);
  EXPECT_DOUBLE_EQ(opts.scenario.fault.dispatch[0].prob, 0.05);
  ASSERT_EQ(opts.scenario.fault.crashes.size(), 1u);
  EXPECT_NE(cli_usage().find("--fault-spec"), std::string::npos);
}

TEST(Cli, RejectsMalformedFaultSpec) {
  EXPECT_THROW(parse({"--fault-spec", "explode:prob=0.5"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--fault-spec", "dispatch:prob=2"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--fault-spec", "@/no/such/spec/file"}),
               std::invalid_argument);
}

TEST(Cli, ParsesExplicitSeedList) {
  EXPECT_EQ(parse({"--seeds", "7,8,9"}).seeds,
            (std::vector<std::uint64_t>{7, 8, 9}));
  // Order is preserved, not sorted.
  EXPECT_EQ(parse({"--seeds", "9,7,8"}).seeds,
            (std::vector<std::uint64_t>{9, 7, 8}));
  // Trailing comma marks a single-element list (vs. the count form).
  EXPECT_EQ(parse({"--seeds", "7,"}).seeds, (std::vector<std::uint64_t>{7}));
  // Seed 0 is a legal seed in list form (only count 0 is rejected).
  EXPECT_EQ(parse({"--seeds", "0,1"}).seeds,
            (std::vector<std::uint64_t>{0, 1}));
}

TEST(Cli, RejectsEmptyAndDuplicateSeedLists) {
  EXPECT_THROW(parse({"--seeds", ","}), std::invalid_argument);
  EXPECT_THROW(parse({"--seeds", ",,"}), std::invalid_argument);
  EXPECT_THROW(parse({"--seeds", "1,,2"}), std::invalid_argument);
  EXPECT_THROW(parse({"--seeds", ",1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--seeds", "1,2,1"}), std::invalid_argument);
  EXPECT_THROW(parse({"--seeds", "1,2,abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"--seeds", "1,2.5"}), std::invalid_argument);
  try {
    (void)parse({"--seeds", "3,5,3"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate seed 3"),
              std::string::npos)
        << e.what();
  }
}

TEST(Cli, ArrivalsDefaultsToSynthetic) {
  const CliOptions opts = parse({});
  EXPECT_EQ(opts.scenario.arrivals.mode, ArrivalMode::kSynthetic);
  EXPECT_EQ(parse({"--arrivals", "synthetic"}).scenario.arrivals.mode,
            ArrivalMode::kSynthetic);
}

TEST(Cli, ParsesBurstyArrivals) {
  const CliOptions opts = parse(
      {"--arrivals", "bursty:calm=normal,burst=heavy,calm-ms=5000,burst-ms=1000"});
  EXPECT_EQ(opts.scenario.arrivals.mode, ArrivalMode::kBursty);
  EXPECT_EQ(opts.scenario.arrivals.burst.calm, workload::LoadSetting::kNormal);
  EXPECT_EQ(opts.scenario.arrivals.burst.burst, workload::LoadSetting::kHeavy);
  EXPECT_DOUBLE_EQ(opts.scenario.arrivals.burst.mean_calm_ms, 5000.0);
  EXPECT_DOUBLE_EQ(opts.scenario.arrivals.burst.mean_burst_ms, 1000.0);
  // Bare `bursty` uses the profile defaults.
  EXPECT_EQ(parse({"--arrivals", "bursty"}).scenario.arrivals.mode,
            ArrivalMode::kBursty);
}

TEST(Cli, RejectsMalformedBurstyArrivals) {
  EXPECT_THROW(parse({"--arrivals", "bursty:calm"}), std::invalid_argument);
  EXPECT_THROW(parse({"--arrivals", "bursty:wave=big"}), std::invalid_argument);
  EXPECT_THROW(parse({"--arrivals", "bursty:calm-ms=0"}),
               std::invalid_argument);
}

/// Writes a tiny valid trace to a temp path and removes it on destruction.
struct TempTrace {
  std::string path;
  explicit TempTrace(const std::string& name)
      : path(::testing::TempDir() + name) {
    std::ofstream out(path);
    out << "esg-trace,v1,bin_ms=500,apps=2\n0,0,5\n0,1,2\n1,0,3\n";
  }
  ~TempTrace() { std::remove(path.c_str()); }
};

TEST(Cli, ParsesTraceArrivalsAndLoadsEagerly) {
  const TempTrace trace("cli_test_trace.csv");
  const CliOptions opts = parse(
      {"--arrivals",
       ("trace:@" + trace.path + ",rate-scale=2,time-scale=0.5").c_str()});
  EXPECT_EQ(opts.scenario.arrivals.mode, ArrivalMode::kTrace);
  EXPECT_EQ(opts.scenario.arrivals.trace_path, trace.path);
  EXPECT_DOUBLE_EQ(opts.scenario.arrivals.replay.rate_scale, 2.0);
  EXPECT_DOUBLE_EQ(opts.scenario.arrivals.replay.time_scale, 0.5);
  ASSERT_NE(opts.scenario.arrivals.trace, nullptr);
  EXPECT_EQ(opts.scenario.arrivals.trace->app_count, 2u);
  EXPECT_DOUBLE_EQ(opts.scenario.arrivals.trace->total_count(), 10.0);
}

TEST(Cli, RejectsMalformedTraceArrivals) {
  const TempTrace trace("cli_test_trace2.csv");
  EXPECT_THROW(parse({"--arrivals", "trace:"}), std::invalid_argument);
  EXPECT_THROW(parse({"--arrivals", "trace:@"}), std::invalid_argument);
  EXPECT_THROW(parse({"--arrivals", "trace:no-at-sign.csv"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--arrivals", "trace:@/no/such/trace.csv"}),
               std::invalid_argument);
  EXPECT_THROW(
      parse({"--arrivals",
             ("trace:@" + trace.path + ",rate-scale=-1").c_str()}),
      std::invalid_argument);
  EXPECT_THROW(
      parse({"--arrivals",
             ("trace:@" + trace.path + ",time-scale=0").c_str()}),
      std::invalid_argument);
  EXPECT_THROW(
      parse({"--arrivals", ("trace:@" + trace.path + ",warp=9").c_str()}),
      std::invalid_argument);
  EXPECT_THROW(parse({"--arrivals", "stochastic"}), std::invalid_argument);
  EXPECT_NE(cli_usage().find("--arrivals"), std::string::npos);
}

TEST(Cli, ArrivalsRejectDuplicateKeys) {
  EXPECT_THROW(parse({"--arrivals", "bursty:calm-ms=100,calm-ms=200"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--arrivals", "bursty:calm=light,burst=heavy,calm=heavy"}),
               std::invalid_argument);
  const TempTrace trace("cli_test_trace_dup.csv");
  EXPECT_THROW(
      parse({"--arrivals",
             ("trace:@" + trace.path + ",rate-scale=1,rate-scale=2").c_str()}),
      std::invalid_argument);
  EXPECT_THROW(parse({"--elastic", "queue:min=1,min=2"}),
               std::invalid_argument);
}

TEST(Cli, ForecastDefaultsToInert) {
  const CliOptions opts = parse({});
  EXPECT_TRUE(opts.scenario.forecast.inert());
  EXPECT_TRUE(parse({"--forecast", "none"}).scenario.forecast.inert());
}

TEST(Cli, ParsesForecastSpec) {
  const CliOptions opts =
      parse({"--forecast", "ewma:alpha=0.5;lead-ms=3000,bin-ms=500"});
  EXPECT_EQ(opts.scenario.forecast.kind, forecast::ForecastKind::kEwma);
  EXPECT_DOUBLE_EQ(opts.scenario.forecast.ewma_alpha, 0.5);
  EXPECT_DOUBLE_EQ(opts.scenario.forecast.lead_ms, 3000.0);
  EXPECT_DOUBLE_EQ(opts.scenario.forecast.bin_ms, 500.0);
  EXPECT_NE(cli_usage().find("--forecast"), std::string::npos);
}

TEST(Cli, RejectsMalformedForecastSpecs) {
  EXPECT_THROW(parse({"--forecast"}), std::invalid_argument);  // no value
  EXPECT_THROW(parse({"--forecast", "arima"}), std::invalid_argument);
  EXPECT_THROW(parse({"--forecast", "ewma:alpha=2"}), std::invalid_argument);
  EXPECT_THROW(parse({"--forecast", "oracle;lead-ms=-1"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--forecast", "@/no/such/forecast.spec"}),
               std::invalid_argument);
}

TEST(Cli, OracleForecastRequiresTraceArrivals) {
  // Hindsight needs a trace to read; synthetic arrivals have no truth.
  EXPECT_THROW(parse({"--forecast", "oracle"}), std::invalid_argument);
  const TempTrace trace("cli_test_trace3.csv");
  const CliOptions opts = parse(
      {"--arrivals", ("trace:@" + trace.path).c_str(), "--forecast", "oracle"});
  EXPECT_EQ(opts.scenario.forecast.kind, forecast::ForecastKind::kOracle);
}

TEST(Cli, ElasticForecastPolicyRequiresAForecaster) {
  EXPECT_THROW(parse({"--elastic", "forecast"}), std::invalid_argument);
  const CliOptions opts =
      parse({"--elastic", "forecast", "--forecast", "ewma"});
  EXPECT_EQ(opts.scenario.elastic.policy, elastic::ElasticPolicy::kForecast);
  EXPECT_EQ(opts.scenario.forecast.kind, forecast::ForecastKind::kEwma);
}

}  // namespace
}  // namespace esg::exp
