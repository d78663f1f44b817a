// Spec corpus: every --fault-spec, --elastic, --tenants, --forecast and
// --arrivals value that README.md, EXPERIMENTS.md, ci.yml, bench/ and
// perfbench/ use, plus a few integral spellings ("1e3", "2e0", "-0"),
// pinned to the canonical form (`to_string(parse(x))`) captured from the
// per-grammar parsers that common/spec_lex replaced. A changed parse of any
// documented spec fails here by name.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "elastic/elastic_spec.hpp"
#include "exp/cli.hpp"
#include "fault/fault_spec.hpp"
#include "forecast/forecast_spec.hpp"
#include "tenant/tenant_spec.hpp"

namespace esg {
namespace {

struct Row {
  const char* spec;
  const char* canonical;
};

template <class Parse>
void expect_canonical(const std::vector<Row>& rows, Parse parse) {
  for (const Row& row : rows) {
    EXPECT_EQ(parse(row.spec), row.canonical) << row.spec;
  }
}

TEST(SpecCorpus, FaultSpecs) {
  expect_canonical(
      {
      {"",
       ""},
      {"crash:invoker=1,at=2000,down=1500;dispatch:prob=0.05;slow:invoker=0,at=500,for=4000,factor=3",
       "crash:invoker=1,at=2000,down=1500;dispatch:prob=0.05;slow:invoker=0,at=500,for=4000,factor=3"},
      {"spot:at=20000,nodes=3,warn=500",
       "spot:at=20000,nodes=3,warn=500"},
      {"dispatch:prob=0.05;crash:invoker=1,at=2000,down=1500",
       "crash:invoker=1,at=2000,down=1500;dispatch:prob=0.05"},
      {"dispatch:prob=0",
       "dispatch:prob=0"},
      {"spot:at=18000,nodes=4,warn=250;spot:at=36000,nodes=4,warn=250",
       "spot:at=18000,nodes=4,warn=250;spot:at=36000,nodes=4,warn=250"},
      {"dispatch:prob=0;coldstart:prob=0",
       "dispatch:prob=0;coldstart:prob=0"},
      {"dispatch:prob=0.15;coldstart:prob=0.2;crash:invoker=1,at=800,down=500;slow:invoker=0,at=200,for=1000,factor=2",
       "crash:invoker=1,at=800,down=500;dispatch:prob=0.15;coldstart:prob=0.2;slow:invoker=0,at=200,for=1000,factor=2"},
      {"spot:at=1000,nodes=2,warn=300",
       "spot:at=1000,nodes=2,warn=300"},
      {"spot:at=100,nodes=1",
       "spot:at=100,nodes=1"},
      {"dispatch:prob=0.01;coldstart:prob=0.05",
       "dispatch:prob=0.01;coldstart:prob=0.05"},
      {"dispatch:prob=0.05;coldstart:prob=0.15;slow:invoker=3,at=1000,for=4000,factor=3",
       "dispatch:prob=0.05;coldstart:prob=0.15;slow:invoker=3,at=1000,for=4000,factor=3"},
      {"dispatch:prob=0.12;coldstart:prob=0.3;crash:invoker=1,at=2000,down=2000;crash:invoker=5,at=4000,down=1500;slow:invoker=2,at=500,for=5000,factor=4",
       "crash:invoker=1,at=2000,down=2000;crash:invoker=5,at=4000,down=1500;dispatch:prob=0.12;coldstart:prob=0.3;slow:invoker=2,at=500,for=5000,factor=4"},
      {"spot:at=24000,nodes=4,warn=500",
       "spot:at=24000,nodes=4,warn=500"},
      {"dispatch:prob=0.02;coldstart:prob=0.05;crash:invoker=1,at=30000,down=4000;spot:at=80000,nodes=2",
       "crash:invoker=1,at=30000,down=4000;dispatch:prob=0.02;coldstart:prob=0.05;spot:at=80000,nodes=2"},
      {"dispatch:prob=0.05,function=2",
       "dispatch:prob=0.05,function=2"},
      {"coldstart:prob=0.2,function=1",
       "coldstart:prob=0.2,function=1"},
      {"crash:invoker=3,at=2000,down=1500",
       "crash:invoker=3,at=2000,down=1500"},
      {"dispatch:prob=-0",
       "dispatch:prob=-0"},
      {"crash:invoker=1e3,at=1e5,down=2.5e2",
       "crash:invoker=1000,at=100000,down=250"},
      },
      [](const char* s) { return fault::to_string(fault::parse_fault_spec(s)); });
}

TEST(SpecCorpus, ElasticSpecs) {
  expect_canonical(
      {
      {"",
       "none"},
      {"none",
       "none"},
      {"queue",
       "queue:min=1,max=0,out=8,step=1,idle-ms=30000,eval-ms=250,provision-ms=2000,shed=off"},
      {"rate",
       "rate:min=1,max=0,out=8,step=1,idle-ms=30000,eval-ms=250,provision-ms=2000,alpha=0.3,shed=off"},
      {"forecast",
       "forecast:min=1,max=0,out=8,step=1,idle-ms=30000,eval-ms=250,provision-ms=2000,shed=off"},
      {"queue:min=2,max=16,out=4,idle-ms=5000,provision-ms=2000",
       "queue:min=2,max=16,out=4,step=1,idle-ms=5000,eval-ms=250,provision-ms=2000,shed=off"},
      {"forecast:min=4,max=16",
       "forecast:min=4,max=16,out=8,step=1,idle-ms=30000,eval-ms=250,provision-ms=2000,shed=off"},
      {"queue:min=4,max=16,out=2,idle-ms=5000,provision-ms=1000,shed=on",
       "queue:min=4,max=16,out=2,step=1,idle-ms=5000,eval-ms=250,provision-ms=1000,shed=on,shed-margin=1"},
      {"queue:min=16,max=16,idle-ms=0",
       "queue:min=16,max=16,out=8,step=1,idle-ms=0,eval-ms=250,provision-ms=2000,shed=off"},
      {"queue:min=4,max=4,idle-ms=0",
       "queue:min=4,max=4,out=8,step=1,idle-ms=0,eval-ms=250,provision-ms=2000,shed=off"},
      {"queue:min=1,max=6,out=2,idle-ms=1000,provision-ms=500,shed=on",
       "queue:min=1,max=6,out=2,step=1,idle-ms=1000,eval-ms=250,provision-ms=500,shed=on,shed-margin=1"},
      {"queue:min=16,max=16,idle-ms=0,out=2,provision-ms=1000",
       "queue:min=16,max=16,out=2,step=1,idle-ms=0,eval-ms=250,provision-ms=1000,shed=off"},
      {"queue:min=4,max=16,out=2,idle-ms=5000,provision-ms=1000",
       "queue:min=4,max=16,out=2,step=1,idle-ms=5000,eval-ms=250,provision-ms=1000,shed=off"},
      {"queue:min=4,max=24,out=4,idle-ms=4000,provision-ms=1000,shed=on,shed-margin=1.5",
       "queue:min=4,max=24,out=4,step=1,idle-ms=4000,eval-ms=250,provision-ms=1000,shed=on,shed-margin=1.5"},
      {"queue:min=2,max=8",
       "queue:min=2,max=8,out=8,step=1,idle-ms=30000,eval-ms=250,provision-ms=2000,shed=off"},
      {"queue:min=2,max=16,out=8,step=2,idle-ms=30000",
       "queue:min=2,max=16,out=8,step=2,idle-ms=30000,eval-ms=250,provision-ms=2000,shed=off"},
      {"rate:min=2,max=16,out=4,alpha=0.3,idle-ms=30000",
       "rate:min=2,max=16,out=4,step=1,idle-ms=30000,eval-ms=250,provision-ms=2000,alpha=0.3,shed=off"},
      {"forecast:min=2,max=16,out=4,provision-ms=2000",
       "forecast:min=2,max=16,out=4,step=1,idle-ms=30000,eval-ms=250,provision-ms=2000,shed=off"},
      {"rate:min=2,max=12,out=4.5,step=3,idle-ms=5000,eval-ms=100,provision-ms=1500,alpha=0.5,shed=on,shed-margin=1.25",
       "rate:min=2,max=12,out=4.5,step=3,idle-ms=5000,eval-ms=100,provision-ms=1500,alpha=0.5,shed=on,shed-margin=1.25"},
      {"queue:shed=true",
       "queue:min=1,max=0,out=8,step=1,idle-ms=30000,eval-ms=250,provision-ms=2000,shed=on,shed-margin=1"},
      {"queue:shed=1",
       "queue:min=1,max=0,out=8,step=1,idle-ms=30000,eval-ms=250,provision-ms=2000,shed=on,shed-margin=1"},
      {"queue:shed=off,min=2e0",
       "queue:min=2,max=0,out=8,step=1,idle-ms=30000,eval-ms=250,provision-ms=2000,shed=off"},
      },
      [](const char* s) {
        return elastic::to_string(elastic::parse_elastic_spec(s));
      });
}

TEST(SpecCorpus, TenantSpecs) {
  expect_canonical(
      {
      {"",
       "none"},
      {"none",
       "none"},
      {"gold:3:apps=0,2;bronze:1:energy:apps=1,3;throttle=25",
       "gold:3:time:apps=0,2;bronze:1:energy:apps=1,3;throttle=25"},
      {"solo:1",
       "solo:1:time;throttle=50"},
      {"gold:3;bronze:1",
       "gold:3:time;bronze:1:time;throttle=50"},
      {"steady:1:apps=0,1;bursty:1:apps=2,3;throttle=50",
       "steady:1:time:apps=0,1;bursty:1:time:apps=2,3;throttle=50"},
      {"steady:3:apps=0,1;bursty:1:apps=2,3;throttle=50",
       "steady:3:time:apps=0,1;bursty:1:time:apps=2,3;throttle=50"},
      {"gold:3:apps=0,2;bronze:1:energy;throttle=25",
       "gold:3:time:apps=0,2;bronze:1:energy;throttle=25"},
      {"premium:3;free:1",
       "premium:3:time;free:1:time;throttle=50"},
      {"premium:3:energy:apps=0,2;free:1:time:apps=1,3",
       "premium:3:energy:apps=0,2;free:1:time:apps=1,3;throttle=50"},
      {"steady:1;bursty:1;throttle=40",
       "steady:1:time;bursty:1:time;throttle=40"},
      {"gold:3:energy:apps=0,2;silver:2:hybrid=0.25;bronze:1:time:apps=1",
       "gold:3:energy:apps=0,2;silver:2:hybrid=0.25;bronze:1:time:apps=1;throttle=50"},
      },
      [](const char* s) {
        return tenant::to_string(tenant::parse_tenant_spec(s));
      });
}

TEST(SpecCorpus, ForecastSpecs) {
  expect_canonical(
      {
      {"",
       "none"},
      {"none",
       "none"},
      {"oracle",
       "oracle;lead-ms=2000,bin-ms=1000"},
      {"last-bin",
       "last-bin;lead-ms=2000,bin-ms=1000"},
      {"ewma",
       "ewma:alpha=0.3;lead-ms=2000,bin-ms=1000"},
      {"seasonal",
       "seasonal:period-ms=120000,bins=120;lead-ms=2000,bin-ms=1000"},
      {"seasonal:period-ms=30000,bins=60;lead-ms=3000,bin-ms=500",
       "seasonal:period-ms=30000,bins=60;lead-ms=3000,bin-ms=500"},
      {"oracle;lead-ms=3000,bin-ms=500",
       "oracle;lead-ms=3000,bin-ms=500"},
      {"seasonal:period-ms=15000,bins=30;lead-ms=3000,bin-ms=500",
       "seasonal:period-ms=15000,bins=30;lead-ms=3000,bin-ms=500"},
      {"ewma:alpha=0.5;lead-ms=3000,bin-ms=500",
       "ewma:alpha=0.5;lead-ms=3000,bin-ms=500"},
      {"seasonal:period-ms=60000,bins=120;lead-ms=3000,bin-ms=500",
       "seasonal:period-ms=60000,bins=120;lead-ms=3000,bin-ms=500"},
      {"ewma:alpha=0.3",
       "ewma:alpha=0.3;lead-ms=2000,bin-ms=1000"},
      {"seasonal:period-ms=120000,bins=120",
       "seasonal:period-ms=120000,bins=120;lead-ms=2000,bin-ms=1000"},
      {"oracle;lead-ms=0",
       "oracle;lead-ms=0,bin-ms=1000"},
      },
      [](const char* s) {
        return forecast::to_string(forecast::parse_forecast_spec(s));
      });
}

/// ArrivalConfig has no to_string; the row renders the parsed knobs.
std::string arrivals(const std::string& spec) {
  const std::vector<const char*> args{"--arrivals", spec.c_str()};
  const exp::ArrivalConfig c =
      exp::parse_cli({args.data(), args.size()}).scenario.arrivals;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "mode=%d calm=%d burst=%d calm-ms=%g burst-ms=%g "
                "rate-scale=%g time-scale=%g",
                static_cast<int>(c.mode), static_cast<int>(c.burst.calm),
                static_cast<int>(c.burst.burst), c.burst.mean_calm_ms,
                c.burst.mean_burst_ms, c.replay.rate_scale,
                c.replay.time_scale);
  return buf;
}

TEST(SpecCorpus, ArrivalSpecs) {
  const std::string path = ::testing::TempDir() + "/spec_corpus_trace.csv";
  {
    std::ofstream out(path);
    out << "esg-trace,v1,bin_ms=500,apps=2\n0,0,5\n0,1,2\n1,0,3\n";
  }
  const std::string trace = "trace:@" + path;
  const std::vector<std::pair<std::string, const char*>> rows = {
      {"synthetic",
       "mode=0 calm=2 burst=0 calm-ms=8000 burst-ms=2000 rate-scale=1 time-scale=1"},
      {"bursty",
       "mode=1 calm=2 burst=0 calm-ms=8000 burst-ms=2000 rate-scale=1 time-scale=1"},
      {"bursty:calm=light,burst=heavy,calm-ms=8000,burst-ms=2000",
       "mode=1 calm=2 burst=0 calm-ms=8000 burst-ms=2000 rate-scale=1 time-scale=1"},
      {trace,
       "mode=2 calm=2 burst=0 calm-ms=8000 burst-ms=2000 rate-scale=1 time-scale=1"},
      {trace + ",rate-scale=0",
       "mode=2 calm=2 burst=0 calm-ms=8000 burst-ms=2000 rate-scale=0 time-scale=1"},
      {trace + ",rate-scale=2",
       "mode=2 calm=2 burst=0 calm-ms=8000 burst-ms=2000 rate-scale=2 time-scale=1"},
      {trace + ",rate-scale=100",
       "mode=2 calm=2 burst=0 calm-ms=8000 burst-ms=2000 rate-scale=100 time-scale=1"},
      {trace + ",rate-scale=2,time-scale=0.5",
       "mode=2 calm=2 burst=0 calm-ms=8000 burst-ms=2000 rate-scale=2 time-scale=0.5"},
  };
  for (const auto& [spec, canonical] : rows) {
    EXPECT_EQ(arrivals(spec), canonical) << spec;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace esg
