// TenantSpec grammar acceptance (DESIGN.md §12): the --tenants string is
// user input, so every malformed clause must be rejected at parse time with
// a precise error, and every accepted spec must round-trip.
#include "tenant/tenant_spec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

namespace esg::tenant {
namespace {

TEST(TenantSpec, EmptyAndNoneDisable) {
  EXPECT_FALSE(parse_tenant_spec("").enabled());
  EXPECT_FALSE(parse_tenant_spec("none").enabled());
  EXPECT_FALSE(parse_tenant_spec("  none  ").enabled());
  EXPECT_TRUE(parse_tenant_spec("").inert());
}

TEST(TenantSpec, ParsesMinimalTwoTenantSpec) {
  const TenantSpec spec = parse_tenant_spec("premium:3;free:1");
  ASSERT_EQ(spec.tenants.size(), 2u);
  EXPECT_EQ(spec.tenants[0].name, "premium");
  EXPECT_DOUBLE_EQ(spec.tenants[0].weight, 3.0);
  EXPECT_EQ(spec.tenants[0].mode, ChargeMode::kTime);
  EXPECT_EQ(spec.tenants[1].name, "free");
  EXPECT_DOUBLE_EQ(spec.tenants[1].weight, 1.0);
  EXPECT_TRUE(spec.enabled());
  EXPECT_FALSE(spec.inert());
  EXPECT_DOUBLE_EQ(spec.throttle_ms, 50.0);  // default T
}

TEST(TenantSpec, SingleTenantIsEnabledButInert) {
  const TenantSpec spec = parse_tenant_spec("solo:1");
  EXPECT_TRUE(spec.enabled());
  EXPECT_TRUE(spec.inert());
}

TEST(TenantSpec, ParsesModesAndApps) {
  const TenantSpec spec = parse_tenant_spec(
      "gold:3:energy:apps=0,2;silver:2:hybrid=0.25;bronze:1:time:apps=1");
  ASSERT_EQ(spec.tenants.size(), 3u);
  EXPECT_EQ(spec.tenants[0].mode, ChargeMode::kEnergy);
  EXPECT_EQ(spec.tenants[0].apps, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(spec.tenants[1].mode, ChargeMode::kHybrid);
  EXPECT_DOUBLE_EQ(spec.tenants[1].hybrid_alpha, 0.25);
  EXPECT_EQ(spec.tenants[2].mode, ChargeMode::kTime);
  EXPECT_EQ(spec.tenants[2].apps, (std::vector<std::uint32_t>{1}));
}

TEST(TenantSpec, FieldOrderIsFlexibleAfterWeight) {
  // apps= may precede the mode; both orders parse identically.
  const TenantSpec a = parse_tenant_spec("t:1:apps=3:energy;u:1");
  const TenantSpec b = parse_tenant_spec("t:1:energy:apps=3;u:1");
  EXPECT_EQ(a.tenants[0].mode, b.tenants[0].mode);
  EXPECT_EQ(a.tenants[0].apps, b.tenants[0].apps);
}

TEST(TenantSpec, ParsesThrottleClause) {
  const TenantSpec spec = parse_tenant_spec("a:1;b:1;throttle=12.5");
  EXPECT_DOUBLE_EQ(spec.throttle_ms, 12.5);
}

TEST(TenantSpec, TenantOfUsesStaticMapWithUnclaimedToZero) {
  const TenantSpec spec = parse_tenant_spec("a:1:apps=2;b:1:apps=0,3");
  EXPECT_EQ(spec.tenant_of(2), 0u);
  EXPECT_EQ(spec.tenant_of(0), 1u);
  EXPECT_EQ(spec.tenant_of(3), 1u);
  EXPECT_EQ(spec.tenant_of(7), 0u);  // unclaimed app -> tenant 0
}

TEST(TenantSpec, TenantNameFallsBackBeyondDeclared) {
  const TenantSpec spec = parse_tenant_spec("a:1;b:2");
  EXPECT_EQ(spec.tenant_name(0), "a");
  EXPECT_EQ(spec.tenant_name(1), "b");
  EXPECT_EQ(spec.tenant_name(5), "t5");
  EXPECT_DOUBLE_EQ(spec.weight_of(1), 2.0);
  EXPECT_DOUBLE_EQ(spec.weight_of(5), 1.0);
}

TEST(TenantSpec, RejectsMalformedClauses) {
  EXPECT_THROW(parse_tenant_spec("justaname"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("a:"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("a:0"), std::invalid_argument);     // w <= 0
  EXPECT_THROW(parse_tenant_spec("a:-1"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("a:nan"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("a:x"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("bad name:1"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec(":1"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("a:1:plasma"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("a:1:hybrid=2"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("a:1:hybrid=-0.5"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("a:1:apps="), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("a:1:apps=1,,2"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("a:1:apps=-1"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("a:1:apps=1.5"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("a:1:time:energy"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("a:1:apps=1:apps=2"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("throttle=10"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("a:1;b:1;throttle=0"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("a:1;b:1;throttle=x"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("a:1;b:1;throttle=1;throttle=2"),
               std::invalid_argument);
}

TEST(TenantSpec, RejectsDuplicateNamesAndApps) {
  EXPECT_THROW(parse_tenant_spec("a:1;a:2"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("a:1:apps=3;b:1:apps=3"),
               std::invalid_argument);
}

TEST(TenantSpec, ToStringRoundTrips) {
  const std::string canonical = to_string(parse_tenant_spec(
      "gold:3:energy:apps=0,2;silver:2:hybrid=0.25;throttle=40"));
  const TenantSpec again = parse_tenant_spec(canonical);
  EXPECT_EQ(to_string(again), canonical);
  EXPECT_EQ(to_string(TenantSpec{}), "none");
}

TEST(TenantSpec, LoadsFromFileWithNewlineClauses) {
  const std::string path = ::testing::TempDir() + "tenants_spec_test.txt";
  {
    std::ofstream file(path);
    file << "gold:3:apps=0\n";
    file << "bronze:1:apps=1\n";
    file << "throttle=30\n";
  }
  const TenantSpec spec = load_tenant_spec("@" + path);
  ASSERT_EQ(spec.tenants.size(), 2u);
  EXPECT_EQ(spec.tenants[0].name, "gold");
  EXPECT_DOUBLE_EQ(spec.throttle_ms, 30.0);
  std::remove(path.c_str());
}

TEST(TenantSpec, LoadsFileWithCrlfLineEndsAndCommentLines) {
  const std::string path = ::testing::TempDir() + "tenants_spec_crlf.txt";
  {
    std::ofstream file(path, std::ios::binary);
    file << "# two tenants, 3:1\r\n";
    file << "gold:3:apps=0\r\n";
    file << "# the rest\r\n";
    file << "bronze:1:apps=1\r\n";
    file << "throttle=30\r\n";
  }
  const TenantSpec spec = load_tenant_spec("@" + path);
  ASSERT_EQ(spec.tenants.size(), 2u);
  EXPECT_EQ(spec.tenants[1].name, "bronze");
  EXPECT_EQ(spec.tenants[1].apps, (std::vector<std::uint32_t>{1}));
  EXPECT_DOUBLE_EQ(spec.throttle_ms, 30.0);
  std::remove(path.c_str());
}

TEST(TenantSpec, FileErrorsNameTheLine) {
  const std::string path = ::testing::TempDir() + "tenants_spec_bad.txt";
  {
    std::ofstream file(path);
    file << "gold:3\n# comment\ngold:1\n";
  }
  try {
    (void)load_tenant_spec("@" + path);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "tenant-spec line 3 'gold:1': duplicate tenant name 'gold'");
  }
  std::remove(path.c_str());
}

TEST(TenantSpec, LoadRejectsUnreadableFile) {
  EXPECT_THROW(load_tenant_spec("@/no/such/tenant/file"),
               std::invalid_argument);
}

TEST(TenantSpec, ResolveForTraceGrowsImplicitTenants) {
  const TenantSpec resolved = resolve_for_trace(TenantSpec{}, 3);
  ASSERT_EQ(resolved.tenants.size(), 3u);
  EXPECT_EQ(resolved.tenants[0].name, "t0");
  EXPECT_EQ(resolved.tenants[2].name, "t2");
  EXPECT_DOUBLE_EQ(resolved.tenants[0].weight, resolved.tenants[2].weight);
}

TEST(TenantSpec, ResolveForTraceKeepsDisabledSpecOnSingleTenantTrace) {
  EXPECT_FALSE(resolve_for_trace(TenantSpec{}, 1).enabled());
  EXPECT_FALSE(resolve_for_trace(TenantSpec{}, 0).enabled());
}

TEST(TenantSpec, ResolveForTraceRequiresDeclaredCoverage) {
  const TenantSpec two = parse_tenant_spec("a:1;b:1");
  EXPECT_EQ(resolve_for_trace(two, 2).tenants.size(), 2u);
  EXPECT_EQ(resolve_for_trace(two, 1).tenants.size(), 2u);
  EXPECT_THROW(resolve_for_trace(two, 3), std::invalid_argument);
}

}  // namespace
}  // namespace esg::tenant
