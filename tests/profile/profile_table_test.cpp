#include "profile/profile_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "profile/function_spec.hpp"
#include "profile/perf_model.hpp"

namespace esg::profile {
namespace {

const FunctionSpec& sr() {
  return builtin_spec(id_of(Function::kSuperResolution));
}

TEST(FunctionSpecs, TableThreeValues) {
  EXPECT_EQ(builtin_specs().size(), kBuiltinFunctionCount);
  const auto& deblur = builtin_spec(id_of(Function::kDeblur));
  EXPECT_EQ(deblur.name, "deblur");
  EXPECT_DOUBLE_EQ(deblur.base_latency_ms, 319.0);
  EXPECT_DOUBLE_EQ(deblur.cold_start_ms, 22343.0);
  EXPECT_DOUBLE_EQ(deblur.input_mb, 1.1);
  EXPECT_EQ(deblur.model, "DeblurGAN");

  const auto& bg = builtin_spec(id_of(Function::kBackgroundRemoval));
  EXPECT_DOUBLE_EQ(bg.base_latency_ms, 1047.0);
  EXPECT_DOUBLE_EQ(bg.cold_start_ms, 3729.0);
}

TEST(FunctionSpecs, UnknownIdThrows) {
  EXPECT_THROW(builtin_spec(FunctionId(99)), std::out_of_range);
}

TEST(EnumerateConfigs, FiltersDominatedAndOversized) {
  ConfigSpaceOptions opts;
  opts.batches = {1, 2, 64};
  opts.vcpus = {1};
  opts.vgpus = {1, 2, 3};
  const auto configs = enumerate_configs(opts, sr());  // max_batch = 32
  // batch 64 dropped (> max_batch); vgpus > batch dropped.
  for (const auto& c : configs) {
    EXPECT_LE(c.batch, sr().max_batch);
    EXPECT_LE(c.vgpus, c.batch);
  }
  // batch=1: g=1 only; batch=2: g in {1,2} -> 1 + 2 = 3 configs.
  EXPECT_EQ(configs.size(), 3u);
}

TEST(EnumerateConfigs, SkipsZeroOptions) {
  ConfigSpaceOptions opts;
  opts.batches = {0, 1};
  opts.vcpus = {0, 1};
  opts.vgpus = {0, 1};
  EXPECT_EQ(enumerate_configs(opts, sr()).size(), 1u);
}

TEST(ProfileTable, RejectsEmptySpace) {
  EXPECT_THROW(ProfileTable(sr(), {}, PriceModel{}), std::invalid_argument);
}

TEST(ProfileTable, RejectsDuplicateConfig) {
  EXPECT_THROW(
      ProfileTable(sr(), {Config{1, 1, 1}, Config{1, 1, 1}}, PriceModel{}),
      std::invalid_argument);
}

TEST(ProfileTable, EntriesSortedByLatency) {
  const ProfileSet set = ProfileSet::builtin();
  for (const auto& spec : builtin_specs()) {
    const auto entries = set.table(spec.id).entries();
    for (std::size_t i = 1; i < entries.size(); ++i) {
      EXPECT_LE(entries[i - 1].latency_ms, entries[i].latency_ms) << spec.name;
    }
  }
}

TEST(ProfileTable, CostsMatchPriceModel) {
  const PriceModel prices;
  const ProfileSet set = ProfileSet::builtin({}, prices);
  const auto& table = set.table(sr().id);
  for (const auto& e : table.entries()) {
    EXPECT_NEAR(e.task_cost, prices.task_cost(e.config, e.latency_ms), 1e-15);
    EXPECT_NEAR(e.per_job_cost, e.task_cost / e.config.batch, 1e-15);
  }
}

TEST(ProfileTable, LookupByConfig) {
  const ProfileSet set = ProfileSet::builtin();
  const auto& table = set.table(sr().id);
  const Config c{4, 2, 2};
  ASSERT_TRUE(table.contains(c));
  EXPECT_NEAR(table.at(c).latency_ms, PerfModel::latency_ms(sr(), c), 1e-12);
  EXPECT_FALSE(table.contains(Config{3, 3, 3}));
  EXPECT_THROW(table.at(Config{3, 3, 3}), std::out_of_range);
}

TEST(ProfileTable, MinimaAreConsistent) {
  const ProfileSet set = ProfileSet::builtin();
  for (const auto& spec : builtin_specs()) {
    const auto& table = set.table(spec.id);
    EXPECT_DOUBLE_EQ(table.min_latency(), table.entries().front().latency_ms);
    EXPECT_DOUBLE_EQ(table.fastest_per_job_cost(),
                     table.entries().front().per_job_cost);
    Usd min_cost = table.entries().front().per_job_cost;
    for (const auto& e : table.entries()) {
      min_cost = std::min(min_cost, e.per_job_cost);
    }
    EXPECT_DOUBLE_EQ(table.min_per_job_cost(), min_cost);
    EXPECT_GE(table.fastest_per_job_cost(), table.min_per_job_cost());
  }
}

TEST(ProfileTable, BatchFilterKeepsOrderAndBound) {
  const ProfileSet set = ProfileSet::builtin();
  const auto& table = set.table(sr().id);
  const auto filtered = table.view(2).entries;
  ASSERT_FALSE(filtered.empty());
  for (std::size_t i = 0; i < filtered.size(); ++i) {
    EXPECT_LE(filtered[i].config.batch, 2);
    if (i > 0) EXPECT_LE(filtered[i - 1].latency_ms, filtered[i].latency_ms);
  }
}

/// Expects `got` to hold exactly `want`, in order, and a min per-job cost
/// bit-equal to one recomputed from `want` the way a search would.
void expect_view_of(const ProfileView& got, const std::vector<ProfileEntry>& want) {
  ASSERT_EQ(got.entries.size(), want.size());
  Usd min_cost = std::numeric_limits<Usd>::infinity();
  for (std::size_t i = 0; i < want.size(); ++i) {
    const ProfileEntry& e = want[i];
    EXPECT_EQ(got.entries[i].config, e.config) << "entry " << i;
    EXPECT_EQ(got.entries[i].latency_ms, e.latency_ms) << "entry " << i;
    EXPECT_EQ(got.entries[i].task_cost, e.task_cost) << "entry " << i;
    EXPECT_EQ(got.entries[i].per_job_cost, e.per_job_cost) << "entry " << i;
    min_cost = std::min(min_cost, e.per_job_cost);
  }
  if (!want.empty()) {
    EXPECT_EQ(got.min_per_job_cost, min_cost);
  }
}

std::vector<ProfileEntry> filter(const ProfileTable& table, std::uint16_t cap) {
  std::vector<ProfileEntry> out;
  for (const ProfileEntry& e : table.entries()) {
    if (cap == 0 || e.config.batch <= cap) out.push_back(e);
  }
  return out;
}

TEST(ProfileTable, ViewsEqualAFilterOfEntries) {
  const ProfileSet set = ProfileSet::builtin();
  for (const auto& spec : builtin_specs()) {
    const ProfileTable& table = set.table(spec.id);
    for (std::uint16_t cap = 0; cap <= 40; ++cap) {
      SCOPED_TRACE(spec.name + " cap " + std::to_string(cap));
      expect_view_of(table.view(cap), filter(table, cap));
    }
    // The whole-table view backs the table-wide bound.
    EXPECT_EQ(table.min_per_job_cost(), table.view().min_per_job_cost);
  }
}

TEST(ProfileTable, ViewBelowTheSmallestBatchIsEmpty) {
  ConfigSpaceOptions opts;
  opts.batches = {4, 8};
  const ProfileTable table(sr(), enumerate_configs(opts, sr()), PriceModel{});
  for (std::uint16_t cap = 1; cap < 4; ++cap) {
    EXPECT_TRUE(table.view(cap).entries.empty());
  }
  expect_view_of(table.view(7), filter(table, 7));
}

TEST(ProfileTable, ViewsOfCopiesAndMovesUseTheirOwnStorage) {
  const auto make = [] {
    return ProfileTable(sr(), enumerate_configs({}, sr()), PriceModel{});
  };
  const ProfileTable reference = make();
  auto original = std::make_unique<ProfileTable>(make());
  const ProfileTable copy = *original;
  const ProfileTable moved_to = std::move(*original);
  *original = make();  // moved from, then moved to
  const ProfileTable* tables[] = {&copy, &moved_to, original.get()};
  for (std::uint16_t cap = 0; cap <= 40; ++cap) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    const auto want = filter(reference, cap);
    for (std::size_t a = 0; a < std::size(tables); ++a) {
      expect_view_of(tables[a]->view(cap), want);
      EXPECT_NE(tables[a]->view(cap).entries.data(),
                reference.view(cap).entries.data());
      for (std::size_t b = a + 1; b < std::size(tables); ++b) {
        EXPECT_NE(tables[a]->view(cap).entries.data(),
                  tables[b]->view(cap).entries.data());
      }
    }
  }
  // The copy and the table moved into must not read the storage of the
  // table they came from.
  original.reset();
  for (std::uint16_t cap = 0; cap <= 40; ++cap) {
    expect_view_of(copy.view(cap), filter(reference, cap));
    expect_view_of(moved_to.view(cap), filter(reference, cap));
  }
}

TEST(ProfileTable, MinConfigEntryIsBaseLatency) {
  const ProfileSet set = ProfileSet::builtin();
  for (const auto& spec : builtin_specs()) {
    EXPECT_DOUBLE_EQ(set.table(spec.id).min_config_entry().latency_ms,
                     spec.base_latency_ms);
  }
}

TEST(ProfileSet, BuiltinCoversAllFunctions) {
  const ProfileSet set = ProfileSet::builtin();
  EXPECT_EQ(set.size(), kBuiltinFunctionCount);
  for (const auto& spec : builtin_specs()) {
    EXPECT_TRUE(set.contains(spec.id));
  }
  EXPECT_FALSE(set.contains(FunctionId(42)));
  EXPECT_THROW(set.table(FunctionId(42)), std::out_of_range);
}

TEST(ProfileSet, DuplicateAddThrows) {
  ProfileSet set = ProfileSet::builtin();
  ProfileTable extra(sr(), enumerate_configs({}, sr()), PriceModel{});
  EXPECT_THROW(set.add(std::move(extra)), std::invalid_argument);
}

TEST(PriceModel, PaperRates) {
  const PriceModel p;
  // 1 vCPU for one hour costs $0.034; 1 vGPU for one hour costs $0.67.
  EXPECT_NEAR(p.cost(1, 0, 3'600'000.0), 0.034, 1e-12);
  EXPECT_NEAR(p.cost(0, 1, 3'600'000.0), 0.67, 1e-12);
  EXPECT_NEAR(p.cost(2, 3, 1'800'000.0), (2 * 0.034 + 3 * 0.67) / 2.0, 1e-12);
}

TEST(ConfigToString, Format) {
  EXPECT_EQ(to_string(Config{4, 2, 1}), "(b=4, c=2, g=1)");
}

}  // namespace
}  // namespace esg::profile
