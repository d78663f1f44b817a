#include "profile/profile_table.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "common/check.hpp"
#include "profile/perf_model.hpp"

namespace esg::profile {

std::vector<Config> enumerate_configs(const ConfigSpaceOptions& options,
                                      const FunctionSpec& spec) {
  std::vector<Config> configs;
  configs.reserve(options.batches.size() * options.vcpus.size() *
                  options.vgpus.size());
  for (std::uint16_t b : options.batches) {
    if (b == 0 || b > spec.max_batch) continue;
    for (std::uint16_t c : options.vcpus) {
      if (c == 0) continue;
      for (std::uint16_t g : options.vgpus) {
        if (g == 0) continue;
        if (g > b) continue;  // dominated: extra slices would sit idle
        configs.push_back(Config{b, c, g});
      }
    }
  }
  return configs;
}

std::uint64_t ProfileTable::key(const Config& c) {
  return (std::uint64_t{c.batch} << 32) | (std::uint64_t{c.vcpus} << 16) |
         std::uint64_t{c.vgpus};
}

ProfileTable::ProfileTable(const FunctionSpec& spec, std::vector<Config> configs,
                           const PriceModel& prices)
    : spec_(spec) {
  if (configs.empty()) {
    throw std::invalid_argument("ProfileTable: empty configuration space");
  }
  entries_.reserve(configs.size());
  for (const Config& c : configs) {
    ProfileEntry e;
    e.config = c;
    e.latency_ms = PerfModel::latency_ms(spec, c);
    e.task_cost = prices.task_cost(c, e.latency_ms);
    e.per_job_cost = e.task_cost / static_cast<double>(c.batch);
    entries_.push_back(e);
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              if (a.latency_ms != b.latency_ms) return a.latency_ms < b.latency_ms;
              if (a.per_job_cost != b.per_job_cost) {
                return a.per_job_cost < b.per_job_cost;
              }
              return a.config < b.config;
            });

  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto [it, inserted] = index_.emplace(key(entries_[i].config), i);
    if (!inserted) {
      throw std::invalid_argument("ProfileTable: duplicate configuration");
    }
  }

  // The views: for each distinct batch size b, ascending, the entries with
  // batch <= b in latency order, back to back in sliced_. Counting first
  // lets sliced_ be allocated once.
  std::vector<std::uint16_t> batches;
  batches.reserve(entries_.size());
  for (const ProfileEntry& e : entries_) batches.push_back(e.config.batch);
  std::sort(batches.begin(), batches.end());
  batches.erase(std::unique(batches.begin(), batches.end()), batches.end());
  const auto admitted_by = [](std::uint16_t b) {
    return [b](const ProfileEntry& e) { return e.config.batch <= b; };
  };
  std::size_t sliced_size = 0;
  for (const std::uint16_t b : batches) {
    sliced_size += std::ranges::count_if(entries_, admitted_by(b));
  }
  sliced_.reserve(sliced_size);
  for (const std::uint16_t b : batches) {
    const std::size_t begin = sliced_.size();
    std::ranges::copy_if(entries_, std::back_inserter(sliced_), admitted_by(b));
    const auto slice = std::span(sliced_).subspan(begin);
    const Usd min_cost =
        std::ranges::min(slice, {}, &ProfileEntry::per_job_cost).per_job_cost;
    slices_.push_back(Slice{b, begin, slice.size(), min_cost});
  }
}

ProfileView ProfileTable::view(std::uint16_t max_batch) const {
  // The slice of the largest batch size <= max_batch.
  const auto above =
      max_batch == 0
          ? slices_.end()
          : std::upper_bound(slices_.begin(), slices_.end(), max_batch,
                             [](std::uint16_t cap, const Slice& s) {
                               return cap < s.batch;
                             });
  if (above == slices_.begin()) return {};
  const Slice& s = *std::prev(above);
  return ProfileView{std::span(sliced_).subspan(s.begin, s.size), s.min_per_job_cost};
}

const ProfileEntry& ProfileTable::at(const Config& config) const {
  auto it = index_.find(key(config));
  if (it == index_.end()) {
    throw std::out_of_range("ProfileTable::at: unknown configuration " +
                            to_string(config));
  }
  return entries_[it->second];
}

bool ProfileTable::contains(const Config& config) const {
  return index_.contains(key(config));
}

const ProfileEntry& ProfileTable::min_config_entry() const {
  return at(kMinConfig);
}

void ProfileSet::add(ProfileTable table) {
  const FunctionId id = table.spec().id;
  const auto [it, inserted] = tables_.emplace(id, std::move(table));
  if (!inserted) {
    throw std::invalid_argument("ProfileSet: duplicate function profile");
  }
}

const ProfileTable& ProfileSet::table(FunctionId id) const {
  auto it = tables_.find(id);
  if (it == tables_.end()) {
    throw std::out_of_range("ProfileSet::table: no profile for function");
  }
  return it->second;
}

bool ProfileSet::contains(FunctionId id) const { return tables_.contains(id); }

ProfileSet ProfileSet::builtin(const ConfigSpaceOptions& options,
                               const PriceModel& prices) {
  ProfileSet set;
  for (const FunctionSpec& spec : builtin_specs()) {
    set.add(ProfileTable(spec, enumerate_configs(options, spec), prices));
  }
  return set;
}

}  // namespace esg::profile
