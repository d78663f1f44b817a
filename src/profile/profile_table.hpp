// Performance-profile tables: for each function, the list of valid
// configurations with their expected latencies and costs, sorted by
// increasing latency — exactly the `ConfigLists[j]` input of Algorithm 1
// ("the profiles of function j sorted in increasing latency"). Each table
// also holds, per distinct batch size, the list restricted to that batch
// cap and its minimum per-job cost, so a search reads its lists and bounds
// without copying or rescanning the table.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "profile/config.hpp"
#include "profile/function_spec.hpp"
#include "profile/price_model.hpp"

namespace esg::profile {

/// One profiled configuration of one function.
struct ProfileEntry {
  Config config;
  TimeMs latency_ms = 0.0;  ///< expected task (whole-batch) latency
  Usd task_cost = 0.0;      ///< resources held for the task duration
  Usd per_job_cost = 0.0;   ///< task_cost / batch — the search's cost metric
};

/// The configuration options to enumerate. Dominated configurations
/// (more vGPU slices than jobs in the batch) are dropped: they cost more at
/// identical latency.
struct ConfigSpaceOptions {
  std::vector<std::uint16_t> batches{1, 2, 4, 8, 16, 32};
  std::vector<std::uint16_t> vcpus{1, 2, 4, 8};
  std::vector<std::uint16_t> vgpus{1, 2, 3, 4, 5, 6, 7};
};

/// Enumerates the valid configurations for `spec` (filters batch > max_batch
/// and vgpus > batch).
[[nodiscard]] std::vector<Config> enumerate_configs(const ConfigSpaceOptions& options,
                                                    const FunctionSpec& spec);

/// The entries of one table admissible under a batch cap. Spans the table's
/// own storage, so it is valid until the table is destroyed, moved from or
/// assigned to.
struct ProfileView {
  /// Entries with batch <= the cap, in entries() order: latency-sorted,
  /// ties cheaper first, so front() is the fastest (tLow, rscFastest).
  std::span<const ProfileEntry> entries;
  /// Minimum per-job cost over `entries` (for rscLow).
  Usd min_per_job_cost = std::numeric_limits<Usd>::infinity();
};

/// Profile of a single function over its configuration space.
class ProfileTable {
 public:
  ProfileTable(const FunctionSpec& spec, std::vector<Config> configs,
               const PriceModel& prices);

  [[nodiscard]] const FunctionSpec& spec() const { return spec_; }

  /// Entries sorted by increasing latency (ties: cheaper first).
  [[nodiscard]] std::span<const ProfileEntry> entries() const { return entries_; }

  /// The entries with batch <= max_batch (0 = no cap) and their minimum
  /// per-job cost; empty if no entry fits. Schedulers that can only batch
  /// the jobs currently queued search these. Every view is built once, in
  /// the constructor, so a call copies nothing.
  [[nodiscard]] ProfileView view(std::uint16_t max_batch = 0) const;

  /// Expected latency for an exact config; throws if not in the table.
  [[nodiscard]] const ProfileEntry& at(const Config& config) const;
  [[nodiscard]] bool contains(const Config& config) const;

  /// Minimum expected latency over all configurations (for tLow).
  [[nodiscard]] TimeMs min_latency() const { return entries_.front().latency_ms; }
  /// Minimum per-job cost over all configurations (for rscLow).
  [[nodiscard]] Usd min_per_job_cost() const {
    return slices_.back().min_per_job_cost;
  }
  /// Per-job cost of the fastest configuration (for rscFastest).
  [[nodiscard]] Usd fastest_per_job_cost() const {
    return entries_.front().per_job_cost;
  }
  /// The fastest entry itself.
  [[nodiscard]] const ProfileEntry& fastest() const { return entries_.front(); }
  /// The entry of the paper's minimum configuration (1,1,1).
  [[nodiscard]] const ProfileEntry& min_config_entry() const;

 private:
  /// The view of the entries with batch <= `batch`: its entries are
  /// sliced_[begin, begin + size).
  struct Slice {
    std::uint16_t batch = 0;
    std::size_t begin = 0;
    std::size_t size = 0;
    Usd min_per_job_cost = 0.0;
  };

  FunctionSpec spec_;
  std::vector<ProfileEntry> entries_;
  std::unordered_map<std::uint64_t, std::size_t> index_;  // config key -> entry
  std::vector<ProfileEntry> sliced_;  // every slice's entries, back to back
  std::vector<Slice> slices_;  // one per distinct batch, ascending; back() = all

  static std::uint64_t key(const Config& c);
};

/// Profiles for a set of functions, keyed by FunctionId.
class ProfileSet {
 public:
  ProfileSet() = default;

  void add(ProfileTable table);

  [[nodiscard]] const ProfileTable& table(FunctionId id) const;
  [[nodiscard]] bool contains(FunctionId id) const;
  [[nodiscard]] std::size_t size() const { return tables_.size(); }

  /// Builds profiles for all built-in (Table 3) functions.
  [[nodiscard]] static ProfileSet builtin(const ConfigSpaceOptions& options = {},
                                          const PriceModel& prices = {});

 private:
  std::unordered_map<FunctionId, ProfileTable> tables_;
};

}  // namespace esg::profile
