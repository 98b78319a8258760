// Shared property-testing harness (DESIGN.md §8, testing): deterministic
// skewed key generation, a Property = predicate-with-counterexample shape,
// and a ddmin-style chunk-removal shrinker. Factored out of
// test_properties.cpp so the wire/aggregation suites (test_wire.cpp) reuse
// the same reproducible-seed + minimal-reproducer reporting.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "fcm/fcm_config.h"
#include "fcm/fcm_topk.h"
#include "flow/flow_key.h"

namespace fcm::proptest {

// Small geometry so tens of thousands of packets over a few thousand flows
// actually exercise overflow promotion through all three stages.
inline core::FcmConfig small_fcm_config(std::uint64_t seed) {
  core::FcmConfig config;
  config.tree_count = 2;
  config.k = 8;
  config.stage_bits = {8, 16, 32};
  config.leaf_count = 8 * 8 * 64;  // 4096 leaves
  config.seed = seed;
  return config;
}

// Geometries whose stages land on every storage width FcmTree uses
// (FcmConfig::stage_bytes: 1, 2 or 4 bytes per node), bit counts that are
// not byte multiples included: {6,12,24} is stored in 1/2/4 bytes,
// {8,16,32} in 1/2/4, {10,20} in 2/4 and {20,32} in 4/4. 1024 leaves under
// k = 4, so a few thousand packets over a few hundred flows overflow the
// narrow leaves.
inline std::vector<core::FcmConfig> storage_width_configs(std::uint64_t seed) {
  std::vector<core::FcmConfig> configs;
  for (const std::vector<unsigned>& bits :
       {std::vector<unsigned>{6, 12, 24}, std::vector<unsigned>{8, 16, 32},
        std::vector<unsigned>{10, 20}, std::vector<unsigned>{20, 32}}) {
    core::FcmConfig config;
    config.tree_count = 2;
    config.k = 4;
    config.stage_bits = bits;
    config.leaf_count = 1024;
    config.seed = seed;
    configs.push_back(config);
  }
  return configs;
}

// "{6,12,24}"-style label for SCOPED_TRACE.
inline std::string stage_bits_label(const core::FcmConfig& config) {
  std::string label = "{";
  for (std::size_t l = 0; l < config.stage_bits.size(); ++l) {
    label += (l == 0 ? "" : ",") + std::to_string(config.stage_bits[l]);
  }
  return label + "}";
}

inline core::FcmTopK::Config small_topk_config(std::uint64_t seed) {
  core::FcmTopK::Config config;
  config.fcm = small_fcm_config(seed);
  config.topk_entries = 64;
  return config;
}

// Skewed random key sequence: cubing the uniform draw concentrates mass on
// low key ids, giving a few heavy flows (stage-overflow pressure) and a
// long tail (leaf-collision pressure).
inline std::vector<flow::FlowKey> random_keys(std::uint64_t seed,
                                              std::size_t length,
                                              std::uint32_t universe) {
  common::Xoshiro256 rng(seed);
  std::vector<flow::FlowKey> keys;
  keys.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    const double u = rng.next_double();
    const auto id = static_cast<std::uint32_t>(u * u * u * universe);
    keys.push_back(flow::FlowKey{id});
  }
  return keys;
}

struct Counterexample {
  flow::FlowKey key{};
  std::uint64_t estimate = 0;
  std::uint64_t expected = 0;
};

// A property maps a key sequence to nullopt (holds) or a counterexample.
using Property = std::function<std::optional<Counterexample>(
    const std::vector<flow::FlowKey>&)>;

// ddmin-style shrinker: repeatedly delete chunks (halving the chunk size)
// while the property still fails. Deterministic and O(n log n) checks.
inline std::vector<flow::FlowKey> shrink(std::vector<flow::FlowKey> keys,
                                         const Property& property) {
  for (std::size_t chunk = keys.size() / 2; chunk > 0; chunk /= 2) {
    std::size_t start = 0;
    while (start + chunk <= keys.size()) {
      std::vector<flow::FlowKey> candidate;
      candidate.reserve(keys.size() - chunk);
      candidate.insert(candidate.end(), keys.begin(),
                       keys.begin() + static_cast<std::ptrdiff_t>(start));
      candidate.insert(
          candidate.end(),
          keys.begin() + static_cast<std::ptrdiff_t>(start + chunk),
          keys.end());
      if (!candidate.empty() && property(candidate).has_value()) {
        keys = std::move(candidate);  // keep the removal, retry same offset
      } else {
        start += chunk;
      }
    }
  }
  return keys;
}

inline std::string render_keys(const std::vector<flow::FlowKey>& keys) {
  std::ostringstream out;
  const std::size_t shown = std::min<std::size_t>(keys.size(), 24);
  for (std::size_t i = 0; i < shown; ++i) {
    if (i > 0) out << ", ";
    out << keys[i].value;
  }
  if (shown < keys.size()) out << ", ... (" << keys.size() << " total)";
  return out.str();
}

// Runs `property` on a generated sequence; on failure, shrinks and reports
// the minimal reproducer together with the generator seed.
inline void expect_property(const Property& property, std::uint64_t seed,
                            std::size_t length, std::uint32_t universe,
                            const char* name) {
  const std::vector<flow::FlowKey> keys = random_keys(seed, length, universe);
  const std::optional<Counterexample> failure = property(keys);
  if (!failure) return;
  const std::vector<flow::FlowKey> minimal = shrink(keys, property);
  const std::optional<Counterexample> min_failure = property(minimal);
  const Counterexample& report = min_failure ? *min_failure : *failure;
  FAIL() << name << " violated (seed " << seed << "): key " << report.key.value
         << " estimated " << report.estimate << " < expected "
         << report.expected << "\nminimal reproducer (" << minimal.size()
         << " updates): " << render_keys(minimal);
}

}  // namespace fcm::proptest
