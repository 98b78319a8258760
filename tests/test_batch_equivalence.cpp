// Bit-exactness of the batched ingest kernel (DESIGN.md §9).
//
// Every batch entry point added for the hot path — SeededHash::index_batch,
// FcmTree::add_batch, FcmSketch::add_batch, CmSketch::update_batch,
// TopKFilter::offer_batch via FcmTopK::add_batch, FcmFramework::process_batch
// and the span overloads, and ShardedFcmFramework::ingest(span) — must leave
// EXACTLY the state the scalar per-packet path leaves: every tree node, the
// promotion counters, TopK vote-table entries, heavy-hitter sets, and the
// per-key estimates. Tolerances are zero throughout; any divergence means the
// fast path changed semantics, not just speed.
//
// Coverage: batch sizes {1, 7, 64, 1000} (below/at/above the kBatchBlock
// stride, odd tails included), duplicate keys within one batch (carry and
// eviction ordering), and batches interleaved with rotate_async() epoch
// markers on the sharded runtime.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/simd_dispatch.h"
#include "fcm/fcm_sketch.h"
#include "fcm/fcm_topk.h"
#include "fcm/fcm_tree.h"
#include "flow/flow_key.h"
#include "flow/packet.h"
#include "framework/fcm_framework.h"
#include "property_harness.h"
#include "runtime/sharded_framework.h"
#include "sketch/cardinality.h"
#include "sketch/cm_sketch.h"

namespace {

using fcm::core::FcmConfig;
using fcm::core::FcmSketch;
using fcm::core::FcmTopK;
using fcm::core::FcmTree;
using fcm::flow::FlowKey;
using fcm::flow::Packet;
using fcm::framework::FcmFramework;
using fcm::runtime::ShardedFcmFramework;
using fcm::sketch::CmSketch;

// The batch sizes the ISSUE pins: below / at / well above the block stride,
// with odd tails (1000 = 15 * 64 + 40).
constexpr std::size_t kBatchSizes[] = {1, 7, 64, 1000};

// Small multi-level geometry; tiny leaf stage (8-bit) so fixed traces push
// plenty of keys through the overflow slow path, exercising the fast/slow
// boundary the batch kernel specializes.
FcmConfig small_config() {
  FcmConfig config;
  config.tree_count = 2;
  config.k = 8;
  config.stage_bits = {8, 16, 32};
  config.leaf_count = 2048;
  config.seed = 0x5555aaaa;
  return config;
}

// small_config() with a 4-byte level 1 (17-bit leaves): the apply_block
// geometry the AVX2 body serves. small_config's byte-wide leaves take the
// scalar apply on every tier, so the dispatch matrix runs both.
FcmConfig dword_leaf_config() {
  FcmConfig config = small_config();
  config.stage_bits = {17, 32};
  return config;
}

// Deterministic skewed key stream: few hot keys (lots of duplicates and
// overflow carries), many cold ones.
std::vector<FlowKey> skewed_keys(std::size_t n, std::uint64_t seed,
                                 std::size_t distinct = 256) {
  std::mt19937_64 rng(seed);
  std::vector<FlowKey> pool;
  pool.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    pool.push_back(FlowKey{static_cast<std::uint32_t>(rng()) | 1u});
  }
  std::vector<double> weights(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    weights[i] = 1.0 / static_cast<double>(i + 1);
  }
  std::discrete_distribution<std::size_t> pick(weights.begin(), weights.end());
  std::vector<FlowKey> keys;
  keys.reserve(n);
  for (std::size_t p = 0; p < n; ++p) keys.push_back(pool[pick(rng)]);
  return keys;
}

// Every stored node of every stage of every tree.
void expect_trees_identical(const FcmSketch& a, const FcmSketch& b) {
  ASSERT_EQ(a.tree_count(), b.tree_count());
  for (std::size_t t = 0; t < a.tree_count(); ++t) {
    for (std::size_t l = 1; l <= a.config().stage_count(); ++l) {
      const auto sa = a.tree(t).stage(l);
      const auto sb = b.tree(t).stage(l);
      ASSERT_EQ(sa.size(), sb.size());
      for (std::size_t i = 0; i < sa.size(); ++i) {
        ASSERT_EQ(sa[i], sb[i]) << "tree " << t << " stage " << l << " node " << i;
      }
    }
  }
}

// Trees plus the promotion telemetry and the raw heavy-hitter set — the
// strongest equality the sketch exposes. Right for scalar-vs-batch on ONE
// structure; the sharded runtime's merged epochs are only tree-state exact
// (merge re-derives promotions and re-qualifies heavy hitters), so those
// comparisons use expect_trees_identical directly.
void expect_sketch_identical(const FcmSketch& a, const FcmSketch& b) {
  expect_trees_identical(a, b);
  for (std::size_t t = 0; t < a.tree_count(); ++t) {
    EXPECT_EQ(a.tree(t).overflow_promotion_count(),
              b.tree(t).overflow_promotion_count())
        << "tree " << t << " promotion counter diverged";
  }
  EXPECT_EQ(a.heavy_hitters(), b.heavy_hitters());
}

// --- hash layer --------------------------------------------------------------

TEST(BatchEquivalence, IndexBatchMatchesScalarIndex) {
  const fcm::common::SeededHash hash(0xfeedf00d);
  const auto keys = skewed_keys(1000, 1);
  std::vector<std::size_t> batch(keys.size());
  for (const std::size_t width : {1ul, 7ul, 2048ul, 600000ul}) {
    hash.index_batch(std::span<const FlowKey>(keys), width,
                     std::span<std::size_t>(batch));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(batch[i], hash.index(keys[i], width)) << "width " << width;
    }
  }
}

TEST(BatchEquivalence, InlineU32HashMatchesGeneralBob) {
  // The inline 4-byte specialization must stay bit-identical to the
  // out-of-line lookup3 path the scalar code used to take.
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::uint32_t value = static_cast<std::uint32_t>(rng());
    const std::uint32_t seed = static_cast<std::uint32_t>(rng());
    const auto bytes = std::as_bytes(std::span<const std::uint32_t, 1>{&value, 1});
    ASSERT_EQ(fcm::common::bob_hash_u32(value, seed),
              fcm::common::bob_hash(bytes, seed));
  }
}

// --- FcmTree -----------------------------------------------------------------

TEST(BatchEquivalence, TreeBatchMatchesScalarAdds) {
  for (const std::size_t n : kBatchSizes) {
    const auto keys = skewed_keys(n, 42 + n);
    FcmTree scalar(small_config(), fcm::common::SeededHash(0xabc));
    FcmTree batched(small_config(), fcm::common::SeededHash(0xabc));

    std::vector<std::uint64_t> scalar_estimates;
    scalar_estimates.reserve(n);
    for (const FlowKey key : keys) scalar_estimates.push_back(scalar.add(key));

    std::vector<std::uint64_t> batch_estimates(
        n, std::numeric_limits<std::uint64_t>::max());
    batched.add_batch(std::span<const FlowKey>(keys),
                      std::span<std::uint64_t>(batch_estimates));

    for (std::size_t l = 1; l <= small_config().stage_count(); ++l) {
      const auto sa = scalar.stage(l);
      const auto sb = batched.stage(l);
      for (std::size_t i = 0; i < sa.size(); ++i) {
        ASSERT_EQ(sa[i], sb[i]) << "n=" << n << " stage " << l << " node " << i;
      }
    }
    EXPECT_EQ(scalar.overflow_promotion_count(),
              batched.overflow_promotion_count());
    // min_estimates seeded with UINT64_MAX collapse to the per-key estimate.
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batch_estimates[i], scalar_estimates[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(BatchEquivalence, TreeBatchDuplicateHeavyKey) {
  // One key repeated through a whole batch: every increment after the first
  // stage-1 saturation must take the slow carry path, and later duplicates
  // in the SAME block must observe the earlier carries.
  FcmTree scalar(small_config(), fcm::common::SeededHash(0x77));
  FcmTree batched(small_config(), fcm::common::SeededHash(0x77));
  const std::vector<FlowKey> keys(1000, FlowKey{0xdecafbad});

  std::vector<std::uint64_t> scalar_estimates;
  for (const FlowKey key : keys) scalar_estimates.push_back(scalar.add(key));
  std::vector<std::uint64_t> batch_estimates(
      keys.size(), std::numeric_limits<std::uint64_t>::max());
  batched.add_batch(std::span<const FlowKey>(keys),
                    std::span<std::uint64_t>(batch_estimates));

  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(batch_estimates[i], scalar_estimates[i]) << "i=" << i;
  }
  EXPECT_EQ(scalar.overflow_promotion_count(),
            batched.overflow_promotion_count());
  EXPECT_EQ(scalar.query(keys[0]), batched.query(keys[0]));
}

// --- FcmSketch ---------------------------------------------------------------

TEST(BatchEquivalence, SketchBatchMatchesScalarUpdates) {
  for (const std::size_t n : kBatchSizes) {
    const auto keys = skewed_keys(n, 1000 + n);
    FcmSketch scalar(small_config());
    FcmSketch batched(small_config());
    scalar.set_heavy_hitter_threshold(20);
    batched.set_heavy_hitter_threshold(20);

    for (const FlowKey key : keys) scalar.update(key);
    batched.add_batch(std::span<const FlowKey>(keys));

    expect_sketch_identical(scalar, batched);
  }
}

TEST(BatchEquivalence, SketchBatchSplitArbitrarily) {
  // Splitting one stream into many batches of awkward sizes changes nothing:
  // ...(batch of 1)(batch of 7)(batch of 64)(batch of 1000)... == scalar.
  const auto keys = skewed_keys(2144, 9);  // 1 + 7 + 64 + 1000 + 1072 tail
  FcmSketch scalar(small_config());
  FcmSketch batched(small_config());
  for (const FlowKey key : keys) scalar.update(key);

  std::span<const FlowKey> rest(keys);
  for (const std::size_t n : kBatchSizes) {
    batched.add_batch(rest.subspan(0, n));
    rest = rest.subspan(n);
  }
  batched.add_batch(rest);

  expect_sketch_identical(scalar, batched);
}

// --- CmSketch ----------------------------------------------------------------

TEST(BatchEquivalence, CmSketchBatchMatchesScalarUpdates) {
  for (const std::size_t n : kBatchSizes) {
    const auto keys = skewed_keys(n, 31 + n);
    CmSketch scalar(3, 1024);
    CmSketch batched(3, 1024);
    for (const FlowKey key : keys) scalar.update(key);
    batched.update_batch(std::span<const FlowKey>(keys));
    for (const FlowKey key : keys) {
      ASSERT_EQ(scalar.query(key), batched.query(key));
    }
    EXPECT_EQ(scalar.saturation_count(), batched.saturation_count());
  }
}

// --- FcmTopK -----------------------------------------------------------------

TEST(BatchEquivalence, TopKBatchMatchesScalarUpdates) {
  for (const std::size_t n : kBatchSizes) {
    const auto keys = skewed_keys(n, 555 + n);
    FcmTopK::Config config;
    config.fcm = small_config();
    config.topk_entries = 64;  // tiny table: plenty of evictions
    FcmTopK scalar(config);
    FcmTopK batched(config);
    scalar.set_heavy_hitter_threshold(20);
    batched.set_heavy_hitter_threshold(20);

    for (const FlowKey key : keys) scalar.update(key);
    batched.add_batch(std::span<const FlowKey>(keys));

    // Sketch parts bit-exact (including eviction flush ordering) ...
    expect_sketch_identical(scalar.sketch(), batched.sketch());
    // ... and the filter tables hold the same entries.
    auto ea = scalar.filter().entries();
    auto eb = batched.filter().entries();
    const auto by_key = [](const auto& x, const auto& y) { return x.key < y.key; };
    std::sort(ea.begin(), ea.end(), by_key);
    std::sort(eb.begin(), eb.end(), by_key);
    ASSERT_EQ(ea.size(), eb.size()) << "n=" << n;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].key, eb[i].key);
      EXPECT_EQ(ea[i].count, eb[i].count);
      EXPECT_EQ(ea[i].has_light_part, eb[i].has_light_part);
    }
    for (const FlowKey key : keys) {
      ASSERT_EQ(scalar.query(key), batched.query(key));
    }
  }
}

TEST(BatchEquivalence, TopKBatchZeroKeyPassesThrough) {
  // FlowKey{0} is the filter's empty sentinel; the batch path must route it
  // to the sketch exactly as offer() does.
  FcmTopK::Config config;
  config.fcm = small_config();
  config.topk_entries = 64;
  FcmTopK scalar(config);
  FcmTopK batched(config);
  std::vector<FlowKey> keys = skewed_keys(100, 77);
  for (std::size_t i = 0; i < keys.size(); i += 3) keys[i] = FlowKey{0};

  for (const FlowKey key : keys) scalar.update(key);
  batched.add_batch(std::span<const FlowKey>(keys));

  expect_sketch_identical(scalar.sketch(), batched.sketch());
  EXPECT_EQ(scalar.query(FlowKey{0}), batched.query(FlowKey{0}));
}

// --- FcmFramework ------------------------------------------------------------

TEST(BatchEquivalence, FrameworkSpanMatchesPerPacket) {
  for (const bool with_topk : {false, true}) {
    FcmFramework::Options options;
    options.fcm = small_config();
    options.topk_entries = with_topk ? 64 : 0;
    options.heavy_hitter_threshold = 25;
    options.metrics = nullptr;
    FcmFramework scalar(options);
    FcmFramework batched(options);

    const auto keys = skewed_keys(3000, 13);
    std::vector<Packet> packets;
    packets.reserve(keys.size());
    for (const FlowKey key : keys) packets.push_back({key, 100, 0});

    for (const Packet& packet : packets) scalar.process(packet);
    batched.process(std::span<const Packet>(packets));

    expect_sketch_identical(scalar.sketch(), batched.sketch());
    auto hh_a = scalar.heavy_hitters();
    auto hh_b = batched.heavy_hitters();
    std::sort(hh_a.begin(), hh_a.end());
    std::sort(hh_b.begin(), hh_b.end());
    EXPECT_EQ(hh_a, hh_b) << "with_topk=" << with_topk;
    for (const FlowKey key : keys) {
      ASSERT_EQ(scalar.flow_size(key), batched.flow_size(key));
    }
  }
}

TEST(BatchEquivalence, FrameworkByteModeSpanMatchesPerPacket) {
  // kBytes increments are data-dependent, so the span overload stays on the
  // per-packet path — but it must still produce identical state.
  FcmFramework::Options options;
  options.fcm = small_config();
  options.count_mode = FcmFramework::CountMode::kBytes;
  options.metrics = nullptr;
  FcmFramework scalar(options);
  FcmFramework batched(options);

  const auto keys = skewed_keys(2000, 21);
  std::mt19937_64 rng(22);
  std::vector<Packet> packets;
  packets.reserve(keys.size());
  for (const FlowKey key : keys) {
    packets.push_back({key, static_cast<std::uint32_t>(40 + rng() % 1460), 0});
  }
  for (const Packet& packet : packets) scalar.process(packet);
  batched.process(std::span<const Packet>(packets));
  expect_sketch_identical(scalar.sketch(), batched.sketch());
}

// --- sharded runtime ---------------------------------------------------------

TEST(BatchEquivalence, ShardedSpanIngestInterleavedWithRotations) {
  // ingest(span<FlowKey>) batches interleaved with rotate_async() epoch
  // markers: each merged epoch must be bit-exact the serial framework fed
  // that epoch's keys through process_batch (plain-FCM merge is exact).
  const auto keys = skewed_keys(24000, 99, 1500);
  const std::size_t third = keys.size() / 3;

  for (const std::size_t shards : {1ul, 2ul, 4ul}) {
    ShardedFcmFramework::Options options;
    options.framework.fcm = small_config();
    options.framework.heavy_hitter_threshold = 50;
    options.framework.metrics = nullptr;
    options.metrics = nullptr;
    options.shard_count = shards;
    options.queue_capacity = 1 << 10;
    ShardedFcmFramework sharded(options);

    std::span<const FlowKey> all(keys);
    // Epoch 0: two batches with an odd split. Epoch 1: the rest, pushed as
    // several small spans between the rotation markers.
    sharded.ingest(all.subspan(0, third - 5));
    sharded.ingest(all.subspan(third - 5, 5));
    const std::size_t epoch0 = sharded.rotate_async();
    for (std::size_t base = third; base < keys.size(); base += 1000) {
      sharded.ingest(all.subspan(base, std::min<std::size_t>(1000, keys.size() - base)));
    }
    const std::size_t epoch1 = sharded.rotate_async();
    sharded.wait_epoch(epoch0);
    sharded.wait_epoch(epoch1);

    FcmFramework::Options serial_options = options.framework;
    FcmFramework serial0(serial_options);
    serial0.process_batch(all.subspan(0, third));
    FcmFramework serial1(serial_options);
    serial1.process_batch(all.subspan(third));

    expect_trees_identical(serial0.sketch(), sharded.merged_epoch(1).sketch());
    expect_trees_identical(serial1.sketch(), sharded.merged_epoch(0).sketch());
    sharded.stop();
  }
}

TEST(BatchEquivalence, ShardedBlockStagedSpansBitExactAcrossSizesAndShards) {
  // The block-staged hand-off matrix the ISSUE pins: N in {1, 2, 4, 8} and
  // span sizes {1, block-1, block, block+1, 10*block} around the publication
  // boundary (block == flush_batch), interleaved with rotations so partial
  // blocks get flushed by the marker path mid-stream. Each merged epoch must
  // be tree-bit-exact against a serial framework fed the same keys — the
  // rotation boundary falls INSIDE a span-size cycle, so epochs end on
  // ragged, partially-staged state.
  constexpr std::size_t kBlock = 64;  // default Options::flush_batch
  const std::size_t span_sizes[] = {1, kBlock - 1, kBlock, kBlock + 1,
                                    10 * kBlock};
  // One cycle consumes 1 + 63 + 64 + 65 + 640 = 833 keys; three cycles total.
  const auto keys = skewed_keys(3 * 833, 123, 1200);

  for (const std::size_t shards : {1ul, 2ul, 4ul, 8ul}) {
    ShardedFcmFramework::Options options;
    options.framework.fcm = small_config();
    options.framework.heavy_hitter_threshold = 50;
    options.framework.metrics = nullptr;
    options.metrics = nullptr;
    options.shard_count = shards;
    ShardedFcmFramework sharded(options);

    // Epoch 0: one full cycle of the span sizes (831 keys). Epoch 1: two
    // more cycles. Serial twins consume the same split.
    std::span<const FlowKey> rest(keys);
    const auto feed_cycles = [&](std::size_t cycles) {
      std::size_t fed = 0;
      for (std::size_t c = 0; c < cycles; ++c) {
        for (const std::size_t n : span_sizes) {
          sharded.ingest(rest.subspan(0, n));
          rest = rest.subspan(n);
          fed += n;
        }
      }
      return fed;
    };
    const std::size_t epoch0_keys = feed_cycles(1);
    const std::size_t epoch0 = sharded.rotate_async();
    const std::size_t epoch1_keys = feed_cycles(2);
    const std::size_t epoch1 = sharded.rotate_async();
    ASSERT_EQ(sharded.wait_epoch(epoch0).packets, epoch0_keys);
    ASSERT_EQ(sharded.wait_epoch(epoch1).packets, epoch1_keys);

    std::span<const FlowKey> all(keys);
    FcmFramework::Options serial_options = options.framework;
    FcmFramework serial0(serial_options);
    serial0.process_batch(all.subspan(0, epoch0_keys));
    FcmFramework serial1(serial_options);
    serial1.process_batch(all.subspan(epoch0_keys, epoch1_keys));

    expect_trees_identical(serial0.sketch(), sharded.merged_epoch(1).sketch());
    expect_trees_identical(serial1.sketch(), sharded.merged_epoch(0).sketch());
    sharded.stop();
  }
}

// --- kernel dispatch matrix (DESIGN.md §14) ----------------------------------
//
// Every kernel tier — scalar, autovec, and (on capable CPUs) the hand-written
// AVX2 kernel — forced in-process through force_kernel_tier(), must produce
// bit-identical hashes, indices, tree state, promotion counters, and per-key
// estimates. The scalar per-key entry points (FcmTree::add, FcmSketch::update)
// never dispatch, so they are the tier-independent ground truth throughout.

using fcm::common::simd::KernelTier;

// Tiers available on this machine. AVX2 joins the matrix only when the CPU
// supports it; CI's perf-smoke asserts capable runners actually take it.
std::vector<KernelTier> equivalence_tiers() {
  std::vector<KernelTier> tiers{KernelTier::kScalar, KernelTier::kAutovec};
  if (fcm::common::simd::cpu_supports_avx2()) tiers.push_back(KernelTier::kAvx2);
  return tiers;
}

// RAII tier override; restores the probed default on scope exit so test
// order never leaks a forced tier.
class ForcedTier {
 public:
  explicit ForcedTier(KernelTier tier) {
    fcm::common::simd::force_kernel_tier(tier);
  }
  ~ForcedTier() { fcm::common::simd::force_kernel_tier(std::nullopt); }
  ForcedTier(const ForcedTier&) = delete;
  ForcedTier& operator=(const ForcedTier&) = delete;
};

// The ISSUE's dispatch-matrix sizes: below / straddling / well above both the
// kBatchBlock stride and the AVX2 8-lane group width.
constexpr std::size_t kMatrixSizes[] = {1, 7, 63, 64, 65, 1000};

TEST(DispatchMatrix, IndexBatchBitExactAcrossTiers) {
  const fcm::common::SeededHash hash(0xfeedf00d);
  for (const KernelTier tier : equivalence_tiers()) {
    ForcedTier forced(tier);
    for (const std::size_t n : kMatrixSizes) {
      const auto keys = skewed_keys(n, 17 + n);
      std::vector<std::uint32_t> idx(n);
      std::vector<std::uint32_t> raw(n);
      for (const std::size_t width : {1ul, 7ul, 2048ul, 600000ul}) {
        hash.index_hash_batch(std::span<const FlowKey>(keys), width,
                              std::span<std::uint32_t>(idx),
                              std::span<std::uint32_t>(raw));
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(idx[i], hash.index(keys[i], width))
              << "tier " << fcm::common::simd::kernel_tier_name(tier)
              << " n=" << n << " width=" << width << " i=" << i;
          ASSERT_EQ(raw[i], hash(keys[i]));
        }
        // The raw-less overload takes the same tiered path.
        hash.index_batch(std::span<const FlowKey>(keys), width,
                         std::span<std::uint32_t>(idx));
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(idx[i], hash.index(keys[i], width));
        }
      }
    }
  }
}

TEST(DispatchMatrix, HashBatchMatchesScalarOperator) {
  const fcm::common::SeededHash hash(0x9a27);
  for (const KernelTier tier : equivalence_tiers()) {
    ForcedTier forced(tier);
    for (const std::size_t n : kMatrixSizes) {
      const auto keys = skewed_keys(n, 29 + n);
      std::vector<std::uint32_t> hashes(n);
      hash.hash_batch(std::span<const FlowKey>(keys),
                      std::span<std::uint32_t>(hashes));
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hashes[i], hash(keys[i]))
            << "tier " << fcm::common::simd::kernel_tier_name(tier)
            << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(DispatchMatrix, TreeBatchBitExactAcrossTiers) {
  for (const FcmConfig& config : {small_config(), dword_leaf_config()}) {
    SCOPED_TRACE(fcm::proptest::stage_bits_label(config));
    for (const KernelTier tier : equivalence_tiers()) {
      ForcedTier forced(tier);
      for (const std::size_t n : kMatrixSizes) {
        // Dup-heavy skew: plenty of repeated keys inside single 8-lane
        // groups, so on the 4-byte level 1 the AVX2 duplicate-detect
        // bailout runs on real collisions.
        const auto keys = skewed_keys(n, 42 + n);
        FcmTree scalar(config, fcm::common::SeededHash(0xabc));
        FcmTree batched(config, fcm::common::SeededHash(0xabc));

        std::vector<std::uint64_t> scalar_estimates;
        scalar_estimates.reserve(n);
        for (const FlowKey key : keys) {
          scalar_estimates.push_back(scalar.add(key));
        }

        std::vector<std::uint64_t> batch_estimates(
            n, std::numeric_limits<std::uint64_t>::max());
        batched.add_batch(std::span<const FlowKey>(keys),
                          std::span<std::uint64_t>(batch_estimates));

        for (std::size_t l = 1; l <= config.stage_count(); ++l) {
          const auto sa = scalar.stage(l);
          const auto sb = batched.stage(l);
          for (std::size_t i = 0; i < sa.size(); ++i) {
            ASSERT_EQ(sa[i], sb[i])
                << "tier " << fcm::common::simd::kernel_tier_name(tier)
                << " n=" << n << " stage " << l << " node " << i;
          }
        }
        EXPECT_EQ(scalar.overflow_promotion_count(),
                  batched.overflow_promotion_count());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(batch_estimates[i], scalar_estimates[i])
              << "tier " << fcm::common::simd::kernel_tier_name(tier)
              << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(DispatchMatrix, TreeOverflowLaneFallbackAcrossTiers) {
  // Most groups of 8 contain at-cap lanes, interleaved with add_at carry
  // walks, on two level-1 widths over 64 leaves:
  //  - {4,8,32}: a 4-bit byte level 1 (counting max 14) fills after a few
  //    hundred adds; the scalar apply runs on every tier.
  //  - {17,32}: a 4-byte level 1, every touched leaf preloaded to 8..71
  //    below its counting max, so the AVX2 kernel's partial-consume +
  //    scalar-resume protocol runs constantly.
  // Promotions must land in the SAME key positions as the scalar path — any
  // lane-order slip shows up in the estimates.
  FcmConfig byte_leaves;
  byte_leaves.tree_count = 2;
  byte_leaves.k = 8;
  byte_leaves.stage_bits = {4, 8, 32};
  byte_leaves.leaf_count = 64;
  byte_leaves.seed = 0x1234;
  FcmConfig dword_leaves = byte_leaves;
  dword_leaves.stage_bits = {17, 32};

  for (const FcmConfig& config : {byte_leaves, dword_leaves}) {
    SCOPED_TRACE(fcm::proptest::stage_bits_label(config));
    const bool preload = config.stage_bytes(1) == 4;
    for (const KernelTier tier : equivalence_tiers()) {
      ForcedTier forced(tier);
      const auto keys = skewed_keys(4000, 7, 512);
      FcmTree scalar(config, fcm::common::SeededHash(0x55));
      FcmTree batched(config, fcm::common::SeededHash(0x55));
      if (preload) {
        std::vector<bool> loaded(config.leaf_count, false);
        for (const FlowKey key : keys) {
          const std::size_t leaf = scalar.leaf_index(key);
          if (loaded[leaf]) continue;
          loaded[leaf] = true;
          const std::uint64_t count = config.counting_max(1) - 8 - leaf % 64;
          scalar.add(key, count);
          batched.add(key, count);
        }
        ASSERT_EQ(scalar.overflow_promotion_count(), 0u);
      }

      std::vector<std::uint64_t> scalar_estimates;
      for (const FlowKey key : keys) {
        scalar_estimates.push_back(scalar.add(key));
      }
      std::vector<std::uint64_t> batch_estimates(
          keys.size(), std::numeric_limits<std::uint64_t>::max());
      batched.add_batch(std::span<const FlowKey>(keys),
                        std::span<std::uint64_t>(batch_estimates));

      // The point of the fixture: the overflow slow path actually ran.
      ASSERT_GT(scalar.overflow_promotion_count(), 0u);
      EXPECT_EQ(scalar.overflow_promotion_count(),
                batched.overflow_promotion_count())
          << "tier " << fcm::common::simd::kernel_tier_name(tier);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(batch_estimates[i], scalar_estimates[i])
            << "tier " << fcm::common::simd::kernel_tier_name(tier)
            << " i=" << i;
      }
      for (std::size_t l = 1; l <= config.stage_count(); ++l) {
        const auto sa = scalar.stage(l);
        const auto sb = batched.stage(l);
        for (std::size_t i = 0; i < sa.size(); ++i) {
          ASSERT_EQ(sa[i], sb[i]) << "stage " << l << " node " << i;
        }
      }
    }
  }
}

TEST(DispatchMatrix, TreeDuplicateHeavyKeyAcrossTiers) {
  // One key repeated 1000 times: every 8-lane group is all-duplicates. On
  // the 4-byte level 1 the AVX2 kernel consumes nothing and the
  // scalar-resume path does all the work — the degenerate worst case for
  // the bailout protocol; the byte level 1 overflows into its parent.
  for (const FcmConfig& config : {small_config(), dword_leaf_config()}) {
    SCOPED_TRACE(fcm::proptest::stage_bits_label(config));
    for (const KernelTier tier : equivalence_tiers()) {
      ForcedTier forced(tier);
      FcmTree scalar(config, fcm::common::SeededHash(0x77));
      FcmTree batched(config, fcm::common::SeededHash(0x77));
      const std::vector<FlowKey> keys(1000, FlowKey{0xdecafbad});

      std::vector<std::uint64_t> scalar_estimates;
      for (const FlowKey key : keys) {
        scalar_estimates.push_back(scalar.add(key));
      }
      std::vector<std::uint64_t> batch_estimates(
          keys.size(), std::numeric_limits<std::uint64_t>::max());
      batched.add_batch(std::span<const FlowKey>(keys),
                        std::span<std::uint64_t>(batch_estimates));

      for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(batch_estimates[i], scalar_estimates[i])
            << "tier " << fcm::common::simd::kernel_tier_name(tier)
            << " i=" << i;
      }
      EXPECT_EQ(scalar.overflow_promotion_count(),
                batched.overflow_promotion_count());
    }
  }
}

TEST(DispatchMatrix, SketchSplitBatchesAcrossTiers) {
  for (const FcmConfig& config : {small_config(), dword_leaf_config()}) {
    SCOPED_TRACE(fcm::proptest::stage_bits_label(config));
    for (const KernelTier tier : equivalence_tiers()) {
      ForcedTier forced(tier);
      const auto keys = skewed_keys(2144, 9);
      FcmSketch scalar(config);
      FcmSketch batched(config);
      scalar.set_heavy_hitter_threshold(20);
      batched.set_heavy_hitter_threshold(20);
      for (const FlowKey key : keys) scalar.update(key);

      std::span<const FlowKey> rest(keys);
      for (const std::size_t n : kMatrixSizes) {
        batched.add_batch(rest.subspan(0, n));
        rest = rest.subspan(n);
      }
      batched.add_batch(rest);

      expect_sketch_identical(scalar, batched);
    }
  }
}

TEST(DispatchMatrix, EveryStorageWidthBitExactAcrossTiers) {
  // Level 1 stored in 1, 2 and 4 bytes per node (storage_width_configs):
  // byte and word leaves take the scalar apply on every tier, dword leaves
  // the AVX2 body where the CPU has it. The hottest keys start two below
  // the leaf counting max, so the +1 stream trips leaves on every width,
  // including the wide ones a few thousand packets would never fill.
  for (const FcmConfig& config : fcm::proptest::storage_width_configs(0x51de)) {
    const std::uint64_t near_cap = config.counting_max(1) - 2;
    for (const KernelTier tier : equivalence_tiers()) {
      ForcedTier forced(tier);
      SCOPED_TRACE(fcm::proptest::stage_bits_label(config) + " tier " +
                   std::string(fcm::common::simd::kernel_tier_name(tier)));
      for (const std::size_t n : kMatrixSizes) {
        const auto keys = skewed_keys(n, 91 + n, 512);
        FcmTree scalar(config, fcm::common::SeededHash(0x99));
        FcmTree batched(config, fcm::common::SeededHash(0x99));
        for (std::size_t i = 0; i < std::min<std::size_t>(n, 16); ++i) {
          scalar.add(keys[i], near_cap);
          batched.add(keys[i], near_cap);
        }

        std::vector<std::uint64_t> scalar_estimates;
        for (const FlowKey key : keys) {
          scalar_estimates.push_back(scalar.add(key));
        }
        std::vector<std::uint64_t> batch_estimates(
            n, std::numeric_limits<std::uint64_t>::max());
        batched.add_batch(std::span<const FlowKey>(keys),
                          std::span<std::uint64_t>(batch_estimates));

        if (n == 1000) {
          ASSERT_GT(scalar.overflow_promotion_count(), 0u);
        }
        EXPECT_EQ(scalar.overflow_promotion_count(),
                  batched.overflow_promotion_count())
            << "n=" << n;
        for (std::size_t l = 1; l <= config.stage_count(); ++l) {
          const auto sa = scalar.stage(l);
          const auto sb = batched.stage(l);
          ASSERT_EQ(sa.size(), sb.size());
          for (std::size_t i = 0; i < sa.size(); ++i) {
            ASSERT_EQ(sa[i], sb[i])
                << "n=" << n << " stage " << l << " node " << i;
          }
        }
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(batch_estimates[i], scalar_estimates[i])
              << "n=" << n << " i=" << i;
        }
      }

      // The sketch pipelines index and apply across trees; split batches
      // of every matrix size against per-packet updates.
      const auto keys = skewed_keys(2144, 19, 512);
      FcmSketch scalar(config);
      FcmSketch batched(config);
      scalar.set_heavy_hitter_threshold(20);
      batched.set_heavy_hitter_threshold(20);
      for (const FlowKey key : keys) scalar.update(key);
      std::span<const FlowKey> rest(keys);
      for (const std::size_t n : kMatrixSizes) {
        batched.add_batch(rest.subspan(0, n));
        rest = rest.subspan(n);
      }
      batched.add_batch(rest);
      expect_sketch_identical(scalar, batched);
    }
  }
}

TEST(DispatchMatrix, TierParsingAndEnvResolution) {
  using fcm::common::simd::parse_kernel_tier;
  using fcm::common::simd::resolve_kernel_tier;
  EXPECT_EQ(parse_kernel_tier("scalar"), KernelTier::kScalar);
  EXPECT_EQ(parse_kernel_tier("autovec"), KernelTier::kAutovec);
  EXPECT_EQ(parse_kernel_tier("avx2"), KernelTier::kAvx2);
  EXPECT_EQ(parse_kernel_tier("AVX2"), std::nullopt);
  EXPECT_EQ(parse_kernel_tier(""), std::nullopt);

  // The FCM_FORCE_KERNEL contract: a valid value wins; avx2 on a CPU
  // without AVX2 degrades to autovec; garbage falls back to the probe.
  const KernelTier probed = resolve_kernel_tier();
  ASSERT_EQ(setenv("FCM_FORCE_KERNEL", "scalar", 1), 0);
  EXPECT_EQ(resolve_kernel_tier(), KernelTier::kScalar);
  ASSERT_EQ(setenv("FCM_FORCE_KERNEL", "avx2", 1), 0);
  EXPECT_EQ(resolve_kernel_tier(), fcm::common::simd::cpu_supports_avx2()
                                       ? KernelTier::kAvx2
                                       : KernelTier::kAutovec);
  ASSERT_EQ(setenv("FCM_FORCE_KERNEL", "bogus", 1), 0);
  EXPECT_EQ(resolve_kernel_tier(), probed);
  ASSERT_EQ(unsetenv("FCM_FORCE_KERNEL"), 0);
  EXPECT_EQ(resolve_kernel_tier(), probed);
}

// --- single-pass multi-query sweep (DESIGN.md §14) ---------------------------
//
// Options::single_pass_sweep folds the cardinality sidecars into the ingest
// sweep, reusing tree-0's raw hashes. "Identical to the separate-pass path"
// is literal: the sidecar state (hence every estimate) must be bit-equal to
// LinearCounting/HyperLogLog instances fed the same keys on their own, and
// the sketch state must be untouched by the sweep.

FcmFramework::Options sweep_options() {
  FcmFramework::Options options;
  options.fcm = small_config();
  options.single_pass_sweep = true;
  options.metrics = nullptr;
  return options;
}

TEST(SinglePassSweep, MatchesSeparatePassAcrossTiers) {
  for (const KernelTier tier : equivalence_tiers()) {
    ForcedTier forced(tier);
    for (const std::size_t n : kMatrixSizes) {
      const auto keys = skewed_keys(n, 61 + n);
      FcmFramework swept(sweep_options());
      FcmFramework plain(sweep_options());
      // Batched single-pass ingest vs the scalar per-key entry point.
      swept.process_batch(std::span<const FlowKey>(keys));
      for (const FlowKey key : keys) plain.process(key);

      // Separate-pass reference: standalone sidecars over the same hash.
      const auto h0 = swept.sketch().tree(0).hash();
      fcm::sketch::LinearCounting ref_lc(
          sweep_options().sweep_linear_bits, h0);
      fcm::sketch::HyperLogLog ref_hll(
          sweep_options().sweep_hll_registers, h0);
      for (const FlowKey key : keys) {
        ref_lc.update(key);
        ref_hll.update(key);
      }

      const char* name = fcm::common::simd::kernel_tier_name(tier).data();
      EXPECT_EQ(swept.sweep_linear().zero_bits(), ref_lc.zero_bits())
          << "tier " << name << " n=" << n;
      EXPECT_EQ(swept.sweep_linear().estimate(), ref_lc.estimate());
      EXPECT_EQ(swept.sweep_hll().estimate(), ref_hll.estimate())
          << "tier " << name << " n=" << n;
      // Scalar-entry sidecars agree bit for bit with the batched sweep.
      EXPECT_EQ(plain.sweep_linear().zero_bits(),
                swept.sweep_linear().zero_bits());
      EXPECT_EQ(plain.sweep_hll().estimate(), swept.sweep_hll().estimate());
      // And the sweep changed nothing in the sketch itself.
      expect_sketch_identical(plain.sketch(), swept.sketch());
    }
  }
}

TEST(SinglePassSweep, WeightedAndByteModeCountDistinctFlows) {
  // Weighted inserts and byte-mode packets update the sidecars once per
  // call — bit-identical to the separate-pass sidecars fed one update per
  // packet, because repeated updates of one key are idempotent.
  const auto keys = skewed_keys(500, 83, 64);

  FcmFramework::Options byte_options = sweep_options();
  byte_options.count_mode = FcmFramework::CountMode::kBytes;
  FcmFramework bytes_fw(byte_options);
  FcmFramework weighted_fw(sweep_options());
  for (const FlowKey key : keys) {
    bytes_fw.process(Packet{key, 1400, 0});
    weighted_fw.process_weighted(key, 37);
  }

  const auto h0 = bytes_fw.sketch().tree(0).hash();
  fcm::sketch::LinearCounting ref_lc(sweep_options().sweep_linear_bits, h0);
  fcm::sketch::HyperLogLog ref_hll(sweep_options().sweep_hll_registers, h0);
  for (const FlowKey key : keys) {
    ref_lc.update(key);
    ref_hll.update(key);
  }
  EXPECT_EQ(bytes_fw.sweep_linear().zero_bits(), ref_lc.zero_bits());
  EXPECT_EQ(bytes_fw.sweep_hll().estimate(), ref_hll.estimate());
  EXPECT_EQ(weighted_fw.sweep_linear().zero_bits(), ref_lc.zero_bits());
  EXPECT_EQ(weighted_fw.sweep_hll().estimate(), ref_hll.estimate());
}

TEST(SinglePassSweep, MergeAndResetPreserveSidecars) {
  const auto keys = skewed_keys(4000, 91, 700);
  const std::size_t half = keys.size() / 2;

  FcmFramework left(sweep_options());
  FcmFramework right(sweep_options());
  FcmFramework whole(sweep_options());
  left.process_batch(std::span<const FlowKey>(keys).subspan(0, half));
  right.process_batch(std::span<const FlowKey>(keys).subspan(half));
  whole.process_batch(std::span<const FlowKey>(keys));

  left.merge(right);
  EXPECT_EQ(left.sweep_linear().zero_bits(), whole.sweep_linear().zero_bits());
  EXPECT_EQ(left.sweep_linear().estimate(), whole.sweep_linear().estimate());
  EXPECT_EQ(left.sweep_hll().estimate(), whole.sweep_hll().estimate());
  expect_trees_identical(left.sketch(), whole.sketch());

  left.reset();
  EXPECT_EQ(left.sweep_linear().zero_bits(),
            sweep_options().sweep_linear_bits);
}

TEST(SinglePassSweep, ShardedSweepMatchesSerialSinglePass) {
  // The sweep rides the sharded workers' process_batch calls; the exact
  // OR/max sidecar merges make each merged epoch's sidecars bit-equal to a
  // serial single-pass framework fed that epoch's keys. Runs under TSan via
  // the sanitizer jobs (worker threads + coordinator merge).
  const auto keys = skewed_keys(20000, 131, 1500);
  const std::size_t half = keys.size() / 2;

  for (const std::size_t shards : {1ul, 4ul}) {
    ShardedFcmFramework::Options options;
    options.framework = sweep_options();
    options.metrics = nullptr;
    options.shard_count = shards;
    ShardedFcmFramework sharded(options);

    std::span<const FlowKey> all(keys);
    sharded.ingest(all.subspan(0, half));
    const std::size_t epoch0 = sharded.rotate_async();
    sharded.ingest(all.subspan(half));
    const std::size_t epoch1 = sharded.rotate_async();
    const auto report0 = sharded.wait_epoch(epoch0);
    sharded.wait_epoch(epoch1);

    FcmFramework serial0(sweep_options());
    serial0.process_batch(all.subspan(0, half));
    FcmFramework serial1(sweep_options());
    serial1.process_batch(all.subspan(half));

    const FcmFramework merged0 = sharded.merged_epoch(1);
    const FcmFramework merged1 = sharded.merged_epoch(0);
    EXPECT_EQ(merged0.sweep_linear().zero_bits(),
              serial0.sweep_linear().zero_bits())
        << "shards=" << shards;
    EXPECT_EQ(merged0.sweep_hll().estimate(), serial0.sweep_hll().estimate());
    EXPECT_EQ(merged1.sweep_linear().zero_bits(),
              serial1.sweep_linear().zero_bits());
    EXPECT_EQ(merged1.sweep_hll().estimate(), serial1.sweep_hll().estimate());
    // The report surfaces the HLL sidecar estimate directly.
    EXPECT_EQ(report0.sweep_cardinality, serial0.sweep_hll().estimate());
    expect_trees_identical(merged0.sketch(), serial0.sketch());
    sharded.stop();
  }
}

TEST(SinglePassSweep, ShardedByteModeReportsBytes) {
  // Byte accounting folded into the worker's block-apply sweep: the epoch
  // report's bytes equal the exact sum of ingested packet sizes.
  ShardedFcmFramework::Options options;
  options.framework = sweep_options();
  options.framework.count_mode = FcmFramework::CountMode::kBytes;
  options.metrics = nullptr;
  options.shard_count = 2;
  ShardedFcmFramework sharded(options);

  const auto keys = skewed_keys(3000, 151, 400);
  std::mt19937_64 rng(152);
  std::vector<Packet> packets;
  std::uint64_t total_bytes = 0;
  packets.reserve(keys.size());
  for (const FlowKey key : keys) {
    const auto bytes = static_cast<std::uint32_t>(40 + rng() % 1460);
    packets.push_back({key, bytes, 0});
    total_bytes += bytes;
  }
  sharded.ingest(std::span<const Packet>(packets));
  const auto report = sharded.wait_epoch(sharded.rotate_async());
  EXPECT_EQ(report.bytes, total_bytes);
  EXPECT_EQ(report.packets, packets.size());
}

TEST(BatchEquivalence, ShardedAdaptiveFlushStillBitExact) {
  // A 1ns deadline forces a partial-block publish at EVERY ingest call — the
  // maximally adversarial flush schedule. Early publication must be a pure
  // latency change: merged state identical to the batch-only run and to
  // serial.
  const auto keys = skewed_keys(5000, 321, 900);
  ShardedFcmFramework::Options options;
  options.framework.fcm = small_config();
  options.framework.metrics = nullptr;
  options.metrics = nullptr;
  options.shard_count = 4;
  options.flush_interval = std::chrono::nanoseconds(1);
  ShardedFcmFramework sharded(options);

  std::span<const FlowKey> rest(keys);
  while (!rest.empty()) {
    const std::size_t n = std::min<std::size_t>(17, rest.size());
    sharded.ingest(rest.subspan(0, n));
    rest = rest.subspan(n);
  }
  sharded.rotate();

  FcmFramework::Options serial_options = options.framework;
  FcmFramework serial(serial_options);
  serial.process_batch(std::span<const FlowKey>(keys));
  expect_trees_identical(serial.sketch(), sharded.merged_epoch(0).sketch());
}

}  // namespace
