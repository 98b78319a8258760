// Wire-format suite (DESIGN.md §11): round-trips for every sketch type,
// the hostile-input battery for the deserializers, and seeded property
// tests (tests/property_harness.h) pinning that serialize→deserialize→
// merge() is bit-exact with the all-in-memory merge for N∈{1,2,4,8}
// vantage points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "agg/wire.h"
#include "common/contracts.h"
#include "fcm/fcm_sketch.h"
#include "fcm/fcm_topk.h"
#include "flow/flow_key.h"
#include "framework/fcm_framework.h"
#include "property_harness.h"
#include "sketch/cardinality.h"
#include "sketch/cm_sketch.h"
#include "sketch/topk_filter.h"

namespace fcm {
namespace {

using agg::WireCodec;
using agg::WireHeader;
using agg::WireType;
using common::ContractViolation;
using proptest::random_keys;
using proptest::small_fcm_config;

constexpr std::uint64_t kSeed = 0xfca9;
constexpr std::size_t kTraceLength = 20'000;
constexpr std::uint32_t kUniverse = 1'500;

framework::FcmFramework::Options plain_options(std::uint64_t seed = kSeed) {
  framework::FcmFramework::Options options;
  options.fcm = small_fcm_config(seed);
  options.heavy_hitter_threshold = 64;
  options.metrics = nullptr;
  return options;
}

framework::FcmFramework::Options topk_options(std::uint64_t seed = kSeed) {
  framework::FcmFramework::Options options = plain_options(seed);
  options.topk_entries = 64;
  return options;
}

// --- round-trips ------------------------------------------------------------

TEST(WireRoundTrip, FcmTreeIsBitExact) {
  core::FcmTree tree(small_fcm_config(kSeed), common::make_hash(kSeed, 0));
  for (const flow::FlowKey key : random_keys(kSeed, kTraceLength, kUniverse)) {
    tree.add(key);
  }
  const std::vector<std::byte> wire = WireCodec::serialize(tree);
  const core::FcmTree restored = WireCodec::deserialize_tree(wire);
  restored.check_invariants();
  for (std::uint32_t id = 0; id < kUniverse; ++id) {
    const flow::FlowKey key{id};
    ASSERT_EQ(tree.query(key), restored.query(key)) << "key " << id;
  }
  EXPECT_EQ(tree.overflow_promotion_count(),
            restored.overflow_promotion_count());
  // Canonical encoding: re-serializing the restored object reproduces the
  // exact bytes.
  EXPECT_EQ(wire, WireCodec::serialize(restored));
}

TEST(WireRoundTrip, FcmSketchIsBitExact) {
  core::FcmSketch sketch(small_fcm_config(kSeed));
  sketch.set_heavy_hitter_threshold(64);
  for (const flow::FlowKey key : random_keys(kSeed, kTraceLength, kUniverse)) {
    sketch.update(key);
  }
  const std::vector<std::byte> wire = WireCodec::serialize(sketch);
  const core::FcmSketch restored = WireCodec::deserialize_sketch(wire);
  restored.check_invariants();
  for (std::uint32_t id = 0; id < kUniverse; ++id) {
    const flow::FlowKey key{id};
    ASSERT_EQ(sketch.query(key), restored.query(key)) << "key " << id;
  }
  EXPECT_EQ(sketch.estimate_cardinality(), restored.estimate_cardinality());
  EXPECT_EQ(sketch.heavy_hitters(), restored.heavy_hitters());
  EXPECT_EQ(wire, WireCodec::serialize(restored));
}

TEST(WireRoundTrip, CmAndCuSketchAreBitExact) {
  sketch::CmSketch cm(3, 4096, kSeed);
  sketch::CuSketch cu(3, 4096, kSeed);
  for (const flow::FlowKey key : random_keys(kSeed, kTraceLength, kUniverse)) {
    cm.update(key);
    cu.update(key);
  }
  const auto cm_wire = WireCodec::serialize(cm);
  const auto cu_wire = WireCodec::serialize(cu);
  // The two subclasses get distinct type tags from the same overload.
  EXPECT_EQ(WireCodec::peek(cm_wire).type, WireType::kCmSketch);
  EXPECT_EQ(WireCodec::peek(cu_wire).type, WireType::kCuSketch);
  const sketch::CmSketch restored_cm = WireCodec::deserialize_cm(cm_wire);
  const sketch::CuSketch restored_cu = WireCodec::deserialize_cu(cu_wire);
  restored_cm.check_invariants();
  restored_cu.check_invariants();
  for (std::uint32_t id = 0; id < kUniverse; ++id) {
    const flow::FlowKey key{id};
    ASSERT_EQ(cm.query(key), restored_cm.query(key)) << "key " << id;
    ASSERT_EQ(cu.query(key), restored_cu.query(key)) << "key " << id;
  }
  EXPECT_EQ(cm_wire, WireCodec::serialize(restored_cm));
  EXPECT_EQ(cu_wire, WireCodec::serialize(restored_cu));
}

TEST(WireRoundTrip, TopKFilterIsBitExact) {
  sketch::TopKFilter filter(64, 8, kSeed);
  for (const flow::FlowKey key : random_keys(kSeed, kTraceLength, kUniverse)) {
    (void)filter.offer(key);
  }
  const auto wire = WireCodec::serialize(filter);
  const sketch::TopKFilter restored = WireCodec::deserialize_topk_filter(wire);
  restored.check_invariants();
  for (std::uint32_t id = 0; id < kUniverse; ++id) {
    const flow::FlowKey key{id};
    const auto a = filter.query(key);
    const auto b = restored.query(key);
    ASSERT_EQ(a.has_value(), b.has_value()) << "key " << id;
    if (a.has_value()) {
      EXPECT_EQ(a->count, b->count);
      EXPECT_EQ(a->has_light_part, b->has_light_part);
    }
  }
  EXPECT_EQ(wire, WireCodec::serialize(restored));
}

TEST(WireRoundTrip, FcmTopKIsBitExact) {
  core::FcmTopK topk(proptest::small_topk_config(kSeed));
  topk.set_heavy_hitter_threshold(64);
  for (const flow::FlowKey key : random_keys(kSeed, kTraceLength, kUniverse)) {
    topk.update(key);
  }
  const auto wire = WireCodec::serialize(topk);
  const core::FcmTopK restored = WireCodec::deserialize_fcm_topk(wire);
  restored.check_invariants();
  for (std::uint32_t id = 0; id < kUniverse; ++id) {
    const flow::FlowKey key{id};
    ASSERT_EQ(topk.query(key), restored.query(key)) << "key " << id;
  }
  EXPECT_EQ(topk.topk_flows(), restored.topk_flows());
  EXPECT_EQ(topk.estimate_cardinality(), restored.estimate_cardinality());
  EXPECT_EQ(wire, WireCodec::serialize(restored));
}

TEST(WireRoundTrip, CardinalityRegistersAreBitExact) {
  sketch::LinearCounting lc(4096, kSeed);
  sketch::HyperLogLog hll(1024, kSeed);
  for (const flow::FlowKey key : random_keys(kSeed, kTraceLength, kUniverse)) {
    lc.update(key);
    hll.update(key);
  }
  const auto lc_wire = WireCodec::serialize(lc);
  const auto hll_wire = WireCodec::serialize(hll);
  const sketch::LinearCounting restored_lc =
      WireCodec::deserialize_linear_counting(lc_wire);
  const sketch::HyperLogLog restored_hll =
      WireCodec::deserialize_hll(hll_wire);
  EXPECT_EQ(lc.zero_bits(), restored_lc.zero_bits());
  EXPECT_EQ(lc.estimate(), restored_lc.estimate());
  EXPECT_EQ(hll.estimate(), restored_hll.estimate());
  EXPECT_EQ(lc_wire, WireCodec::serialize(restored_lc));
  EXPECT_EQ(hll_wire, WireCodec::serialize(restored_hll));
}

TEST(WireRoundTrip, FrameworkPlainAndTopKAreBitExact) {
  for (const auto& options : {plain_options(), topk_options()}) {
    framework::FcmFramework fw(options);
    for (const flow::FlowKey key :
         random_keys(kSeed, kTraceLength, kUniverse)) {
      fw.process(key);
    }
    const auto wire = WireCodec::serialize(fw);
    const framework::FcmFramework restored =
        WireCodec::deserialize_framework(wire, nullptr);
    restored.check_invariants();
    for (std::uint32_t id = 0; id < kUniverse; ++id) {
      const flow::FlowKey key{id};
      ASSERT_EQ(fw.flow_size(key), restored.flow_size(key))
          << "key " << id << " topk=" << options.topk_entries;
    }
    EXPECT_EQ(fw.cardinality(), restored.cardinality());
    // analyze() parity: same state + same EM config => identical report.
    const auto a = fw.analyze();
    const auto b = restored.analyze();
    EXPECT_EQ(a.entropy, b.entropy);
    EXPECT_EQ(a.estimated_flows, b.estimated_flows);
    EXPECT_EQ(a.cardinality, b.cardinality);
    EXPECT_EQ(wire, WireCodec::serialize(restored));
  }
}

TEST(WireRoundTrip, EmptyObjectsRoundTrip) {
  const core::FcmSketch sketch(small_fcm_config(kSeed));
  const core::FcmSketch restored =
      WireCodec::deserialize_sketch(WireCodec::serialize(sketch));
  EXPECT_EQ(restored.query(flow::FlowKey{7}), 0u);
  const sketch::TopKFilter filter(8);
  (void)WireCodec::deserialize_topk_filter(WireCodec::serialize(filter));
  const framework::FcmFramework fw(plain_options());
  (void)WireCodec::deserialize_framework(WireCodec::serialize(fw), nullptr);
}

// --- golden bytes -----------------------------------------------------------

// The encoded bytes themselves are pinned, not only their round-trip: each
// fixed-seed input below must serialize to a frame with exactly this length
// and this 64-bit digest (WireCodec::fingerprint_bytes over the whole frame).
// A codec rewrite that changes any byte — endianness, element width, field
// order, padding — fails here even if it still round-trips through its own
// decoder. The digests were recorded with the per-byte codec that preceded
// the bulk one. The tree, sketch and plain-framework inputs carry a jumbo
// flow so every stage width (1-, 2- and 4-byte elements) holds non-trivial
// values, overflow markers included.
struct GoldenFrame {
  const char* name;
  std::vector<std::byte> wire;
  std::size_t bytes;
  std::uint64_t digest;
};

TEST(WireGolden, SerializedBytesArePinned) {
  const std::vector<flow::FlowKey> keys =
      random_keys(kSeed, kTraceLength, kUniverse);
  const flow::FlowKey jumbo{0x0a0a0a0a};
  constexpr std::uint64_t kJumbo = 70'000;  // overflows the 16-bit stage

  core::FcmTree tree(small_fcm_config(kSeed), common::make_hash(kSeed, 0));
  core::FcmSketch sketch(small_fcm_config(kSeed));
  sketch.set_heavy_hitter_threshold(64);
  core::FcmTopK topk(proptest::small_topk_config(kSeed));
  topk.set_heavy_hitter_threshold(64);
  sketch::CmSketch cm(3, 4096, kSeed);
  sketch::CuSketch cu(3, 4096, kSeed);
  sketch::TopKFilter filter(64, 8, kSeed);
  sketch::LinearCounting lc(4093, kSeed);  // not a multiple of 8: pad bits
  sketch::HyperLogLog hll(1024, kSeed);
  framework::FcmFramework plain(plain_options());
  framework::FcmFramework with_topk(topk_options());
  for (const flow::FlowKey key : keys) {
    tree.add(key);
    sketch.update(key);
    topk.update(key);
    cm.update(key);
    cu.update(key);
    (void)filter.offer(key);
    lc.update(key);
    hll.update(key);
    plain.process(key);
    with_topk.process(key);
  }
  tree.add(jumbo, kJumbo);
  sketch.add(jumbo, kJumbo);
  plain.process_weighted(jumbo, kJumbo);

  const GoldenFrame golden[] = {
      {"FcmTree", WireCodec::serialize(tree),
       5440, 0x2836a7bfd7268db8ull},
      {"FcmSketch", WireCodec::serialize(sketch),
       10965, 0x063fccf727f24e0dull},
      {"FcmTopK", WireCodec::serialize(topk),
       11733, 0x8d26d38aca9e0ac5ull},
      {"CmSketch", WireCodec::serialize(cm),
       49208, 0x1fe61a51fb3f206full},
      {"CuSketch", WireCodec::serialize(cu),
       49208, 0xee81697108ec638bull},
      {"TopKFilter", WireCodec::serialize(filter),
       872, 0x48e648f65593bf7dull},
      {"LinearCounting", WireCodec::serialize(lc),
       548, 0x15ed38f6a92bfd04ull},
      {"HyperLogLog", WireCodec::serialize(hll),
       1053, 0xa70b06db228ae82aull},
      {"FcmFramework(plain)", WireCodec::serialize(plain),
       11047, 0x1eae0495ddd1764dull},
      {"FcmFramework(topk)", WireCodec::serialize(with_topk),
       11815, 0x845d6e13c74ea58dull},
  };
  for (const GoldenFrame& frame : golden) {
    EXPECT_EQ(frame.wire.size(), frame.bytes) << frame.name;
    EXPECT_EQ(WireCodec::fingerprint_bytes(frame.wire), frame.digest)
        << frame.name << std::hex << " digest 0x"
        << WireCodec::fingerprint_bytes(frame.wire);
  }
}

// Frames of every stage storage width (see storage_width_configs), pinned
// the same way. The digests were recorded with the encoder that held every
// stage as 32-bit words in memory, so they also pin that storing stages at
// their register width left the frame bytes unchanged.
struct WidthFixture {
  core::FcmTree tree;
  framework::FcmFramework framework;
};

WidthFixture width_fixture(const core::FcmConfig& config) {
  framework::FcmFramework::Options options;
  options.fcm = config;
  options.heavy_hitter_threshold = 64;
  options.metrics = nullptr;
  WidthFixture fixture{core::FcmTree(config, common::make_hash(kSeed, 0)),
                       framework::FcmFramework(options)};
  for (const flow::FlowKey key : random_keys(kSeed, kTraceLength, kUniverse)) {
    fixture.tree.add(key);
    fixture.framework.process(key);
  }
  // Overflows level 1 and level 2 on one path.
  const flow::FlowKey jumbo{0x0a0a0a0a};
  const std::uint64_t big =
      config.counting_max(1) + config.counting_max(2) + 1000;
  fixture.tree.add(jumbo, big);
  fixture.framework.process_weighted(jumbo, big);
  return fixture;
}

TEST(WireGolden, EveryStorageWidthIsPinned) {
  struct Pinned {
    std::size_t tree_bytes;
    std::uint64_t tree_digest;
    std::size_t framework_bytes;
    std::uint64_t framework_digest;
  };
  const Pinned pinned[] = {
      {1856, 0x2cea14ad17a0753cull, 3919, 0xb72b854bfe7e9b5eull},
      {1856, 0x98582506385cae27ull, 3919, 0x53b58459f5434de7ull},
      {3135, 0x1fb89b52fa67c5beull, 6477, 0x7fb647e780053836ull},
      {5183, 0xdde6b497fb5541c3ull, 10573, 0x291a11c42d7fa367ull},
  };
  const auto configs = proptest::storage_width_configs(kSeed);
  ASSERT_EQ(configs.size(), std::size(pinned));
  for (std::size_t c = 0; c < configs.size(); ++c) {
    SCOPED_TRACE(proptest::stage_bits_label(configs[c]));
    const WidthFixture fixture = width_fixture(configs[c]);
    const std::vector<std::byte> tree = WireCodec::serialize(fixture.tree);
    const std::vector<std::byte> fw = WireCodec::serialize(fixture.framework);
    EXPECT_EQ(tree.size(), pinned[c].tree_bytes);
    EXPECT_EQ(WireCodec::fingerprint_bytes(tree), pinned[c].tree_digest);
    EXPECT_EQ(fw.size(), pinned[c].framework_bytes);
    EXPECT_EQ(WireCodec::fingerprint_bytes(fw), pinned[c].framework_digest);
  }
}

TEST(WireRoundTrip, EveryStorageWidthIsBitExact) {
  for (const core::FcmConfig& config : proptest::storage_width_configs(kSeed)) {
    SCOPED_TRACE(proptest::stage_bits_label(config));
    const WidthFixture fixture = width_fixture(config);
    ASSERT_GT(fixture.tree.overflow_promotion_count(), 0u);

    const std::vector<std::byte> tree_wire = WireCodec::serialize(fixture.tree);
    const core::FcmTree tree = WireCodec::deserialize_tree(tree_wire);
    for (std::size_t l = 1; l <= config.stage_count(); ++l) {
      EXPECT_TRUE(std::ranges::equal(tree.stage(l), fixture.tree.stage(l)))
          << "stage " << l;
    }
    EXPECT_EQ(tree.overflow_promotion_count(),
              fixture.tree.overflow_promotion_count());
    EXPECT_EQ(WireCodec::serialize(tree), tree_wire);

    const std::vector<std::byte> fw_wire =
        WireCodec::serialize(fixture.framework);
    const framework::FcmFramework fw =
        WireCodec::deserialize_framework(fw_wire, nullptr);
    for (std::uint32_t id = 0; id < kUniverse; ++id) {
      ASSERT_EQ(fw.flow_size(flow::FlowKey{id}),
                fixture.framework.flow_size(flow::FlowKey{id}))
          << "key " << id;
    }
    EXPECT_EQ(fw.cardinality(), fixture.framework.cardinality());
    EXPECT_EQ(WireCodec::serialize(fw), fw_wire);
  }
}

// --- header / fingerprint semantics ----------------------------------------

TEST(WireHeaderTest, PeekReportsTypeVersionFingerprint) {
  const framework::FcmFramework fw(plain_options());
  const auto wire = WireCodec::serialize(fw);
  const WireHeader header = WireCodec::peek(wire);
  EXPECT_EQ(header.version, agg::kWireVersion);
  EXPECT_EQ(header.type, WireType::kFcmFramework);
  EXPECT_EQ(header.fingerprint, WireCodec::merge_fingerprint(fw.options()));
  EXPECT_EQ(header.payload_bytes, wire.size() - 24);
}

TEST(WireHeaderTest, FingerprintTracksMergeCompatibilityOnly) {
  const auto base = plain_options();
  const std::uint64_t fp = WireCodec::merge_fingerprint(base);

  // Local analysis policy must not change the fingerprint...
  auto em_tweaked = base;
  em_tweaked.em.max_iterations = 3;
  em_tweaked.em.thread_count = 4;
  em_tweaked.metrics = nullptr;
  EXPECT_EQ(fp, WireCodec::merge_fingerprint(em_tweaked));

  // ...but every merge-precondition field must.
  auto seed_changed = base;
  seed_changed.fcm.seed ^= 1;
  EXPECT_NE(fp, WireCodec::merge_fingerprint(seed_changed));
  auto geometry_changed = base;
  geometry_changed.fcm.leaf_count *= 2;
  EXPECT_NE(fp, WireCodec::merge_fingerprint(geometry_changed));
  auto threshold_changed = base;
  threshold_changed.heavy_hitter_threshold += 1;
  EXPECT_NE(fp, WireCodec::merge_fingerprint(threshold_changed));
  auto mode_changed = base;
  mode_changed.count_mode = framework::FcmFramework::CountMode::kBytes;
  EXPECT_NE(fp, WireCodec::merge_fingerprint(mode_changed));
  EXPECT_NE(fp, WireCodec::merge_fingerprint(topk_options()));
}

TEST(WireHeaderTest, TypeTagsAreEnforcedAcrossDeserializers) {
  const core::FcmSketch sketch(small_fcm_config(kSeed));
  const auto wire = WireCodec::serialize(sketch);
  EXPECT_THROW((void)WireCodec::deserialize_tree(wire), ContractViolation);
  EXPECT_THROW((void)WireCodec::deserialize_cm(wire), ContractViolation);
  EXPECT_THROW((void)WireCodec::deserialize_framework(wire, nullptr),
               ContractViolation);
  // CM wire is not CU wire: the conservative-update subclass has different
  // merge semantics, so the tags must not alias.
  const sketch::CmSketch cm(2, 64);
  EXPECT_THROW((void)WireCodec::deserialize_cu(WireCodec::serialize(cm)),
               ContractViolation);
}

// --- hostile inputs ---------------------------------------------------------

// Every strict prefix must throw: the header pins the exact payload length,
// so truncation at ANY byte is detectable (and must never read past the
// end — the ASan job enforces the "never UB" half).
TEST(WireHostile, EveryTruncationThrows) {
  core::FcmSketch sketch(small_fcm_config(kSeed));
  sketch.set_heavy_hitter_threshold(8);
  for (const flow::FlowKey key : random_keys(kSeed, 2'000, 200)) {
    sketch.update(key);
  }
  const auto wire = WireCodec::serialize(sketch);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const std::vector<std::byte> prefix(wire.begin(),
                                        wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)WireCodec::deserialize_sketch(prefix),
                 ContractViolation)
        << "prefix length " << len;
  }
}

TEST(WireHostile, HeaderCorruptionsThrow) {
  const core::FcmSketch sketch(small_fcm_config(kSeed));
  const auto wire = WireCodec::serialize(sketch);
  // Wrong magic, flipped version byte, non-zero reserved byte, unknown type
  // tag, fingerprint flip, and payload-length flip: every header byte is
  // load-bearing, so flipping ANY of the 24 must throw.
  for (std::size_t i = 0; i < 24; ++i) {
    auto corrupt = wire;
    corrupt[i] ^= std::byte{0x40};
    EXPECT_THROW((void)WireCodec::deserialize_sketch(corrupt),
                 ContractViolation)
        << "header byte " << i;
  }
}

// A flipped bit anywhere in the payload must either throw or produce an
// object that still passes its deep invariants — never UB, never a
// structurally broken sketch (fuzz-lite, same posture as test_trace_io).
// The invariant check runs outside the decode's try block, so a decoder
// that stopped sweeping would hand back a broken object and fail here.
template <typename Decode>
std::size_t expect_flips_rejected_or_sound(const std::vector<std::byte>& wire,
                                           Decode decode) {
  std::size_t rejected = 0;
  for (std::size_t i = 24; i < wire.size(); ++i) {
    auto corrupt = wire;
    corrupt[i] ^= std::byte{0x01};
    std::optional<decltype(decode(corrupt))> restored;
    try {
      restored.emplace(decode(corrupt));
    } catch (const ContractViolation&) {
      ++rejected;
      continue;
    }
    EXPECT_NO_THROW(restored->check_invariants()) << "payload byte " << i;
  }
  return rejected;
}

TEST(WireHostile, PayloadBitFlipsNeverBreakInvariants) {
  core::FcmSketch sketch(small_fcm_config(kSeed));
  sketch.set_heavy_hitter_threshold(8);
  framework::FcmFramework fw(plain_options());
  for (const flow::FlowKey key : random_keys(kSeed, 2'000, 200)) {
    sketch.update(key);
    fw.process(key);
  }
  // The config section, seeds, markers and count fields must all reject;
  // only flips inside plain counter values can legitimately decode.
  EXPECT_GT(expect_flips_rejected_or_sound(
                WireCodec::serialize(sketch),
                [](std::span<const std::byte> b) {
                  return WireCodec::deserialize_sketch(b);
                }),
            0u);
  EXPECT_GT(expect_flips_rejected_or_sound(
                WireCodec::serialize(fw),
                [](std::span<const std::byte> b) {
                  return WireCodec::deserialize_framework(b, nullptr);
                }),
            0u);
}

// Frames whose every value is in range but whose trees break the overflow
// invariant (Figure 3) pass every field-level check; only the deep sweep,
// which runs once per top-level decode, can reject them. Each top-level
// entry point must still run it.
std::size_t stage_offset(std::size_t tree0_offset,
                         const core::FcmConfig& config, std::size_t stage) {
  std::size_t offset = tree0_offset + 4 + 8;  // hash seed + promotions
  for (std::size_t l = 1; l < stage; ++l) {
    offset += config.width(l) * config.stage_bytes(l);
  }
  return offset;
}

TEST(WireHostile, InvariantBreakingFramesThrowFromEveryEntryPoint) {
  const core::FcmConfig config = small_fcm_config(kSeed);
  ASSERT_EQ(config.stage_bits, (std::vector<unsigned>{8, 16, 32}));
  const std::size_t config_bytes = 4 + 4 + 8 + 8 + 1 + config.stage_count();
  // Frame header, then the payload up to tree 0 of the (first) sketch body.
  const std::size_t sketch_tree0 = 24 + config_bytes;
  const std::size_t framework_tree0 =
      24 + 1 + config_bytes + 8 + 8 + 1 + 4 * 8 + 4 + config_bytes;

  struct Entry {
    const char* name;
    std::vector<std::byte> wire;
    std::size_t tree0;
    std::function<void(std::span<const std::byte>)> decode;
  };
  const Entry entries[] = {
      {"deserialize_tree",
       WireCodec::serialize(core::FcmTree(config, common::make_hash(kSeed, 0))),
       sketch_tree0,
       [](std::span<const std::byte> b) {
         (void)WireCodec::deserialize_tree(b);
       }},
      {"deserialize_sketch", WireCodec::serialize(core::FcmSketch(config)),
       sketch_tree0,
       [](std::span<const std::byte> b) {
         (void)WireCodec::deserialize_sketch(b);
       }},
      {"deserialize_fcm_topk",
       WireCodec::serialize(core::FcmTopK(proptest::small_topk_config(kSeed))),
       sketch_tree0,
       [](std::span<const std::byte> b) {
         (void)WireCodec::deserialize_fcm_topk(b);
       }},
      {"deserialize_framework",
       WireCodec::serialize(framework::FcmFramework(plain_options())),
       framework_tree0,
       [](std::span<const std::byte> b) {
         (void)WireCodec::deserialize_framework(b, nullptr);
       }},
  };
  for (const Entry& entry : entries) {
    SCOPED_TRACE(entry.name);
    ASSERT_NO_THROW(entry.decode(entry.wire));  // the untouched frame is sound
    const std::size_t leaf = stage_offset(entry.tree0, config, 1);
    const std::size_t parent = stage_offset(entry.tree0, config, 2);
    ASSERT_EQ(entry.wire[leaf], std::byte{0});
    ASSERT_EQ(entry.wire[parent], std::byte{0});

    // An overflowed leaf (the 8-bit marker 0xff) under a zero parent.
    auto orphan_overflow = entry.wire;
    orphan_overflow[leaf] = std::byte{0xff};
    // A parent holding a count (16-bit 1) with no overflowed child.
    auto orphan_count = entry.wire;
    orphan_count[parent] = std::byte{0x01};
    for (const auto& forged : {orphan_overflow, orphan_count}) {
      try {
        entry.decode(forged);
        ADD_FAILURE() << "forged frame decoded without a violation";
      } catch (const ContractViolation& violation) {
        EXPECT_NE(std::string(violation.what()).find("FcmTree:"),
                  std::string::npos)
            << violation.what();
      }
    }
  }
}

// A 6-bit stage is stored in bytes, so a frame can carry 64..255 in one of
// its nodes: a value that fits the storage type but not the stage's bit
// width. The decode's range check must reject it from every entry point
// that reads a tree, before any invariant sweep.
TEST(WireHostile, ValueAboveMarkerInByteStageThrows) {
  core::FcmConfig config = proptest::storage_width_configs(kSeed)[0];
  ASSERT_EQ(config.stage_bits, (std::vector<unsigned>{6, 12, 24}));
  ASSERT_EQ(config.stage_bytes(1), 1u);
  const std::size_t config_bytes = 4 + 4 + 8 + 8 + 1 + config.stage_count();
  framework::FcmFramework::Options options;
  options.fcm = config;
  options.metrics = nullptr;

  struct Entry {
    const char* name;
    std::vector<std::byte> wire;
    std::size_t tree0;
    std::function<void(std::span<const std::byte>)> decode;
  };
  const Entry entries[] = {
      {"deserialize_tree",
       WireCodec::serialize(core::FcmTree(config, common::make_hash(kSeed, 0))),
       24 + config_bytes,
       [](std::span<const std::byte> b) {
         (void)WireCodec::deserialize_tree(b);
       }},
      {"deserialize_framework",
       WireCodec::serialize(framework::FcmFramework(options)),
       24 + 1 + config_bytes + 8 + 8 + 1 + 4 * 8 + 4 + config_bytes,
       [](std::span<const std::byte> b) {
         (void)WireCodec::deserialize_framework(b, nullptr);
       }},
  };
  for (const Entry& entry : entries) {
    SCOPED_TRACE(entry.name);
    ASSERT_NO_THROW(entry.decode(entry.wire));
    const std::size_t leaf = stage_offset(entry.tree0, config, 1) + 5;
    ASSERT_EQ(entry.wire[leaf], std::byte{0});
    for (const unsigned value : {64u, 200u, 255u}) {
      auto forged = entry.wire;
      forged[leaf] = static_cast<std::byte>(value);
      try {
        entry.decode(forged);
        ADD_FAILURE() << "value " << value << " decoded without a violation";
      } catch (const ContractViolation& violation) {
        EXPECT_NE(std::string(violation.what()).find("exceeds its stage bit"),
                  std::string::npos)
            << violation.what();
      }
    }
  }
}

// Oversized declared counts must be rejected BEFORE any allocation is
// sized from them (the require_payload discipline): a 100-byte buffer
// claiming 2^60 heavy hitters / bitmap bits / CM columns throws instead of
// reserving petabytes. If any of these ever allocated first, the test
// would OOM-kill the suite rather than pass.
TEST(WireHostile, OversizedDeclaredCountsThrowWithoutAllocating) {
  const auto patch_u64 = [](std::vector<std::byte> buf, std::size_t offset,
                            std::uint64_t value) {
    for (std::size_t i = 0; i < 8; ++i) {
      buf[offset + i] = static_cast<std::byte>((value >> (8 * i)) & 0xff);
    }
    return buf;
  };

  // FcmSketch: hh_count is the 16..8 bytes from the end (followed only by
  // the u64 cardinality-saturations field).
  core::FcmSketch sketch(small_fcm_config(kSeed));
  sketch.set_heavy_hitter_threshold(8);
  const auto sketch_wire = WireCodec::serialize(sketch);
  EXPECT_THROW((void)WireCodec::deserialize_sketch(patch_u64(
                   sketch_wire, sketch_wire.size() - 16, 1ull << 60)),
               ContractViolation);

  // FcmConfig leaf_count: payload offset 8 (after tree_count + k), i.e.
  // buffer offset 24 + 8. A giant tree would dwarf the buffer.
  EXPECT_THROW(
      (void)WireCodec::deserialize_sketch(patch_u64(sketch_wire, 32, 1ull << 40)),
      ContractViolation);

  // CmSketch: width is at payload offset 4 (after u32 depth).
  const sketch::CmSketch cm(2, 64);
  const auto cm_wire = WireCodec::serialize(cm);
  EXPECT_THROW(
      (void)WireCodec::deserialize_cm(patch_u64(cm_wire, 24 + 4, 1ull << 60)),
      ContractViolation);

  // LinearCounting: bit count at payload offset 4 (after u32 hash seed).
  const sketch::LinearCounting lc(512);
  const auto lc_wire = WireCodec::serialize(lc);
  EXPECT_THROW((void)WireCodec::deserialize_linear_counting(
                   patch_u64(lc_wire, 24 + 4, 1ull << 60)),
               ContractViolation);

  // TopKFilter: entry count at payload offset 8 (after seed + lambda).
  const sketch::TopKFilter filter(8);
  const auto filter_wire = WireCodec::serialize(filter);
  EXPECT_THROW((void)WireCodec::deserialize_topk_filter(
                   patch_u64(filter_wire, 24 + 8, 1ull << 60)),
               ContractViolation);
}

TEST(WireHostile, EmptyAndGarbageBuffersThrow) {
  EXPECT_THROW((void)WireCodec::peek({}), ContractViolation);
  std::vector<std::byte> garbage(64, std::byte{0xa5});
  EXPECT_THROW((void)WireCodec::peek(garbage), ContractViolation);
  EXPECT_THROW((void)WireCodec::deserialize_framework(garbage, nullptr),
               ContractViolation);
}

// --- round-trip + merge properties ------------------------------------------

// Bit-exact network-wide merge through the wire: split the trace across N
// vantage points, round-trip every replica through serialize/deserialize,
// merge the restored replicas, and compare every flow estimate (plus
// cardinality and heavy hitters) against merging the in-memory replicas.
proptest::Property wire_merge_bit_exact(std::size_t vantage_count,
                                        bool with_topk, std::uint64_t seed) {
  return [=](const std::vector<flow::FlowKey>& keys)
             -> std::optional<proptest::Counterexample> {
    const auto options = with_topk ? topk_options(seed) : plain_options(seed);
    std::vector<framework::FcmFramework> replicas(vantage_count,
                                                  framework::FcmFramework(options));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      replicas[i % vantage_count].process(keys[i]);
    }

    framework::FcmFramework in_memory(options);
    framework::FcmFramework via_wire(options);
    for (std::size_t v = 0; v < vantage_count; ++v) {
      in_memory.merge(replicas[v]);
      const framework::FcmFramework restored = WireCodec::deserialize_framework(
          WireCodec::serialize(replicas[v]), nullptr);
      via_wire.merge(restored);
    }

    for (const flow::FlowKey key : keys) {
      const std::uint64_t expected = in_memory.flow_size(key);
      const std::uint64_t estimate = via_wire.flow_size(key);
      if (estimate != expected) {
        return proptest::Counterexample{key, estimate, expected};
      }
    }
    if (in_memory.cardinality() != via_wire.cardinality()) {
      return proptest::Counterexample{flow::FlowKey{0}, 0, 1};
    }
    auto hh_a = in_memory.heavy_hitters();
    auto hh_b = via_wire.heavy_hitters();
    std::sort(hh_a.begin(), hh_a.end());
    std::sort(hh_b.begin(), hh_b.end());
    if (hh_a != hh_b) return proptest::Counterexample{flow::FlowKey{0}, 0, 2};
    return std::nullopt;
  };
}

class WireMergeProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(WireMergeProperty, PlainFrameworkBitExactAcrossVantages) {
  const auto [vantages, seed] = GetParam();
  proptest::expect_property(wire_merge_bit_exact(vantages, false, seed), seed,
                            12'000, kUniverse,
                            "wire round-trip + merge (plain FCM)");
}

TEST_P(WireMergeProperty, TopKFrameworkBitExactAcrossVantages) {
  const auto [vantages, seed] = GetParam();
  proptest::expect_property(wire_merge_bit_exact(vantages, true, seed), seed,
                            12'000, kUniverse,
                            "wire round-trip + merge (FCM+TopK)");
}

INSTANTIATE_TEST_SUITE_P(
    Vantages, WireMergeProperty,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}, std::size_t{8}),
                       ::testing::Values(7ull, 0xbeefull)));

}  // namespace
}  // namespace fcm
