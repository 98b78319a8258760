#include "agg/wire.h"

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <variant>

#include "common/hash.h"

namespace fcm::agg {
namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {'F', 'C', 'M', 'W'};
constexpr std::size_t kFrameHeaderBytes = 24;
constexpr std::uint64_t kFingerprintSalt = 0xfc3a'9617'57a9'e001ull;

// Sanity ceiling on tree_count for wire decodes: the paper uses 2, the
// ablation bench at most 4. Bounds the tree_count * per-tree-bytes product
// before any allocation, so a hostile count cannot overflow the arithmetic.
constexpr std::uint64_t kMaxWireTrees = 64;

// Bytes encode_config writes.
std::size_t config_bytes(const core::FcmConfig& config) {
  return 4 + 4 + 8 + 8 + 1 + config.stage_count();
}

// Bytes one tree's state section occupies: promotions + per-stage arrays,
// each at FcmConfig::stage_bytes per node (the width FcmTree stores).
std::uint64_t tree_state_bytes(const core::FcmConfig& config) {
  std::uint64_t total = 8;  // promotions
  for (std::size_t l = 1; l <= config.stage_count(); ++l) {
    total += static_cast<std::uint64_t>(config.width(l)) * config.stage_bytes(l);
  }
  return total;
}

// The counter-array loops, one instantiation per value type T (uint8_t,
// uint16_t or uint32_t), each value written as a sizeof(T)-byte
// little-endian integer through detail::store_le / load_le.
//
// put_uints encodes runs of kPutRun values into a local byte array and
// copies each run out whole: the local cannot alias the counters, so both
// loops vectorize; the tail is encoded value by value.
constexpr std::size_t kPutRun = 16;

template <typename T>
void put_uints(std::span<std::byte> out, std::span<const T> values) noexcept {
  constexpr std::size_t kWidth = sizeof(T);
  const std::size_t runs_end = values.size() - values.size() % kPutRun;
  for (std::size_t base = 0; base < runs_end; base += kPutRun) {
    std::array<std::byte, kPutRun * kWidth> run;
    for (std::size_t j = 0; j < kPutRun; ++j) {
      detail::store_le(std::span(run).subspan(j * kWidth, kWidth),
                       values[base + j], std::make_index_sequence<kWidth>{});
    }
    for (std::size_t j = 0; j < run.size(); ++j) {
      out[base * kWidth + j] = run[j];
    }
  }
  for (std::size_t i = runs_end; i < values.size(); ++i) {
    detail::store_le(out.subspan(i * kWidth, kWidth), values[i],
                     std::make_index_sequence<kWidth>{});
  }
}

// Returns the bitwise OR of the decoded values: for an all-ones bound
// 2^b - 1 (a stage's overflow marker), OR <= bound iff every value is, so
// one comparison range-checks the whole array. An OR reduction has no
// loop-carried compare, unlike a running max. Like put_uints, each run is
// decoded into a local first and copied out whole: stores into `values`
// could otherwise alias `in`, which would keep the decode from vectorizing.
template <typename T>
T get_uints(std::span<const std::byte> in, std::span<T> values) noexcept {
  constexpr std::size_t kWidth = sizeof(T);
  const auto get = [&](std::size_t i) {
    return detail::load_le<T>(in.subspan(i * kWidth, kWidth),
                              std::make_index_sequence<kWidth>{});
  };
  T any_bits = 0;
  const std::size_t runs_end = values.size() - values.size() % kPutRun;
  for (std::size_t base = 0; base < runs_end; base += kPutRun) {
    std::array<T, kPutRun> run;
    for (std::size_t j = 0; j < kPutRun; ++j) {
      run[j] = get(base + j);
      any_bits |= run[j];
    }
    for (std::size_t j = 0; j < kPutRun; ++j) values[base + j] = run[j];
  }
  for (std::size_t i = runs_end; i < values.size(); ++i) {
    values[i] = get(i);
    any_bits |= values[i];
  }
  return any_bits;
}

void require_valid_config(const core::FcmConfig& config) {
  try {
    config.validate();
  } catch (const std::invalid_argument& err) {
    // Re-raise through the contract machinery so hostile wire input always
    // surfaces as ContractViolation (never a bare invalid_argument whose
    // origin the caller cannot distinguish from a programming error).
    const std::string why = err.what();
    FCM_REQUIRE(false, "wire: invalid FcmConfig in buffer: " + why);
  }
}

}  // namespace

// --- bulk counter arrays ----------------------------------------------------

template <typename T>
void WireWriter::uints(std::span<const T> values) {
  put_uints(claim(values.size() * sizeof(T)), values);
}

template <typename T>
T WireReader::uints(std::span<T> out) {
  return get_uints(
      take(out.size() * sizeof(T), "wire: truncated buffer (counter array)"),
      out);
}

template void WireWriter::uints(std::span<const std::uint8_t>);
template void WireWriter::uints(std::span<const std::uint16_t>);
template void WireWriter::uints(std::span<const std::uint32_t>);
template std::uint8_t WireReader::uints(std::span<std::uint8_t>);
template std::uint16_t WireReader::uints(std::span<std::uint16_t>);
template std::uint32_t WireReader::uints(std::span<std::uint32_t>);

// --- fingerprints -----------------------------------------------------------

std::uint64_t WireCodec::fingerprint_bytes(std::span<const std::byte> bytes) {
  std::uint64_t h = kFingerprintSalt;
  for (const std::byte b : bytes) {
    h = common::mix64(h ^ std::to_integer<std::uint64_t>(b));
  }
  // One more round so trailing zero bytes still perturb the result.
  return common::mix64(h ^ bytes.size());
}

std::uint64_t WireCodec::fingerprint_config(const core::FcmConfig& config) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(WireType::kFcmSketch));
  encode_config(w, config);
  return fingerprint_bytes(w.bytes());
}

std::uint64_t WireCodec::fingerprint_tree(const core::FcmTree& tree) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(WireType::kFcmTree));
  encode_config(w, tree.config());
  w.u32(tree.hash().seed());
  return fingerprint_bytes(w.bytes());
}

std::uint64_t WireCodec::fingerprint_cm(const sketch::CmSketch& cm) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(cm.name() == "CU" ? WireType::kCuSketch
                                                   : WireType::kCmSketch));
  w.u32(static_cast<std::uint32_t>(cm.depth()));
  w.u64(cm.width());
  for (const common::SeededHash& hash : cm.hashes_) w.u32(hash.seed());
  return fingerprint_bytes(w.bytes());
}

std::uint64_t WireCodec::fingerprint_filter(const sketch::TopKFilter& filter) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(WireType::kTopKFilter));
  w.u32(filter.hash_.seed());
  w.u32(filter.lambda_);
  w.u64(filter.entry_count());
  return fingerprint_bytes(w.bytes());
}

std::uint64_t WireCodec::fingerprint_fcm_topk(const core::FcmTopK& topk) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(WireType::kFcmTopK));
  encode_config(w, topk.sketch().config());
  w.u64(fingerprint_filter(topk.filter()));
  return fingerprint_bytes(w.bytes());
}

std::uint64_t WireCodec::merge_fingerprint(
    const framework::FcmFramework::Options& options) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(WireType::kFcmFramework));
  encode_config(w, options.fcm);
  w.u64(options.topk_entries);
  w.u64(options.heavy_hitter_threshold);
  w.u8(static_cast<std::uint8_t>(options.count_mode));
  // The framework always builds its Top-K filter with the default eviction
  // lambda (FcmTopK::Config); 0 marks "no filter" so plain and filtered
  // deployments can never collide.
  w.u32(options.topk_entries > 0 ? core::FcmTopK::Config{}.eviction_lambda
                                 : 0u);
  return fingerprint_bytes(w.bytes());
}

// --- frame helpers ----------------------------------------------------------

WireWriter WireCodec::begin_frame(WireType type, std::uint64_t fingerprint,
                                  std::size_t payload_bytes) {
  WireWriter out(kFrameHeaderBytes + payload_bytes);
  for (const std::uint8_t m : kMagic) out.u8(m);
  out.u16(kWireVersion);
  out.u8(static_cast<std::uint8_t>(type));
  out.u8(0);  // reserved
  out.u64(fingerprint);
  out.u64(payload_bytes);
  return out;
}

WireHeader WireCodec::peek(std::span<const std::byte> buffer) {
  FCM_REQUIRE(buffer.size() >= kFrameHeaderBytes,
              "wire: buffer shorter than the frame header");
  WireReader in(buffer);
  for (const std::uint8_t expected : kMagic) {
    FCM_REQUIRE(in.u8() == expected, "wire: bad magic (not an FCMW buffer)");
  }
  WireHeader header;
  header.version = in.u16();
  FCM_REQUIRE(header.version == kWireVersion,
              "wire: unsupported wire version " +
                  std::to_string(header.version) + " (this build reads " +
                  std::to_string(kWireVersion) + ")");
  const std::uint8_t tag = in.u8();
  FCM_REQUIRE(tag >= static_cast<std::uint8_t>(WireType::kFcmTree) &&
                  tag <= static_cast<std::uint8_t>(WireType::kFcmFramework),
              "wire: unknown payload type tag " + std::to_string(tag));
  header.type = static_cast<WireType>(tag);
  FCM_REQUIRE(in.u8() == 0, "wire: reserved header byte is non-zero");
  header.fingerprint = in.u64();
  header.payload_bytes = in.u64();
  FCM_REQUIRE(header.payload_bytes == buffer.size() - kFrameHeaderBytes,
              "wire: declared payload length does not match the buffer "
              "(truncated or padded)");
  return header;
}

WireReader WireCodec::open(std::span<const std::byte> buffer, WireType expected,
                           std::uint64_t* fingerprint_out) {
  const WireHeader header = peek(buffer);
  FCM_REQUIRE(header.type == expected,
              "wire: payload type tag does not match the requested "
              "deserializer");
  *fingerprint_out = header.fingerprint;
  return WireReader(buffer.subspan(kFrameHeaderBytes));
}

// --- FcmConfig --------------------------------------------------------------

void WireCodec::encode_config(WireWriter& out, const core::FcmConfig& config) {
  out.u32(static_cast<std::uint32_t>(config.tree_count));
  out.u32(static_cast<std::uint32_t>(config.k));
  out.u64(config.leaf_count);
  out.u64(config.seed);
  out.u8(static_cast<std::uint8_t>(config.stage_count()));
  for (const unsigned bits : config.stage_bits) {
    out.u8(static_cast<std::uint8_t>(bits));
  }
}

core::FcmConfig WireCodec::decode_config(WireReader& in) {
  core::FcmConfig config;
  config.tree_count = in.u32();
  config.k = in.u32();
  config.leaf_count = in.u64();
  config.seed = in.u64();
  const std::uint8_t stage_count = in.u8();
  FCM_REQUIRE(stage_count >= 1 && stage_count <= 32,
              "wire: FcmConfig stage count out of range");
  config.stage_bits.clear();
  config.stage_bits.reserve(stage_count);
  for (std::uint8_t i = 0; i < stage_count; ++i) {
    const std::uint8_t bits = in.u8();
    FCM_REQUIRE(bits >= 1 && bits <= 32,
                "wire: FcmConfig stage bit width out of range");
    config.stage_bits.push_back(bits);
  }
  FCM_REQUIRE(config.tree_count >= 1 && config.tree_count <= kMaxWireTrees,
              "wire: FcmConfig tree count out of range");
  // Stage 1 alone needs >= leaf_count bytes of state, so any leaf_count
  // larger than the remaining payload is hostile; rejecting it here keeps
  // the per-stage byte arithmetic below overflow-free AND stops the tree
  // constructor from allocating gigabytes off a 30-byte buffer.
  FCM_REQUIRE(config.leaf_count <= in.remaining(),
              "wire: FcmConfig leaf count exceeds the bytes present");
  require_valid_config(config);
  return config;
}

// --- FcmTree ----------------------------------------------------------------

void WireCodec::encode_tree_state(WireWriter& out, const core::FcmTree& tree) {
  out.u64(tree.promotions_);
  // Each stage is held at its wire width (FcmConfig::stage_bytes), so its
  // counter section is a straight little-endian copy.
  for (const core::FcmTree::StageArray& stage : tree.stages_) {
    std::visit([&](const auto& nodes) { out.uints(std::span(nodes)); },
               stage);
  }
}

void WireCodec::decode_tree_state(WireReader& in, core::FcmTree& tree) {
  tree.promotions_ = in.u64();
  for (std::size_t l = 1; l <= tree.stages_.size(); ++l) {
    // The overflow marker 2^b - 1 is the largest storable value; it is all
    // ones, so the OR of the stage's values fits it iff every value does.
    // The storage type may hold more than b bits (a 6-bit stage is stored
    // in bytes), so the check is what keeps 64..255 out of such a stage.
    const std::uint64_t marker = tree.config().counting_max(l) + 1;
    const std::uint64_t any_bits = std::visit(
        [&](auto& nodes) -> std::uint64_t { return in.uints(std::span(nodes)); },
        tree.stages_[l - 1]);
    FCM_REQUIRE(any_bits <= marker,
                "wire: tree node value exceeds its stage bit width "
                "(corrupt or hostile buffer)");
  }
}

std::vector<std::byte> WireCodec::serialize(const core::FcmTree& tree) {
  const core::FcmConfig& config = tree.config();
  WireWriter out = begin_frame(
      WireType::kFcmTree, fingerprint_tree(tree),
      config_bytes(config) + 4 + tree_state_bytes(config));
  encode_config(out, config);
  out.u32(tree.hash().seed());
  encode_tree_state(out, tree);
  return out.take();
}

core::FcmTree WireCodec::deserialize_tree(std::span<const std::byte> buffer) {
  std::uint64_t fingerprint = 0;
  WireReader in = open(buffer, WireType::kFcmTree, &fingerprint);
  const core::FcmConfig config = decode_config(in);
  const std::uint32_t seed = in.u32();
  in.require_payload(tree_state_bytes(config), 1);
  core::FcmTree tree(config, common::SeededHash(seed));
  decode_tree_state(in, tree);
  FCM_REQUIRE(in.remaining() == 0, "wire: trailing bytes after FcmTree state");
  FCM_REQUIRE(fingerprint_tree(tree) == fingerprint,
              "wire: FcmTree config fingerprint mismatch");
  tree.check_invariants();
  return tree;
}

// --- FcmSketch --------------------------------------------------------------

std::size_t WireCodec::sketch_body_bytes(const core::FcmSketch& s) {
  return config_bytes(s.config_) +
         s.trees_.size() * (4 + tree_state_bytes(s.config_)) +
         1 + (s.hh_threshold_.has_value() ? 8 : 0) +  // threshold
         8 + 4 * s.heavy_hitters_.size() +              // heavy hitters
         8;                                             // saturations
}

void WireCodec::encode_sketch_body(WireWriter& out, const core::FcmSketch& s) {
  encode_config(out, s.config_);
  for (const core::FcmTree& tree : s.trees_) {
    out.u32(tree.hash().seed());
    encode_tree_state(out, tree);
  }
  out.u8(s.hh_threshold_.has_value() ? 1 : 0);
  if (s.hh_threshold_.has_value()) out.u64(*s.hh_threshold_);
  // Sorted for a canonical encoding (the in-memory set iterates in hash
  // order, which must not leak into the bytes).
  std::vector<std::uint32_t> hh;
  hh.reserve(s.heavy_hitters_.size());
  for (const flow::FlowKey key : s.heavy_hitters_) hh.push_back(key.value);
  std::sort(hh.begin(), hh.end());
  out.u64(hh.size());
  out.uints<std::uint32_t>(hh);
  out.u64(s.cardinality_saturations_);
}

core::FcmSketch WireCodec::decode_sketch_body(WireReader& in) {
  const core::FcmConfig config = decode_config(in);
  // Everything the trees will occupy must already be present; checked
  // before FcmSketch's constructor allocates the tree arrays.
  in.require_payload(
      config.tree_count,
      4 + tree_state_bytes(config));  // per tree: hash seed + state
  core::FcmSketch sketch(config);
  decode_sketch_state(in, sketch);
  return sketch;
}

void WireCodec::decode_sketch_state(WireReader& in, core::FcmSketch& sketch) {
  for (core::FcmTree& tree : sketch.trees_) {
    const std::uint32_t seed = in.u32();
    FCM_REQUIRE(seed == tree.hash().seed(),
                "wire: tree hash seed does not match the config-derived "
                "family (corrupt or hostile buffer)");
    decode_tree_state(in, tree);
  }
  const std::uint8_t has_threshold = in.u8();
  FCM_REQUIRE(has_threshold <= 1, "wire: boolean field out of range");
  sketch.hh_threshold_.reset();
  if (has_threshold == 1) {
    const std::uint64_t threshold = in.u64();
    FCM_REQUIRE(threshold > 0, "wire: zero heavy-hitter threshold recorded");
    sketch.hh_threshold_ = threshold;
  }
  const std::uint64_t hh_count = in.u64();
  in.require_payload(hh_count, 4);
  FCM_REQUIRE(hh_count == 0 || has_threshold == 1,
              "wire: heavy hitters recorded without a threshold");
  sketch.heavy_hitters_.clear();
  sketch.heavy_hitters_.reserve(hh_count);
  for (std::uint64_t i = 0; i < hh_count; ++i) {
    sketch.heavy_hitters_.insert(flow::FlowKey{in.u32()});
  }
  FCM_REQUIRE(sketch.heavy_hitters_.size() == hh_count,
              "wire: duplicate heavy-hitter keys in buffer");
  sketch.cardinality_saturations_ = in.u64();
}

std::vector<std::byte> WireCodec::serialize(const core::FcmSketch& sketch) {
  WireWriter fp;
  fp.u8(static_cast<std::uint8_t>(WireType::kFcmSketch));
  encode_config(fp, sketch.config());
  fp.u8(sketch.hh_threshold_.has_value() ? 1 : 0);
  fp.u64(sketch.hh_threshold_.value_or(0));
  WireWriter out = begin_frame(WireType::kFcmSketch,
                               fingerprint_bytes(fp.bytes()),
                               sketch_body_bytes(sketch));
  encode_sketch_body(out, sketch);
  return out.take();
}

core::FcmSketch WireCodec::deserialize_sketch(
    std::span<const std::byte> buffer) {
  std::uint64_t fingerprint = 0;
  WireReader in = open(buffer, WireType::kFcmSketch, &fingerprint);
  core::FcmSketch sketch = decode_sketch_body(in);
  FCM_REQUIRE(in.remaining() == 0,
              "wire: trailing bytes after FcmSketch state");
  WireWriter fp;
  fp.u8(static_cast<std::uint8_t>(WireType::kFcmSketch));
  encode_config(fp, sketch.config());
  fp.u8(sketch.hh_threshold_.has_value() ? 1 : 0);
  fp.u64(sketch.hh_threshold_.value_or(0));
  FCM_REQUIRE(fingerprint_bytes(fp.bytes()) == fingerprint,
              "wire: FcmSketch config fingerprint mismatch");
  sketch.check_invariants();
  return sketch;
}

// --- CmSketch / CuSketch ----------------------------------------------------

void WireCodec::encode_cm_body(WireWriter& out, const sketch::CmSketch& cm) {
  out.u32(static_cast<std::uint32_t>(cm.depth()));
  out.u64(cm.width());
  for (const common::SeededHash& hash : cm.hashes_) out.u32(hash.seed());
  out.u64(cm.saturations_);
  for (const std::vector<std::uint32_t>& row : cm.rows_) {
    out.uints<std::uint32_t>(row);
  }
}

void WireCodec::decode_cm_body(WireReader& in, sketch::CmSketch& cm) {
  // Geometry was decoded and bounded by the caller (which constructed `cm`);
  // here the seeds/saturations/counters stream straight into it.
  for (common::SeededHash& hash : cm.hashes_) {
    hash = common::SeededHash(in.u32());
  }
  cm.saturations_ = in.u64();
  for (std::vector<std::uint32_t>& row : cm.rows_) {
    // Every u32 is a valid counter, so the OR goes unchecked.
    static_cast<void>(in.uints<std::uint32_t>(row));
  }
  cm.check_invariants();
}

std::vector<std::byte> WireCodec::serialize(const sketch::CmSketch& cm) {
  const WireType type =
      cm.name() == "CU" ? WireType::kCuSketch : WireType::kCmSketch;
  const std::size_t depth = cm.depth();
  WireWriter out = begin_frame(
      type, fingerprint_cm(cm),
      4 + 8 + 4 * depth + 8 + 4 * depth * cm.width());
  encode_cm_body(out, cm);
  return out.take();
}

namespace {

// Shared CM/CU geometry decode: bounds depth/width against the payload
// before the sketch constructor allocates depth*width counters.
struct CmGeometry {
  std::size_t depth = 0;
  std::size_t width = 0;
};

CmGeometry decode_cm_geometry(WireReader& in) {
  CmGeometry geometry;
  geometry.depth = in.u32();
  FCM_REQUIRE(geometry.depth >= 1 && geometry.depth <= 64,
              "wire: CM depth out of range");
  const std::uint64_t width = in.u64();
  FCM_REQUIRE(width >= 1, "wire: CM width must be positive");
  FCM_REQUIRE(width <= in.remaining() / (4 * geometry.depth),
              "wire: declared CM geometry exceeds the bytes present "
              "(truncated or hostile buffer)");
  geometry.width = static_cast<std::size_t>(width);
  return geometry;
}

}  // namespace

sketch::CmSketch WireCodec::deserialize_cm(std::span<const std::byte> buffer) {
  std::uint64_t fingerprint = 0;
  WireReader in = open(buffer, WireType::kCmSketch, &fingerprint);
  const CmGeometry geometry = decode_cm_geometry(in);
  sketch::CmSketch cm(geometry.depth, geometry.width);
  decode_cm_body(in, cm);
  FCM_REQUIRE(in.remaining() == 0, "wire: trailing bytes after CM state");
  FCM_REQUIRE(fingerprint_cm(cm) == fingerprint,
              "wire: CM config fingerprint mismatch");
  return cm;
}

sketch::CuSketch WireCodec::deserialize_cu(std::span<const std::byte> buffer) {
  std::uint64_t fingerprint = 0;
  WireReader in = open(buffer, WireType::kCuSketch, &fingerprint);
  const CmGeometry geometry = decode_cm_geometry(in);
  sketch::CuSketch cu(geometry.depth, geometry.width);
  decode_cm_body(in, cu);
  FCM_REQUIRE(in.remaining() == 0, "wire: trailing bytes after CU state");
  FCM_REQUIRE(fingerprint_cm(cu) == fingerprint,
              "wire: CU config fingerprint mismatch");
  return cu;
}

// --- TopKFilter -------------------------------------------------------------

std::size_t WireCodec::filter_body_bytes(const sketch::TopKFilter& filter) {
  return 4 + 4 + 8 + 13 * filter.table_.size();
}

void WireCodec::encode_filter_body(WireWriter& out,
                                   const sketch::TopKFilter& filter) {
  out.u32(filter.hash_.seed());
  out.u32(filter.lambda_);
  out.u64(filter.table_.size());
  for (const sketch::TopKFilter::Entry& entry : filter.table_) {
    out.u32(entry.key.value);
    out.u32(entry.count);
    out.u32(entry.negative);
    out.u8(entry.has_light_part ? 1 : 0);
  }
}

sketch::TopKFilter WireCodec::decode_filter_body(WireReader& in) {
  const std::uint32_t seed = in.u32();
  const std::uint32_t lambda = in.u32();
  FCM_REQUIRE(lambda >= 1, "wire: Top-K eviction lambda must be positive");
  const std::uint64_t entry_count = in.u64();
  FCM_REQUIRE(entry_count >= 1, "wire: Top-K entry count must be positive");
  in.require_payload(entry_count, 13);  // u32 key/count/negative + u8 flags
  sketch::TopKFilter filter(static_cast<std::size_t>(entry_count), lambda);
  filter.hash_ = common::SeededHash(seed);
  for (sketch::TopKFilter::Entry& entry : filter.table_) {
    entry.key = flow::FlowKey{in.u32()};
    entry.count = in.u32();
    entry.negative = in.u32();
    const std::uint8_t flags = in.u8();
    FCM_REQUIRE(flags <= 1, "wire: Top-K entry flags out of range");
    entry.has_light_part = flags == 1;
  }
  return filter;
}

std::vector<std::byte> WireCodec::serialize(const sketch::TopKFilter& filter) {
  WireWriter out = begin_frame(WireType::kTopKFilter,
                               fingerprint_filter(filter),
                               filter_body_bytes(filter));
  encode_filter_body(out, filter);
  return out.take();
}

sketch::TopKFilter WireCodec::deserialize_topk_filter(
    std::span<const std::byte> buffer) {
  std::uint64_t fingerprint = 0;
  WireReader in = open(buffer, WireType::kTopKFilter, &fingerprint);
  sketch::TopKFilter filter = decode_filter_body(in);
  FCM_REQUIRE(in.remaining() == 0,
              "wire: trailing bytes after Top-K filter state");
  FCM_REQUIRE(fingerprint_filter(filter) == fingerprint,
              "wire: Top-K filter config fingerprint mismatch");
  // The vote-table ordering invariants (empty buckets carry nothing,
  // residents dominate challengers) catch bit flips the field checks miss.
  filter.check_invariants();
  return filter;
}

// --- FcmTopK ----------------------------------------------------------------

std::vector<std::byte> WireCodec::serialize(const core::FcmTopK& topk) {
  WireWriter out = begin_frame(
      WireType::kFcmTopK, fingerprint_fcm_topk(topk),
      sketch_body_bytes(topk.sketch_) + filter_body_bytes(topk.filter_));
  encode_sketch_body(out, topk.sketch_);
  encode_filter_body(out, topk.filter_);
  return out.take();
}

core::FcmTopK WireCodec::deserialize_fcm_topk(
    std::span<const std::byte> buffer) {
  std::uint64_t fingerprint = 0;
  WireReader in = open(buffer, WireType::kFcmTopK, &fingerprint);
  core::FcmSketch sketch = decode_sketch_body(in);
  sketch::TopKFilter filter = decode_filter_body(in);
  FCM_REQUIRE(in.remaining() == 0, "wire: trailing bytes after FcmTopK state");
  core::FcmTopK::Config config;
  config.fcm = sketch.config();
  config.topk_entries = filter.entry_count();
  config.eviction_lambda = filter.lambda_;
  core::FcmTopK topk(config);
  topk.sketch_ = std::move(sketch);
  topk.filter_ = std::move(filter);
  FCM_REQUIRE(fingerprint_fcm_topk(topk) == fingerprint,
              "wire: FcmTopK config fingerprint mismatch");
  topk.check_invariants();
  return topk;
}

// --- cardinality registers --------------------------------------------------

std::vector<std::byte> WireCodec::serialize(const sketch::LinearCounting& lc) {
  WireWriter fp;
  fp.u8(static_cast<std::uint8_t>(WireType::kLinearCounting));
  fp.u32(lc.hash_.seed());
  fp.u64(lc.bitmap_.size());
  WireWriter out = begin_frame(WireType::kLinearCounting,
                               fingerprint_bytes(fp.bytes()),
                               4 + 8 + (lc.bitmap_.size() + 7) / 8);
  out.u32(lc.hash_.seed());
  out.u64(lc.bitmap_.size());
  std::uint8_t packed = 0;
  for (std::size_t i = 0; i < lc.bitmap_.size(); ++i) {
    if (lc.bitmap_[i]) packed |= static_cast<std::uint8_t>(1u << (i % 8));
    if (i % 8 == 7 || i + 1 == lc.bitmap_.size()) {
      out.u8(packed);
      packed = 0;
    }
  }
  return out.take();
}

sketch::LinearCounting WireCodec::deserialize_linear_counting(
    std::span<const std::byte> buffer) {
  std::uint64_t fingerprint = 0;
  WireReader in = open(buffer, WireType::kLinearCounting, &fingerprint);
  const std::uint32_t seed = in.u32();
  const std::uint64_t bits = in.u64();
  FCM_REQUIRE(bits >= 1, "wire: LinearCounting bitmap must be non-empty");
  // bits/8 <= remaining bounds the constructor's allocation by the buffer.
  FCM_REQUIRE(bits / 8 <= in.remaining(),
              "wire: LinearCounting bitmap exceeds the bytes present");
  const std::uint64_t packed_bytes = (bits + 7) / 8;
  in.require_payload(packed_bytes, 1);
  sketch::LinearCounting lc(static_cast<std::size_t>(bits));
  lc.hash_ = common::SeededHash(seed);
  std::uint8_t packed = 0;
  for (std::uint64_t i = 0; i < bits; ++i) {
    if (i % 8 == 0) packed = in.u8();
    lc.bitmap_[static_cast<std::size_t>(i)] = (packed >> (i % 8)) & 1u;
  }
  if (bits % 8 != 0) {
    FCM_REQUIRE(packed >> (bits % 8) == 0,
                "wire: LinearCounting trailing pad bits are non-zero");
  }
  FCM_REQUIRE(in.remaining() == 0,
              "wire: trailing bytes after LinearCounting state");
  WireWriter fp;
  fp.u8(static_cast<std::uint8_t>(WireType::kLinearCounting));
  fp.u32(seed);
  fp.u64(bits);
  FCM_REQUIRE(fingerprint_bytes(fp.bytes()) == fingerprint,
              "wire: LinearCounting config fingerprint mismatch");
  return lc;
}

std::vector<std::byte> WireCodec::serialize(const sketch::HyperLogLog& hll) {
  WireWriter fp;
  fp.u8(static_cast<std::uint8_t>(WireType::kHyperLogLog));
  fp.u32(hll.hash_.seed());
  fp.u8(static_cast<std::uint8_t>(hll.index_bits_));
  WireWriter out = begin_frame(WireType::kHyperLogLog,
                               fingerprint_bytes(fp.bytes()),
                               4 + 1 + hll.registers_.size());
  out.u32(hll.hash_.seed());
  out.u8(static_cast<std::uint8_t>(hll.index_bits_));
  for (const std::uint8_t reg : hll.registers_) out.u8(reg);
  return out.take();
}

sketch::HyperLogLog WireCodec::deserialize_hll(
    std::span<const std::byte> buffer) {
  std::uint64_t fingerprint = 0;
  WireReader in = open(buffer, WireType::kHyperLogLog, &fingerprint);
  const std::uint32_t seed = in.u32();
  const std::uint8_t index_bits = in.u8();
  FCM_REQUIRE(index_bits >= 4 && index_bits <= 26,
              "wire: HyperLogLog index bits out of range");
  const std::uint64_t register_count = 1ull << index_bits;
  in.require_payload(register_count, 1);
  sketch::HyperLogLog hll(static_cast<std::size_t>(register_count));
  hll.hash_ = common::SeededHash(seed);
  for (std::uint8_t& reg : hll.registers_) {
    reg = in.u8();
    // rho(hash) of a 32-bit value is at most 33; anything above is corrupt.
    FCM_REQUIRE(reg <= 64, "wire: HyperLogLog register value out of range");
  }
  FCM_REQUIRE(in.remaining() == 0,
              "wire: trailing bytes after HyperLogLog state");
  WireWriter fp;
  fp.u8(static_cast<std::uint8_t>(WireType::kHyperLogLog));
  fp.u32(seed);
  fp.u8(index_bits);
  FCM_REQUIRE(fingerprint_bytes(fp.bytes()) == fingerprint,
              "wire: HyperLogLog config fingerprint mismatch");
  return hll;
}

// --- FcmFramework -----------------------------------------------------------

namespace {

// Framework payload fields ahead of the data-plane body: Top-K flag,
// config, topk_entries, heavy-hitter threshold, count mode, and the EM
// policy (four u64 + one u32).
std::size_t framework_head_bytes(const core::FcmConfig& config) {
  return 1 + config_bytes(config) + 8 + 8 + 1 + 4 * 8 + 4;
}

}  // namespace

std::vector<std::byte> WireCodec::serialize(const framework::FcmFramework& fw) {
  const framework::FcmFramework::Options& options = fw.options_;
  // The single-pass sweep sidecars (DESIGN.md §14) are a local ingest
  // optimization and are not part of the wire format; silently dropping
  // them would make a round-trip lossy, so refuse outright.
  FCM_REQUIRE(!options.single_pass_sweep,
              "wire: sweep-enabled frameworks are not wire-transportable");
  const std::size_t body_bytes =
      fw.with_topk_.has_value()
          ? sketch_body_bytes(fw.with_topk_->sketch_) +
                filter_body_bytes(fw.with_topk_->filter_)
          : sketch_body_bytes(*fw.plain_);
  WireWriter out =
      begin_frame(WireType::kFcmFramework, merge_fingerprint(options),
                  framework_head_bytes(options.fcm) + body_bytes);
  out.u8(fw.with_topk_.has_value() ? 1 : 0);
  encode_config(out, options.fcm);
  out.u64(options.topk_entries);
  out.u64(options.heavy_hitter_threshold);
  out.u8(static_cast<std::uint8_t>(options.count_mode));
  // Analysis policy rides along so a control plane restored from the wire
  // produces the same reports; it is NOT part of the merge fingerprint.
  out.u64(options.em.max_iterations);
  out.u64(options.em.value_enumeration_cap);
  out.u64(options.em.max_extra_flows);
  out.u32(options.em.max_enumeration_degree);
  out.u64(options.em.thread_count);
  if (fw.with_topk_.has_value()) {
    encode_sketch_body(out, fw.with_topk_->sketch_);
    encode_filter_body(out, fw.with_topk_->filter_);
  } else {
    encode_sketch_body(out, *fw.plain_);
  }
  return out.take();
}

framework::FcmFramework WireCodec::deserialize_framework(
    std::span<const std::byte> buffer, obs::MetricsRegistry* metrics) {
  std::uint64_t fingerprint = 0;
  WireReader in = open(buffer, WireType::kFcmFramework, &fingerprint);
  const std::uint8_t has_topk = in.u8();
  FCM_REQUIRE(has_topk <= 1, "wire: boolean field out of range");

  framework::FcmFramework::Options options;
  options.fcm = decode_config(in);
  options.topk_entries = static_cast<std::size_t>(in.u64());
  options.heavy_hitter_threshold = in.u64();
  const std::uint8_t count_mode = in.u8();
  FCM_REQUIRE(count_mode <= 1, "wire: count mode out of range");
  options.count_mode =
      static_cast<framework::FcmFramework::CountMode>(count_mode);
  options.em.max_iterations = static_cast<std::size_t>(in.u64());
  options.em.value_enumeration_cap = in.u64();
  options.em.max_extra_flows = static_cast<std::size_t>(in.u64());
  options.em.max_enumeration_degree = in.u32();
  options.em.thread_count = static_cast<std::size_t>(in.u64());
  options.metrics = metrics;
  FCM_REQUIRE((has_topk == 1) == (options.topk_entries > 0),
              "wire: Top-K presence flag contradicts the entry count");
  // The trees the constructor below allocates must already be present.
  in.require_payload(options.fcm.tree_count,
                     4 + tree_state_bytes(options.fcm));

  // The constructor re-runs all Options cross-field validation (e.g. byte
  // counting excludes the Top-K plane) before any state is restored. The
  // body then decodes straight into the sketch it built.
  framework::FcmFramework fw(options);
  core::FcmSketch& sketch =
      has_topk == 1 ? fw.with_topk_->sketch_ : *fw.plain_;
  FCM_REQUIRE(decode_config(in) == options.fcm,
              "wire: framework body config contradicts its options");
  decode_sketch_state(in, sketch);
  if (has_topk == 1) {
    sketch::TopKFilter filter = decode_filter_body(in);
    FCM_REQUIRE(filter.entry_count() == options.topk_entries,
                "wire: framework filter geometry contradicts its options");
    fw.with_topk_->filter_ = std::move(filter);
  }
  FCM_REQUIRE(in.remaining() == 0,
              "wire: trailing bytes after FcmFramework state");
  FCM_REQUIRE(
      (sketch.hh_threshold_.has_value() ? *sketch.hh_threshold_ : 0) ==
          options.heavy_hitter_threshold,
      "wire: restored heavy-hitter threshold contradicts the options");
  FCM_REQUIRE(merge_fingerprint(options) == fingerprint,
              "wire: framework merge fingerprint mismatch");
  fw.check_invariants();
  return fw;
}

}  // namespace fcm::agg
