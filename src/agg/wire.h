// Versioned sketch wire format (DESIGN.md §11).
//
// Every sketch type the tree can merge network-wide — FcmTree, FcmSketch,
// CmSketch/CuSketch, TopKFilter/FcmTopK, the cardinality registers
// (LinearCounting / HyperLogLog), and the whole FcmFramework facade — can be
// serialized to a compact, self-describing byte buffer and reconstructed
// bit-exactly on the other side: every query (flow size, cardinality, heavy
// hitters, FSD/entropy after analyze()) returns the same answer on the
// deserialized object as on the original, and merge() on deserialized
// replicas is bit-exact with merge() on the in-memory ones
// (tests/test_wire.cpp pins both properties).
//
// Frame layout (all integers little-endian, fixed width, split into bytes
// by explicit shifts — no struct dumps, no reinterpret_cast;
// tools/fcm_lint.py's wire-encoding rule bans both in src/agg). Each frame
// is written into one buffer of its exact, precomputed size:
//
//   offset size  field
//   0      4     magic "FCMW"
//   4      2     u16 wire version (kWireVersion)
//   6      1     u8  payload type tag (WireType)
//   7      1     u8  reserved, must be zero
//   8      8     u64 config fingerprint (see below)
//   16     8     u64 payload length; must equal exactly the bytes that follow
//   24     ...   type-specific payload
//
// The config fingerprint hashes the *merge-relevant* configuration of the
// encoded object (geometry + hash seeds + count mode + heavy-hitter
// threshold — exactly the preconditions the merge() contracts check, not
// local policy like EM iteration caps). Two buffers with equal fingerprints
// are mergeable; the AggregationService rejects mismatches from the header
// alone, without deserializing the payload.
//
// Hostile-input posture: deserializers validate BEFORE they allocate or
// build state. Truncated buffers, wrong magic, unsupported versions,
// non-zero reserved bytes, payload-length mismatches, oversized declared
// counts, out-of-range node values, and fingerprint mismatches all raise
// fcm::common::ContractViolation; declared element counts are checked
// against the bytes actually present, so a flipped count byte cannot cause
// allocation amplification (tests/test_wire.cpp, hostile suite). Each
// counter value is range-checked while it is decoded; one final
// check_invariants() sweep per top-level deserialize_* call catches bit
// flips that survive the field-level checks (e.g. an overflow marker whose
// parent holds no count).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "fcm/fcm_topk.h"
#include "framework/fcm_framework.h"
#include "sketch/cardinality.h"
#include "sketch/cm_sketch.h"

namespace fcm::agg {

// Bump when the byte layout changes incompatibly. Policy (DESIGN.md §11):
// readers accept exactly their own version; the version byte exists so a
// mixed-fleet rollout fails loudly at the header, not by misparsing state.
inline constexpr std::uint16_t kWireVersion = 1;

// Payload type tags. Values are wire ABI — append, never renumber.
enum class WireType : std::uint8_t {
  kFcmTree = 1,
  kFcmSketch = 2,
  kCmSketch = 3,
  kCuSketch = 4,
  kTopKFilter = 5,
  kFcmTopK = 6,
  kLinearCounting = 7,
  kHyperLogLog = 8,
  kFcmFramework = 9,
};

namespace detail {

// Little-endian split / rebuild of an unsigned integer into sizeof...(B)
// bytes, one explicit shift per byte. Written as a fold, so every use is a
// fixed-width access with no per-byte loop; the counter-array loops in
// wire.cpp share it with the scalar reads and writes below.
template <typename T, std::size_t... B>
void store_le(std::span<std::byte> out, T v,
              std::index_sequence<B...>) noexcept {
  ((out[B] = static_cast<std::byte>((v >> (8 * B)) & 0xff)), ...);
}

template <typename T, std::size_t... B>
T load_le(std::span<const std::byte> in, std::index_sequence<B...>) noexcept {
  return static_cast<T>(((std::to_integer<T>(in[B]) << (8 * B)) | ...));
}

}  // namespace detail

// Little-endian encoder. Every integer is written through explicit shifts,
// one byte at a time, so the layout is identical on every host. A writer
// built with an exact size holds a whole frame in one allocation and
// asserts that the frame fills it exactly (see WireCodec::begin_frame); a
// default-built writer grows as it goes (fingerprint keys, a few dozen
// bytes).
class WireWriter {
 public:
  WireWriter() = default;
  explicit WireWriter(std::size_t exact_bytes)
      : buf_(exact_bytes), exact_(true) {}

  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }

  // Bulk form for counter arrays: each value as a `width`-byte (1, 2 or 4)
  // little-endian integer. The caller guarantees every value fits.
  void uints(std::span<const std::uint32_t> values, std::size_t width);

  std::span<const std::byte> bytes() const noexcept {
    return std::span<const std::byte>(buf_).first(pos_);
  }
  std::vector<std::byte> take() {
    FCM_ASSERT(!exact_ || pos_ == buf_.size(),
               "WireWriter: frame is shorter than its computed size");
    buf_.resize(pos_);
    return std::move(buf_);
  }

 private:
  template <typename T>
  void put(T v) {
    detail::store_le(claim(sizeof(T)), v,
                     std::make_index_sequence<sizeof(T)>{});
  }
  std::span<std::byte> claim(std::size_t n) {
    if (buf_.size() - pos_ < n) {
      FCM_ASSERT(!exact_, "WireWriter: frame overruns its computed size");
      buf_.resize(pos_ + n);
    }
    const std::span<std::byte> out =
        std::span<std::byte>(buf_).subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;
  bool exact_ = false;
};

// Bounds-checked little-endian decoder over a borrowed buffer. Every read
// validates the remaining length first; a short buffer raises
// ContractViolation instead of reading past the end.
class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> data) noexcept : data_(data) {}

  std::size_t remaining() const noexcept { return data_.size() - pos_; }

  // Contract guard for array decodes: `count` elements of `element_bytes`
  // each must still be present. Called BEFORE any reserve/resize so a
  // hostile declared count cannot amplify into a giant allocation.
  void require_payload(std::uint64_t count, std::uint64_t element_bytes) const {
    FCM_REQUIRE(element_bytes == 0 ||
                    count <= remaining() / element_bytes,
                "wire: declared element count exceeds the bytes present "
                "(truncated or hostile buffer)");
  }

  std::uint8_t u8() {
    return get<std::uint8_t>("wire: truncated buffer (u8)");
  }
  std::uint16_t u16() {
    return get<std::uint16_t>("wire: truncated buffer (u16)");
  }
  std::uint32_t u32() {
    return get<std::uint32_t>("wire: truncated buffer (u32)");
  }
  std::uint64_t u64() {
    return get<std::uint64_t>("wire: truncated buffer (u64)");
  }

  // Bulk form for counter arrays: fills `out` with `width`-byte (1, 2 or 4)
  // little-endian values and returns their bitwise OR. Against an all-ones
  // bound 2^b - 1 (a stage's overflow marker) the OR is <= the bound iff
  // every value is, so the caller range-checks the whole array with one
  // comparison.
  std::uint32_t uints(std::span<std::uint32_t> out, std::size_t width);

 private:
  template <typename T>
  T get(const char* truncated) {
    return detail::load_le<T>(take(sizeof(T), truncated),
                              std::make_index_sequence<sizeof(T)>{});
  }
  std::span<const std::byte> take(std::size_t n, const char* truncated) {
    FCM_REQUIRE(remaining() >= n, truncated);
    const std::span<const std::byte> in = data_.subspan(pos_, n);
    pos_ += n;
    return in;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

// Parsed and validated frame header.
struct WireHeader {
  std::uint16_t version = 0;
  WireType type = WireType::kFcmTree;
  std::uint64_t fingerprint = 0;
  std::uint64_t payload_bytes = 0;
};

// The (de)serializer for every sketch type. A single class so the sketch
// headers grant exactly one friend; all functions are stateless.
class WireCodec {
 public:
  // --- serialize ----------------------------------------------------------
  static std::vector<std::byte> serialize(const core::FcmTree& tree);
  static std::vector<std::byte> serialize(const core::FcmSketch& sketch);
  // Tags kCmSketch or kCuSketch by the object's dynamic type (name()).
  static std::vector<std::byte> serialize(const sketch::CmSketch& cm);
  static std::vector<std::byte> serialize(const sketch::TopKFilter& filter);
  static std::vector<std::byte> serialize(const core::FcmTopK& topk);
  static std::vector<std::byte> serialize(const sketch::LinearCounting& lc);
  static std::vector<std::byte> serialize(const sketch::HyperLogLog& hll);
  static std::vector<std::byte> serialize(const framework::FcmFramework& fw);

  // --- deserialize --------------------------------------------------------
  // Each function requires the matching type tag and throws
  // ContractViolation on any malformed input (see header comment).
  static core::FcmTree deserialize_tree(std::span<const std::byte> buffer);
  static core::FcmSketch deserialize_sketch(std::span<const std::byte> buffer);
  static sketch::CmSketch deserialize_cm(std::span<const std::byte> buffer);
  static sketch::CuSketch deserialize_cu(std::span<const std::byte> buffer);
  static sketch::TopKFilter deserialize_topk_filter(
      std::span<const std::byte> buffer);
  static core::FcmTopK deserialize_fcm_topk(std::span<const std::byte> buffer);
  static sketch::LinearCounting deserialize_linear_counting(
      std::span<const std::byte> buffer);
  static sketch::HyperLogLog deserialize_hll(std::span<const std::byte> buffer);
  // `metrics` replaces the non-serializable telemetry sink (wire buffers
  // never carry pointers); pass nullptr for an uninstrumented replica.
  static framework::FcmFramework deserialize_framework(
      std::span<const std::byte> buffer,
      obs::MetricsRegistry* metrics = &obs::MetricsRegistry::global());

  // --- header / fingerprint ----------------------------------------------
  // Validates magic, version, reserved byte, type-tag range, and that
  // payload_bytes matches the buffer exactly; throws ContractViolation.
  static WireHeader peek(std::span<const std::byte> buffer);

  // Merge-compatibility fingerprint of a framework configuration: equal
  // fingerprints guarantee FcmFramework::merge() preconditions hold between
  // snapshots encoded with these options. The AggregationService compares
  // this against WireHeader::fingerprint before deserializing anything.
  static std::uint64_t merge_fingerprint(
      const framework::FcmFramework::Options& options);

  // The 64-bit digest every fingerprint above is built from, exposed so
  // tests can pin whole serialized frames (tests/test_wire.cpp, golden
  // bytes) without storing them.
  static std::uint64_t fingerprint_bytes(std::span<const std::byte> bytes);

 private:
  // Shared body encoders/decoders (nested payloads reuse them: FcmTopK is a
  // sketch body followed by a filter body, FcmFramework wraps either).
  static void encode_config(WireWriter& out, const core::FcmConfig& config);
  static core::FcmConfig decode_config(WireReader& in);
  static void encode_tree_state(WireWriter& out, const core::FcmTree& tree);
  // Range-checks every node value as it is decoded; the structural sweep
  // (check_invariants) is left to the top-level deserialize_* so it runs
  // once per decode (DESIGN.md §11.2).
  static void decode_tree_state(WireReader& in, core::FcmTree& tree);
  static std::size_t sketch_body_bytes(const core::FcmSketch& s);
  static void encode_sketch_body(WireWriter& out, const core::FcmSketch& s);
  // A sketch body is its config followed by its state. decode_sketch_body
  // builds a new sketch from the config; decode_sketch_state decodes the
  // state that follows the config straight into `sketch`, which must have
  // been built from that config (the framework decodes into its own).
  static core::FcmSketch decode_sketch_body(WireReader& in);
  static void decode_sketch_state(WireReader& in, core::FcmSketch& sketch);
  static void encode_cm_body(WireWriter& out, const sketch::CmSketch& cm);
  static void decode_cm_body(WireReader& in, sketch::CmSketch& cm);
  static std::size_t filter_body_bytes(const sketch::TopKFilter& filter);
  static void encode_filter_body(WireWriter& out,
                                 const sketch::TopKFilter& filter);
  static sketch::TopKFilter decode_filter_body(WireReader& in);

  // Per-type merge-compatibility fingerprints (see WireHeader::fingerprint).
  static std::uint64_t fingerprint_config(const core::FcmConfig& config);
  static std::uint64_t fingerprint_tree(const core::FcmTree& tree);
  static std::uint64_t fingerprint_cm(const sketch::CmSketch& cm);
  static std::uint64_t fingerprint_filter(const sketch::TopKFilter& filter);
  static std::uint64_t fingerprint_fcm_topk(const core::FcmTopK& topk);

  // A writer sized for exactly one frame of `payload_bytes`, with the
  // header already written; the serializer appends the payload and take()s.
  static WireWriter begin_frame(WireType type, std::uint64_t fingerprint,
                                std::size_t payload_bytes);
  static WireReader open(std::span<const std::byte> buffer, WireType expected,
                         std::uint64_t* fingerprint_out);
};

}  // namespace fcm::agg
