// Bounds-checked cursor over a read-only byte buffer — the ONLY sanctioned
// way to index capture bytes in src/datapath (tools/fcm_lint.py rule
// "datapath-bounds" bans raw pointer arithmetic and memcpy/reinterpret_cast
// everywhere else in this directory; this header is the audited exception).
//
// Same hostile-input posture as agg::WireReader (DESIGN.md §11): every read
// is preceded by an explicit capacity check, multi-byte integers are
// assembled byte by byte in the requested endianness (no type punning, no
// alignment assumptions), and overrunning reads throw ContractViolation.
// Parsers that must not throw on malformed input (the per-packet paths) take
// fixed-size headers through header<N>(), which turns a shortfall into an
// empty optional, or call can_read() first and turn shortfalls into typed
// outcomes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "common/contracts.h"

namespace fcm::datapath {

// A fixed-size view of N bytes that one capacity check proved present.
// Fields are read at compile-time offsets; a static_assert keeps every read
// inside the N bytes, so no field read needs a check of its own (DESIGN.md
// §12.1). It views the cursor's buffer, so it must not outlive it.
template <std::size_t N>
class HeaderBytes {
 public:
  explicit HeaderBytes(std::span<const std::byte, N> bytes) noexcept
      : bytes_(bytes) {}

  template <std::size_t Offset>
  std::uint8_t u8() const noexcept {
    static_assert(Offset + 1 <= N, "HeaderBytes: u8 past the header");
    return std::to_integer<std::uint8_t>(bytes_[Offset]);
  }

  template <std::size_t Offset>
  std::uint16_t u16be() const noexcept {
    static_assert(Offset + 2 <= N, "HeaderBytes: u16 past the header");
    return static_cast<std::uint16_t>((u8<Offset>() << 8) | u8<Offset + 1>());
  }
  template <std::size_t Offset>
  std::uint16_t u16le() const noexcept {
    static_assert(Offset + 2 <= N, "HeaderBytes: u16 past the header");
    return static_cast<std::uint16_t>(u8<Offset>() | (u8<Offset + 1>() << 8));
  }
  template <std::size_t Offset>
  std::uint16_t u16(bool big_endian) const noexcept {
    return big_endian ? u16be<Offset>() : u16le<Offset>();
  }

  template <std::size_t Offset>
  std::uint32_t u32be() const noexcept {
    static_assert(Offset + 4 <= N, "HeaderBytes: u32 past the header");
    return (std::uint32_t{u16be<Offset>()} << 16) | u16be<Offset + 2>();
  }
  template <std::size_t Offset>
  std::uint32_t u32le() const noexcept {
    static_assert(Offset + 4 <= N, "HeaderBytes: u32 past the header");
    return u16le<Offset>() | (std::uint32_t{u16le<Offset + 2>()} << 16);
  }
  template <std::size_t Offset>
  std::uint32_t u32(bool big_endian) const noexcept {
    return big_endian ? u32be<Offset>() : u32le<Offset>();
  }

 private:
  std::span<const std::byte, N> bytes_;
};

class ByteCursor {
 public:
  constexpr ByteCursor() = default;
  explicit constexpr ByteCursor(std::span<const std::byte> data) : data_(data) {}

  constexpr std::size_t remaining() const noexcept { return data_.size() - pos_; }
  constexpr bool can_read(std::size_t bytes) const noexcept {
    return bytes <= remaining();
  }

  // The next N bytes as one fixed-size header: one capacity check, and the
  // cursor advances past them. Empty (cursor unmoved) when fewer than N
  // bytes remain.
  template <std::size_t N>
  std::optional<HeaderBytes<N>> header() noexcept {
    const std::optional<HeaderBytes<N>> result = peek_header<N>();
    if (result) pos_ += N;
    return result;
  }

  // header<N>() without advancing.
  template <std::size_t N>
  std::optional<HeaderBytes<N>> peek_header() const noexcept {
    if (!can_read(N)) return std::nullopt;
    return HeaderBytes<N>(data_.subspan(pos_).template first<N>());
  }

  void skip(std::size_t bytes) {
    FCM_REQUIRE(can_read(bytes), "ByteCursor: skip past end of buffer");
    pos_ += bytes;
  }

  // Carves the next `bytes` as an independent cursor (e.g. one capture block)
  // and advances past them — downstream reads cannot escape the carved range.
  ByteCursor sub(std::size_t bytes) {
    FCM_REQUIRE(can_read(bytes), "ByteCursor: sub-range past end of buffer");
    ByteCursor sub_cursor(data_.subspan(pos_, bytes));
    pos_ += bytes;
    return sub_cursor;
  }

  std::span<const std::byte> bytes(std::size_t count) {
    FCM_REQUIRE(can_read(count), "ByteCursor: read past end of buffer");
    std::span<const std::byte> view = data_.subspan(pos_, count);
    pos_ += count;
    return view;
  }

  // Single integer fields, one capacity check each; overruns throw.
  std::uint16_t u16(bool big_endian) {
    return field<2>().template u16<0>(big_endian);
  }
  std::uint32_t u32(bool big_endian) {
    return field<4>().template u32<0>(big_endian);
  }

 private:
  template <std::size_t N>
  HeaderBytes<N> field() {
    const std::optional<HeaderBytes<N>> result = header<N>();
    FCM_REQUIRE(result.has_value(), "ByteCursor: read past end of buffer");
    return *result;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace fcm::datapath
