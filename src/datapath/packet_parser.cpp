#include "datapath/packet_parser.h"

#include <optional>

#include "common/hash.h"
#include "datapath/byte_cursor.h"
#include "datapath/packet_parser_detail.h"

namespace fcm::datapath {

namespace {

constexpr std::size_t kEthernetBytes = 14;  // dst MAC, src MAC, EtherType
constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
constexpr std::uint16_t kEtherTypeIpv6 = 0x86DD;
constexpr std::uint16_t kEtherTypeVlan = 0x8100;   // 802.1Q
constexpr std::uint16_t kEtherTypeQinQ = 0x88A8;   // 802.1ad
constexpr std::uint16_t kEtherTypeVlan9100 = 0x9100;  // legacy QinQ

constexpr std::uint8_t kProtoTcp = 6;
constexpr std::uint8_t kProtoUdp = 17;

bool is_vlan(std::uint16_t ether_type) {
  return ether_type == kEtherTypeVlan || ether_type == kEtherTypeQinQ ||
         ether_type == kEtherTypeVlan9100;
}

// Deterministic 32-bit fold of a 128-bit IPv6 address (big-endian halves
// mixed through mix64) so v6 flows live in the same FlowKey space as v4. The
// address is the 16 bytes at `Offset` of the fixed IPv6 header.
template <std::size_t Offset>
std::uint32_t fold_ipv6_address(const HeaderBytes<40>& header) {
  const std::uint64_t high = (std::uint64_t{header.u32be<Offset>()} << 32) |
                             header.u32be<Offset + 4>();
  const std::uint64_t low = (std::uint64_t{header.u32be<Offset + 8>()} << 32) |
                            header.u32be<Offset + 12>();
  const std::uint64_t mixed = common::mix64(high ^ common::mix64(low));
  return static_cast<std::uint32_t>(mixed ^ (mixed >> 32));
}

// Every layer below reads from and advances the walk's one cursor, taken by
// reference: a by-value copy per layer went through the stack and roughly
// doubled the cost of an Ethernet/IPv4/UDP walk (DESIGN.md §12.3).

// Transport layer. `protocol` is the final IP next-header; non-TCP/UDP
// protocols (ICMP and everything else) key on addresses alone: ports stay 0.
ParseOutcome parse_transport(ByteCursor& cursor, std::uint8_t protocol,
                             flow::FiveTuple& tuple) {
  switch (protocol) {
    case kProtoTcp: {
      // The whole 20-byte minimum header must be captured; the fields read
      // are the ports and the data offset (byte 12).
      const auto tcp = cursor.header<20>();
      if (!tcp) return ParseOutcome::kTruncatedTransport;
      tuple.src_port = tcp->u16be<0>();
      tuple.dst_port = tcp->u16be<2>();
      if ((tcp->u8<12>() >> 4) < 5) return ParseOutcome::kBadTransportHeader;
      return ParseOutcome::kOk;
    }
    case kProtoUdp: {
      const auto udp = cursor.header<8>();
      if (!udp) return ParseOutcome::kTruncatedTransport;
      tuple.src_port = udp->u16be<0>();
      tuple.dst_port = udp->u16be<2>();
      if (udp->u16be<4>() < 8) return ParseOutcome::kBadTransportHeader;
      return ParseOutcome::kOk;
    }
    default:
      return ParseOutcome::kOk;  // ICMP & friends: address-keyed flow
  }
}

ParseOutcome parse_ipv4(ByteCursor& cursor, ParsedPacket& out) {
  const auto ip = cursor.header<20>();
  if (!ip) return ParseOutcome::kTruncatedIp;
  const std::uint8_t version_ihl = ip->u8<0>();
  if ((version_ihl >> 4) != 4) return ParseOutcome::kBadIpHeader;
  const std::size_t header_length = (version_ihl & 0x0f) * std::size_t{4};
  if (header_length < 20) return ParseOutcome::kBadIpHeader;  // zero/short IHL
  const std::uint16_t total_length = ip->u16be<2>();
  // A datagram shorter than its own header means the "payload" would overlap
  // the header bytes — classic crafted-packet territory.
  if (total_length < header_length) return ParseOutcome::kBadIpHeader;
  const std::uint16_t flags_fragment = ip->u16be<6>();
  const std::uint8_t protocol = ip->u8<9>();
  out.tuple.src_ip = ip->u32be<12>();
  out.tuple.dst_ip = ip->u32be<16>();
  out.tuple.protocol = protocol;
  out.ip_version = 4;
  const std::size_t options_length = header_length - 20;
  if (!cursor.can_read(options_length)) return ParseOutcome::kTruncatedIp;
  cursor.skip(options_length);
  if ((flags_fragment & 0x1fff) != 0) {
    return ParseOutcome::kOk;  // non-first fragment: no L4 header on the wire
  }
  return parse_transport(cursor, protocol, out.tuple);
}

ParseOutcome parse_ipv6(ByteCursor& cursor, ParsedPacket& out) {
  // The payload length (bytes 4-5) is not trusted: the capture may be sliced.
  const auto ip = cursor.header<40>();
  if (!ip) return ParseOutcome::kTruncatedIp;
  if ((ip->u8<0>() >> 4) != 6) return ParseOutcome::kBadIpHeader;
  std::uint8_t next_header = ip->u8<6>();
  out.tuple.src_ip = fold_ipv6_address<8>(*ip);
  out.tuple.dst_ip = fold_ipv6_address<24>(*ip);
  out.ip_version = 6;
  // Bounded extension-header walk; a longer chain than this is either an
  // attack or garbage.
  for (int depth = 0; depth < 8; ++depth) {
    switch (next_header) {
      case 0:     // hop-by-hop options
      case 43:    // routing
      case 60: {  // destination options
        const auto extension = cursor.header<2>();
        if (!extension) return ParseOutcome::kTruncatedIp;
        const std::uint8_t following = extension->u8<0>();
        const std::size_t extension_length =
            (static_cast<std::size_t>(extension->u8<1>()) + 1) * 8;
        if (!cursor.can_read(extension_length - 2)) {
          return ParseOutcome::kTruncatedIp;
        }
        cursor.skip(extension_length - 2);
        next_header = following;
        continue;
      }
      case 44: {  // fragment (fixed 8 bytes)
        const auto fragment = cursor.header<8>();
        if (!fragment) return ParseOutcome::kTruncatedIp;
        const std::uint8_t following = fragment->u8<0>();
        const std::uint16_t offset_flags = fragment->u16be<2>();
        out.tuple.protocol = following;
        if ((offset_flags >> 3) != 0) {
          return ParseOutcome::kOk;  // non-first fragment: no L4 header
        }
        next_header = following;
        continue;
      }
      case 59:  // no next header
        out.tuple.protocol = next_header;
        return ParseOutcome::kOk;
      default:
        out.tuple.protocol = next_header;
        return parse_transport(cursor, next_header, out.tuple);
    }
  }
  return ParseOutcome::kBadIpHeader;  // absurd extension chain
}

ParseOutcome parse_raw_ip(ByteCursor& cursor, ParsedPacket& out) {
  const auto first = cursor.peek_header<1>();
  if (!first) return ParseOutcome::kTruncatedIp;
  const std::uint8_t version = first->u8<0>() >> 4;
  if (version == 4) return parse_ipv4(cursor, out);
  if (version == 6) return parse_ipv6(cursor, out);
  return ParseOutcome::kBadIpHeader;
}

// Fast path (DESIGN.md §12.3): an untagged Ethernet frame carrying IPv4
// with no options (IHL 5), a total length covering the header, a zero
// fragment offset, and UDP. All three headers sit at fixed offsets of one
// 42-byte window, so such a frame costs one capacity check. Returns the
// outcome and fills `out` exactly as the generic walk would, or nullopt for
// any other frame (TCP included), which then takes the generic walk
// (tests/test_pcap.cpp pins the equivalence over every prefix and
// single-byte mutation of such frames).
constexpr std::size_t kFastUdpFrame = kEthernetBytes + 20 + 8;

std::optional<ParseOutcome> parse_ipv4_udp_frame(
    const HeaderBytes<kFastUdpFrame>& frame, const RawRecord& record,
    ParsedPacket& out) {
  constexpr std::size_t ip = kEthernetBytes;
  constexpr std::size_t udp = ip + 20;
  if (frame.u16be<12>() != kEtherTypeIpv4 ||
      frame.u8<ip>() != 0x45 ||                   // version 4, IHL 5
      frame.u16be<ip + 2>() < 20 ||               // total length
      (frame.u16be<ip + 6>() & 0x1fff) != 0 ||    // fragment offset
      frame.u8<ip + 9>() != kProtoUdp) {
    return std::nullopt;
  }
  out = ParsedPacket{};
  out.timestamp_ns = record.timestamp_ns;
  out.wire_bytes = record.original_length;
  out.ip_version = 4;
  out.tuple.protocol = kProtoUdp;
  out.tuple.src_ip = frame.u32be<ip + 12>();
  out.tuple.dst_ip = frame.u32be<ip + 16>();
  out.tuple.src_port = frame.u16be<udp>();
  out.tuple.dst_port = frame.u16be<udp + 2>();
  const bool udp_length_ok = frame.u16be<udp + 4>() >= 8;
  return udp_length_ok ? ParseOutcome::kOk : ParseOutcome::kBadTransportHeader;
}

}  // namespace

const char* to_string(ParseOutcome outcome) {
  switch (outcome) {
    case ParseOutcome::kOk: return "ok";
    case ParseOutcome::kUnsupportedLinkType: return "unsupported-link-type";
    case ParseOutcome::kUnsupportedEtherType: return "unsupported-ether-type";
    case ParseOutcome::kTruncatedLink: return "truncated-link";
    case ParseOutcome::kBadIpHeader: return "bad-ip-header";
    case ParseOutcome::kTruncatedIp: return "truncated-ip";
    case ParseOutcome::kBadTransportHeader: return "bad-transport-header";
    case ParseOutcome::kTruncatedTransport: return "truncated-transport";
    case ParseOutcome::kOutcomeCount: break;
  }
  return "unknown";
}

namespace detail {

ParseOutcome parse_packet_generic(const RawRecord& record, ParsedPacket& out) {
  out = ParsedPacket{};
  out.timestamp_ns = record.timestamp_ns;
  out.wire_bytes = record.original_length;
  ByteCursor cursor(record.bytes);
  switch (record.link_type) {
    case kLinkTypeEthernet: {
      const auto ethernet = cursor.header<kEthernetBytes>();
      if (!ethernet) return ParseOutcome::kTruncatedLink;
      std::uint16_t ether_type = ethernet->u16be<12>();
      for (int tags = 0; tags < 4 && is_vlan(ether_type); ++tags) {
        // PCP/DEI/VID, then the inner EtherType.
        const auto tag = cursor.header<4>();
        if (!tag) return ParseOutcome::kTruncatedLink;
        ether_type = tag->u16be<2>();
      }
      if (is_vlan(ether_type)) return ParseOutcome::kBadIpHeader;  // tag bomb
      if (ether_type == kEtherTypeIpv4) return parse_ipv4(cursor, out);
      if (ether_type == kEtherTypeIpv6) return parse_ipv6(cursor, out);
      return ParseOutcome::kUnsupportedEtherType;
    }
    case kLinkTypeRawIp:
      return parse_raw_ip(cursor, out);
    case kLinkTypeNull:
    case kLinkTypeLoop: {
      // 4-byte AF_* family header in the CAPTURING host's byte order; accept
      // either (the values are small, so the swapped form is unambiguous).
      const auto link = cursor.header<4>();
      if (!link) return ParseOutcome::kTruncatedLink;
      std::uint32_t family = link->u32le<0>();
      if (family > 0xffff) {
        family = (family >> 24) | ((family >> 8) & 0xff00);
      }
      if (family == 2) return parse_ipv4(cursor, out);
      if (family == 24 || family == 28 || family == 30) {
        return parse_ipv6(cursor, out);
      }
      return ParseOutcome::kUnsupportedEtherType;
    }
    default:
      return ParseOutcome::kUnsupportedLinkType;
  }
}

}  // namespace detail

ParseOutcome parse_packet(const RawRecord& record, ParsedPacket& out) {
  if (record.link_type == kLinkTypeEthernet) {
    const auto frame = ByteCursor(record.bytes).peek_header<kFastUdpFrame>();
    if (frame) {
      if (const auto outcome = parse_ipv4_udp_frame(*frame, record, out)) {
        return *outcome;
      }
    }
  }
  return detail::parse_packet_generic(record, out);
}

}  // namespace fcm::datapath
