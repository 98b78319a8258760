// Internals of parse_packet exposed for its equivalence test only. Nothing
// outside src/datapath and tests/ includes this header.
#pragma once

#include "datapath/packet_parser.h"

namespace fcm::datapath::detail {

// The generic L2-L4 walk: every link type, VLAN stack, IPv4 option length,
// IPv6 extension chain and fragment case, one header window at a time.
// parse_packet answers untagged Ethernet/IPv4/UDP frames from a single
// window first and returns the same outcome and ParsedPacket as this walk;
// every other record goes here.
ParseOutcome parse_packet_generic(const RawRecord& record, ParsedPacket& out);

}  // namespace fcm::datapath::detail
