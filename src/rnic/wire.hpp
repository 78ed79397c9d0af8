// On-wire protocol units exchanged between RNIC models (RoCEv2-shaped:
// per-packet PSNs, cumulative ACKs, NAK-sequence / NAK-RNR, CNPs).
#pragma once

#include <cstdint>
#include <memory>

#include "common/bytes.hpp"
#include "net/packet.hpp"
#include "rnic/types.hpp"

namespace xrdma::rnic {

enum class PktType : std::uint8_t {
  data_send,    // fragment of a SEND / SEND_WITH_IMM message
  data_write,   // fragment of a WRITE / WRITE_WITH_IMM message
  read_req,
  read_resp,    // fragment of a read response
  ack,          // cumulative ack up to (excluding) ack_psn
  nak_seq,      // out-of-sequence: retransmit from ack_psn
  nak_rnr,      // receiver not ready: back off, retransmit from ack_psn
  nak_remote_access,  // rkey / bounds violation at responder
  cnp,          // DCQCN congestion notification
};

struct RnicPacket : net::PayloadBase {
  PktType type = PktType::data_send;
  QpNum dst_qp = kInvalidId;

  std::uint64_t psn = 0;     // requester->responder sequencing
  std::uint64_t msg_id = 0;  // message identity for reassembly / matching

  std::uint32_t msg_len = 0;   // total message payload bytes
  std::uint32_t frag_off = 0;  // offset of this fragment
  bool first = false;
  bool last = false;

  std::uint32_t imm = 0;
  bool has_imm = false;

  std::uint64_t remote_addr = 0;  // write fragment target / read source
  std::uint32_t rkey = 0;
  std::uint32_t read_len = 0;  // read_req only

  Buffer data;  // fragment payload (real or synthetic)

  std::uint64_t ack_psn = 0;  // ack / nak_*: next PSN expected by responder
};

using RnicPacketPtr = std::shared_ptr<RnicPacket>;

}  // namespace xrdma::rnic
