// Work-request / work-completion types mirroring the ibverbs vocabulary.
//
// The middleware and the baselines are written against these exactly the
// way real code is written against ibv_send_wr / ibv_wc, so every protocol
// decision in the paper (§III-§V) exercises the same semantics it would on
// hardware.
#pragma once

#include <cstdint>
#include <functional>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "net/packet.hpp"

namespace xrdma::rnic {

using QpNum = std::uint32_t;
using CqId = std::uint32_t;
using SrqId = std::uint32_t;
constexpr std::uint32_t kInvalidId = 0;

enum class QpState : std::uint8_t { reset, init, rtr, rts, error };

enum class Opcode : std::uint8_t {
  send,
  send_imm,
  write,
  write_imm,
  read,
};

enum class WcOpcode : std::uint8_t {
  send,
  write,
  read,
  recv,       // two-sided receive
  recv_imm,   // receive consumed by a WRITE_WITH_IMM
};

/// Scatter-gather element: a range inside a registered MR.
struct Sge {
  std::uint64_t addr = 0;
  std::uint32_t length = 0;
  std::uint32_t lkey = 0;
};

struct SendWr {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::send;
  Sge local;
  // One-sided target.
  std::uint64_t remote_addr = 0;
  std::uint32_t rkey = 0;
  // Immediate data (send_imm / write_imm).
  std::uint32_t imm = 0;
  bool signaled = true;
  // IBV_SEND_INLINE: the payload rides in the WQE itself. `local.addr` /
  // `local.lkey` are ignored (no MR needed); `local.length` still gives
  // the size and must stay within RnicConfig::max_inline_data. The bytes
  // live in `inline_payload` — copied out at post time semantically, so
  // the NIC charges no payload DMA fetch.
  bool inline_data = false;
  Buffer inline_payload = {};
};

struct RecvWr {
  std::uint64_t wr_id = 0;
  Sge sge;
};

struct Wc {
  std::uint64_t wr_id = 0;
  Errc status = Errc::ok;
  WcOpcode opcode = WcOpcode::send;
  std::uint32_t byte_len = 0;
  std::uint32_t imm = 0;
  bool has_imm = false;
  QpNum qp_num = kInvalidId;
};

struct MrInfo {
  std::uint64_t addr = 0;  // base virtual address in the host address space
  std::uint64_t size = 0;
  std::uint32_t lkey = 0;
  std::uint32_t rkey = 0;
};

struct QpCaps {
  std::uint32_t max_send_wr = 256;
  std::uint32_t max_recv_wr = 256;
};

/// Target of modify_qp. Mirrors the subset of ibv_qp_attr the middleware
/// needs; control-plane *latency* lives in verbs::cm, not here.
struct QpAttr {
  QpState state = QpState::reset;
  net::NodeId dest_node = net::kInvalidNode;
  QpNum dest_qp = kInvalidId;
  std::uint8_t retry_count = 7;    // transport retry budget
  std::uint8_t rnr_retry = 3;      // finite by default: raw verbs users see
                                   // rnr_retry_exceeded like the paper's Fig. 9
};

struct RnicStats {
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t rnr_naks_sent = 0;      // responder side
  std::uint64_t rnr_events = 0;         // requester side backoffs
  std::uint64_t seq_naks_sent = 0;
  std::uint64_t retransmitted_packets = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t cnps_sent = 0;
  std::uint64_t cnps_received = 0;
  std::uint64_t ecn_marked_rx = 0;
  std::uint64_t qp_errors = 0;
  std::uint64_t qp_cache_hits = 0;
  std::uint64_t qp_cache_misses = 0;
  // Tx decomposition: every post_send rings one doorbell for one WR.
  std::uint64_t doorbells = 0;
  std::uint64_t wrs_posted = 0;
  std::uint64_t inline_wrs = 0;
};

}  // namespace xrdma::rnic
