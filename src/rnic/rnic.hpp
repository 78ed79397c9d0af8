// RNIC device model.
//
// One instance per host; owns the QP/CQ/MR/SRQ tables and implements the RC
// protocol (PSN sequencing, cumulative acks, go-back-N retransmission, RNR
// NAKs with bounded retries), two-sided Send and one-sided Write/Read,
// per-QP DCQCN pacing, a QP-context SRAM cache model, and a transmit
// scheduler that round-robins ready QPs onto the host link.
//
// The public surface is deliberately verbs-flavoured (post_send/post_recv/
// poll_cq, QP state machine); verbs/verbs.hpp wraps it in RAII handle types.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "net/fabric.hpp"
#include "rnic/config.hpp"
#include "rnic/dcqcn.hpp"
#include "rnic/types.hpp"
#include "rnic/wire.hpp"
#include "sim/engine.hpp"

namespace xrdma::rnic {

class Rnic {
 public:
  Rnic(sim::Engine& engine, net::Endpoint& endpoint, RnicConfig config);
  ~Rnic();
  Rnic(const Rnic&) = delete;
  Rnic& operator=(const Rnic&) = delete;

  net::NodeId node() const { return endpoint_.node(); }
  sim::Engine& engine() { return engine_; }
  const RnicConfig& config() const { return config_; }

  /// Ingress entry point. The host's packet demux (testbed::Host) routes
  /// RNIC-typed payloads here; the TCP model owns its own types.
  void on_packet(net::Packet&& netpkt);
  /// PFC pause on the host egress lifted; resume feeding the port.
  void on_tx_unpaused() { schedule_pump(engine_.now()); }

  // --- Memory registration ---------------------------------------------
  /// Registers `size` bytes, allocating them from the host address space.
  /// `real_memory` = false creates a synthetic MR (no byte storage) for
  /// bandwidth benches that don't validate content.
  MrInfo reg_mr(std::uint64_t size, bool real_memory = true);
  bool dereg_mr(std::uint32_t lkey);
  /// Direct host access to registered memory; nullptr when [addr,addr+len)
  /// is unregistered or synthetic. This is how applications fill buffers.
  std::uint8_t* mr_ptr(std::uint64_t addr, std::uint64_t len);

  // --- Completion queues -------------------------------------------------
  CqId create_cq(std::uint32_t depth);
  void destroy_cq(CqId cq);
  int poll_cq(CqId cq, Wc* out, int max);
  std::size_t cq_depth_used(CqId cq) const;
  /// Event-mode notification: fires once when the next WC arrives, then
  /// must be re-armed (mirrors ibv_req_notify_cq).
  void arm_cq(CqId cq, std::function<void()> on_event);

  // --- Shared receive queues --------------------------------------------
  SrqId create_srq(std::uint32_t depth);
  Errc post_srq_recv(SrqId srq, const RecvWr& wr);

  // --- Queue pairs --------------------------------------------------------
  /// Every QP is reliable-connected (RC): the middleware posts only Send,
  /// Send-with-imm, Write and Read.
  QpNum create_qp(CqId send_cq, CqId recv_cq, QpCaps caps,
                  SrqId srq = kInvalidId);
  void destroy_qp(QpNum qpn);
  Errc modify_qp(QpNum qpn, const QpAttr& attr);
  QpState qp_state(QpNum qpn) const;
  std::size_t num_qps() const { return qps_.size(); }

  /// One WR, one doorbell: pays the doorbell, a QP-context cache touch,
  /// the WQE fetch and (unless inline or payload-free) the payload DMA.
  /// A WR that fails validation, or a full send queue, enqueues nothing.
  Errc post_send(QpNum qpn, const SendWr& wr);
  Errc post_recv(QpNum qpn, const RecvWr& wr);

  /// Async error notification (QP transitioned to error), the analogue of
  /// the ibverbs async event channel. Keepalive relies on this. Several
  /// subscribers may register (one per context sharing the NIC).
  void add_qp_error_handler(std::function<void(QpNum, Errc)> h) {
    qp_error_handlers_.push_back(std::move(h));
  }

  // --- Fault injection -----------------------------------------------------
  /// A dead host neither transmits nor receives (machine crash, §V-A).
  void set_alive(bool alive);
  bool alive() const { return alive_; }

  RnicStats& stats() { return stats_; }
  const RnicStats& stats() const { return stats_; }

 private:
  struct Mr {
    MrInfo info;
    Buffer storage;  // empty for synthetic MRs
    bool real = false;
  };

  struct Cq {
    std::uint32_t depth = 0;
    std::deque<Wc> wcs;
    std::function<void()> on_event;
  };

  struct Srq {
    std::uint32_t depth = 0;
    std::deque<RecvWr> wqes;
  };

  struct PendingWr {
    SendWr wr;
    std::uint64_t msg_id = 0;
    std::uint32_t seg_off = 0;  // next byte to segment
    bool segmented_any = false;
    Nanos eligible_at = 0;  // post time + tx overheads
  };

  struct InflightPkt {
    RnicPacketPtr pkt;
    std::uint32_t wire_bytes = 0;
    // Completion to raise when this packet is cumulatively acked (tail of a
    // send/write message).
    bool completes_wr = false;
    std::uint64_t wr_id = 0;
    WcOpcode wc_op = WcOpcode::send;
    bool signaled = false;
    std::uint32_t byte_len = 0;
    std::uint8_t rnr_used = 0;
    std::uint8_t rnr_budget = 0;
  };

  struct ReadTrack {
    std::uint64_t msg_id = 0;
    SendWr wr;  // kept for reissue
    std::uint32_t next_off = 0;
    Nanos deadline = 0;
    std::uint8_t retries = 0;
  };

  struct RecvAssembly {
    bool active = false;
    std::uint64_t msg_id = 0;
    RecvWr rqe;
    bool from_srq = false;
  };

  /// Responder-side read response generation, materialized one fragment at
  /// a time through the tx scheduler so huge reads don't buffer the whole
  /// response.
  struct RespJob {
    std::uint64_t msg_id = 0;
    std::uint64_t addr = 0;
    std::uint32_t total = 0;
    std::uint32_t off = 0;
  };

  struct Qp {
    QpNum num = kInvalidId;
    QpState state = QpState::reset;
    CqId send_cq = kInvalidId;
    CqId recv_cq = kInvalidId;
    SrqId srq = kInvalidId;
    QpCaps caps;
    QpAttr attr;

    // Requester state.
    std::deque<PendingWr> sq;
    std::deque<InflightPkt> resend;    // retransmissions, before new work
    std::deque<InflightPkt> inflight;  // unacked, ascending psn
    std::uint64_t snd_nxt = 0;
    std::uint64_t snd_una = 0;
    std::uint64_t next_msg_id = 1;
    std::uint8_t retry_used = 0;
    Nanos gated_until = 0;  // RNR backoff gate
    std::vector<ReadTrack> reads;

    // Responder state.
    std::uint64_t exp_psn = 0;
    bool nak_sent_for_gap = false;
    RecvAssembly assembly;
    std::uint32_t unacked_pkts = 0;
    std::deque<RecvWr> rq;        // receive queue (unless attached to an SRQ)
    std::deque<RespJob> responses;

    Dcqcn dcqcn;
    Nanos last_cnp_sent = -kNanosPerSec;

    bool in_ready_ring = false;
    bool timer_armed = false;
    Nanos last_progress = 0;
    // TX pipeline serialization point: WQE fetch + DMA setup for
    // consecutive posts on one QP go through the same engine, so a WR's
    // eligible_at starts where the previous one left off.
    Nanos tx_pipe_busy_until = 0;

    explicit Qp(const RnicConfig& cfg)
        : dcqcn(cfg.dcqcn, cfg.line_rate_gbps) {}
  };

  // Lifecycle / tables.
  Mr* find_mr_by_lkey(std::uint32_t lkey);
  Mr* find_mr_by_rkey(std::uint32_t rkey);
  Mr* find_mr_by_addr(std::uint64_t addr, std::uint64_t len);
  Qp* find_qp(QpNum qpn);
  const Qp* find_qp(QpNum qpn) const;
  Cq* find_cq(CqId cq);

  // Completion plumbing.
  void push_wc(CqId cq, Wc wc);
  void qp_to_error(Qp& qp, Errc reason);
  void flush_queues(Qp& qp, Errc head_reason);

  // TX path.
  Errc validate_send(Qp& qp, const SendWr& wr);
  void mark_ready(Qp& qp);
  void schedule_pump(Nanos at);
  void pump();
  bool qp_has_tx_work(const Qp& qp) const;
  Nanos tx_gate(const Qp& qp, Nanos now) const;
  /// Builds (or takes) the next packet for `qp`; returns nullptr if none.
  /// Appends requester packets to the inflight window as a side effect.
  RnicPacketPtr next_packet(Qp& qp, std::uint32_t& wire_bytes);
  RnicPacketPtr segment_next(Qp& qp);
  void transmit(Qp& qp, RnicPacketPtr pkt, std::uint32_t wire_bytes);
  void send_control(Qp& qp, PktType type, std::uint64_t ack_psn);
  std::uint32_t wire_size(const RnicPacket& pkt) const;
  Nanos touch_qp_cache(QpNum qpn);

  // RX path.
  void handle_packet(const RnicPacket& pkt, bool ecn_ce);
  void responder_data(Qp& qp, const RnicPacket& pkt);
  void requester_ack(Qp& qp, const RnicPacket& pkt);
  void handle_read_resp(Qp& qp, const RnicPacket& pkt);
  void maybe_ack(Qp& qp, bool msg_tail);
  void maybe_cnp(Qp& qp);
  bool consume_rqe(Qp& qp, RecvWr& out, bool& from_srq);

  // Retransmission timer.
  void arm_qp_timer(Qp& qp);
  void qp_timer_fired(QpNum qpn);
  void rewind_to(Qp& qp, std::uint64_t psn, bool rnr);

  sim::Engine& engine_;
  net::Endpoint& endpoint_;
  RnicConfig config_;
  bool alive_ = true;

  std::uint64_t next_addr_ = 0x10000000ULL;
  std::uint32_t next_key_ = 1;
  std::uint32_t next_cq_ = 1;
  std::uint32_t next_srq_ = 1;
  std::uint32_t next_qpn_ = 1;

  std::map<std::uint64_t, std::unique_ptr<Mr>> mrs_by_addr_;  // base -> Mr
  std::unordered_map<std::uint32_t, Mr*> mr_lkey_;
  std::unordered_map<std::uint32_t, Mr*> mr_rkey_;
  std::unordered_map<CqId, std::unique_ptr<Cq>> cqs_;
  std::unordered_map<SrqId, std::unique_ptr<Srq>> srqs_;
  std::unordered_map<QpNum, std::unique_ptr<Qp>> qps_;

  // TX scheduler.
  std::deque<QpNum> ready_ring_;
  bool pump_scheduled_ = false;
  sim::Engine::EventId pump_event_;

  // QP context cache (on-NIC SRAM): LRU over QP numbers.
  std::list<QpNum> qp_cache_lru_;
  std::unordered_map<QpNum, std::list<QpNum>::iterator> qp_cache_pos_;

  std::vector<std::function<void(QpNum, Errc)>> qp_error_handlers_;
  RnicStats stats_;
};

}  // namespace xrdma::rnic
