// Channel: one X-RDMA connection (§IV).
//
// A channel owns an RC queue pair and layers the paper's protocol
// extensions over it:
//   - seq-ack window (Algorithm 1) for application-level delivery
//     acknowledgement and RNR-freedom: the sender never has more data
//     messages outstanding than the window depth, and the receiver
//     pre-posts bounce buffers for the whole window plus control slack;
//   - mixed message model: eager SEND below small_msg_size, rendezvous
//     descriptor + receiver-driven fragmented RDMA Read above it (the same
//     pull path implements Read-replace-Write for RPC responses);
//   - keepAlive: zero-byte RDMA Write probes after idle, answered by the
//     peer RNIC in hardware; a dead peer surfaces as a QP error and the
//     channel releases its resources instead of leaking them;
//   - NOP deadlock-break and standalone ACKs (windowless control messages);
//   - built-in RPC (request/response with id matching and timeouts);
//   - self-healing (§VI-C): a transport fault parks the channel in
//     `recovering`, re-establishes the QP through CM (drawing on the QP
//     cache) with capped exponential backoff, replays the unacked send
//     window (the receiver window dedups, so delivery stays exactly-once
//     in-order), and — once the reconnect budget is exhausted — escalates
//     to the Mock TCP fallback while probing RDMA in the background.
//
// Everything runs run-to-complete inside Context::polling(); a channel is
// owned by exactly one context/thread and takes no locks.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "analysis/recorder.hpp"
#include "common/bytes.hpp"
#include "common/enum_names.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/memcache.hpp"
#include "core/msg.hpp"
#include "core/stats.hpp"
#include "core/window.hpp"
#include "sim/timer.hpp"
#include "verbs/verbs.hpp"

namespace xrdma::core {

class Context;

// Channel states, named as xr_stat and xr_triage print them.
#define XRDMA_CHANNEL_STATES(X)                                               \
  X(established, "ESTABLISHED")                                               \
  /* Transport fault: QP resume / fallback escalation running. */             \
  X(recovering, "RECOVERING")                                                 \
  X(closing, "CLOSING")                                                       \
  X(closed, "CLOSED")                                                         \
  X(error, "ERROR")

class Channel {
 public:
  enum class State : std::uint8_t { XRDMA_CHANNEL_STATES(XRDMA_ENUM_ID) };

  using MsgHandler = std::function<void(Channel&, Msg&&)>;
  using ErrorHandler = std::function<void(Channel&, Errc)>;
  using RpcCallback = std::function<void(Result<Msg>)>;
  using WritableHandler = std::function<void(Channel&)>;

  ~Channel();
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // --- Table I surface ----------------------------------------------------
  /// One-way message. Queues when the window is full; fails when closed.
  Errc send_msg(Buffer payload);
  /// Zero-copy variant: `block` must come from this context's reg_mem();
  /// ownership passes to the channel and it is freed once the peer acks.
  Errc send_msg(const MemBlock& block, std::uint32_t len);

  /// RPC: send a request, invoke `cb` with the response or an error.
  Errc call(Buffer request, RpcCallback cb, Nanos timeout = millis(100));
  /// Respond to a received request (Msg::rpc_id). Large responses go down
  /// the rendezvous path, i.e. the requester RDMA-Reads them (§IV-C).
  /// Passing the request's Msg::trace_id as `parent_trace_id` stitches the
  /// response into the same trace chain (and forces it traced, so sampled
  /// request→response chains always complete).
  Errc reply(std::uint64_t rpc_id, Buffer response,
             std::uint64_t parent_trace_id = 0);

  void set_on_msg(MsgHandler h) { on_msg_ = std::move(h); }
  void set_on_error(ErrorHandler h) { on_error_ = std::move(h); }
  /// Backpressure relief: after a send/call returned Errc::would_block,
  /// fires once (edge-triggered) when the tx queue drains to half of each
  /// cap and memory pressure has cleared.
  void set_on_writable(WritableHandler h) { on_writable_ = std::move(h); }

  /// Graceful close: FIN to the peer, QP recycled into the QP cache.
  void close();

  // --- Introspection --------------------------------------------------------
  State state() const { return state_; }
  bool usable() const { return state_ == State::established; }
  net::NodeId peer_node() const { return peer_; }
  std::uint64_t id() const { return id_; }
  rnic::QpNum qp_num() const { return qp_.num(); }
  Context& context() { return ctx_; }
  const ChannelStats& stats() const { return stats_; }
  /// Connection token minted at connect time: the stable identity that
  /// survives QP replacement (resume handshake, Mock fallback hello).
  std::uint64_t conn_token() const { return conn_token_; }
  /// Negotiated at CM handshake time: the effective wire version (highest
  /// both ranges contain) and feature set (AND of both ends) in force on
  /// this channel. A channel to an old build runs v1 with no features.
  std::uint16_t proto_version() const { return proto_version_; }
  std::uint32_t proto_features() const { return proto_features_; }
  /// Drain flush check: every send acked and dequeued, and no receive-side
  /// assembly (rendezvous pull, parked pull) still outstanding.
  bool quiescent();
  Nanos last_tx_time() const { return last_tx_; }
  Nanos last_rx_time() const { return last_rx_; }
  std::size_t inflight_msgs() const { return swin_.inflight(); }
  std::size_t queued_msgs() const { return pending_tx_.size(); }
  std::uint64_t queued_bytes() const { return pending_tx_bytes_; }
  Nanos last_alive_time() const { return last_alive_; }
  Seq tx_seq() const { return swin_.next_seq(); }
  Seq rx_rta() const { return rwin_.rta(); }
  // X-Check window-conservation oracle: both window edges plus the
  // negotiated depths, so SEQ/ACKED/WTA/RTA relationships are observable
  // from outside between any two simulation events.
  Seq tx_acked() const { return swin_.acked(); }
  Seq rx_wta() const { return rwin_.wta(); }
  std::uint32_t send_window_depth() const { return swin_.depth(); }
  std::uint32_t recv_window_depth() const { return rwin_.depth(); }

  // --- Alternate transport (Mock, §VI-C) ------------------------------------
  /// When set, encoded messages bypass the QP and go through this hook
  /// (the TCP fallback). Large messages are forced inline.
  void set_tx_override(std::function<Errc(Buffer)> f) {
    tx_override_ = std::move(f);
  }
  bool mocked() const { return static_cast<bool>(tx_override_); }
  /// Ingress for bytes arriving over the alternate transport (one whole
  /// wire message per call).
  void on_alt_rx(const std::uint8_t* data, std::uint32_t len);
  /// The fallback transport finished attaching (tx_override installed). A
  /// recovering channel resumes here: it replays the unacked window over
  /// the new path and, on the connector side, keeps probing RDMA so the
  /// channel migrates back when the path heals.
  void on_fallback_attached();
  /// The fallback stream died or was torn down. Unsolicited loss while the
  /// QP is also gone re-enters recovery.
  void on_fallback_lost();

 private:
  friend class Context;

  struct PendingSend {
    std::uint16_t flags = 0;
    std::uint64_t rpc_id = 0;
    std::uint64_t trace_hint = 0;  // propagate this trace id (0 = mint one)
    Nanos deadline = 0;            // RPC deadline (absolute local time)
    Buffer payload;
    MemBlock zc_block;  // zero-copy payload (valid() when used)
  };

  /// One unacked send-window entry: the header template every (re)frame
  /// starts from, plus one payload source. The bytes live in `payload`
  /// until a frame stages them — into `payload_block` (rendezvous) or the
  /// tail of `wire_block` (eager) — or in `payload_block` from the start
  /// (zero-copy). Inline and mock frames never stage.
  struct TxEntry {
    WireHeader hdr;
    Buffer payload;
    MemBlock payload_block;  // rendezvous source (staged copy or zero-copy)
    MemBlock wire_block;     // staged SEND bytes (header [+ eager payload])
    std::uint16_t integrity_retries = 0;  // integrity-NAK replays so far
  };

  /// The four wire shapes a data message can take.
  enum class Shape : std::uint8_t {
    mock,        // whole message over the alternate stream
    inline_wqe,  // header + payload carried in the WQE (IBV_SEND_INLINE)
    eager,       // header + payload staged in a ctrl-cache block
    rendezvous,  // descriptor only; the receiver RDMA-Reads payload_block
  };

  struct RxState {
    WireHeader hdr;
    Buffer payload;
    MemBlock payload_block;   // rendezvous destination
    std::uint32_t reads_left = 0;
    Nanos t_arrive = 0;
    bool pull_deferred = false;  // rendezvous pull parked (memory pressure)
    bool pull_failed = false;    // pulled payload failed CRC; awaiting a
                                 // descriptor retransmit to retry the pull
  };

  /// `send_depth` is the negotiated in-flight depth (min of both sides'
  /// window_depth, exchanged in the CM private data).
  Channel(Context& ctx, verbs::Qp qp, net::NodeId peer, std::uint64_t id,
          std::uint32_t send_depth);

  void init_established();

  /// Flight-recorder append stamped with sim time and this channel's id.
  void record(analysis::RecEvent ev, std::uint16_t code = 0,
              std::uint64_t a = 0, std::uint64_t b = 0);
  /// The single place state_ changes: every transition lands in the
  /// recorder with the old state and the Errc that caused it.
  void set_state(State next, Errc why = Errc::ok);

  // TX path.
  Errc enqueue(std::uint16_t flags, std::uint64_t rpc_id, Buffer payload,
               MemBlock zc_block, std::uint64_t trace_hint = 0,
               Nanos deadline = 0);
  void pump_tx();
  /// Emits the front pending send. Returns false on memory exhaustion,
  /// leaving `p` untouched (still queued) for the mem-retry timer.
  bool emit_data(PendingSend& p);
  /// Frames window entry `e` from its header template and payload source
  /// into the shape the transport, size and inline limits call for, and
  /// sends it — the one builder behind first emission and every replay.
  /// Returns nullopt, leaving `e` untouched, when staging memory is
  /// exhausted.
  std::optional<Shape> frame(TxEntry& e);
  /// `e`'s payload bytes, from whichever source holds them (nullptr for
  /// synthetic payloads), and a copy of them to `dst`.
  const std::uint8_t* payload_src(const TxEntry& e);
  void copy_payload(const TxEntry& e, std::uint8_t* dst);
  /// The post tail of every data WR: egress fault injection, WR registry,
  /// send-path cost (CRC surcharge included), then the scheduled post.
  void post_data(const WireHeader& hdr, verbs::SendWr wr);
  /// Windowless control message. `aux_id`/`aux` ride in rpc_id/rv_addr
  /// (kFlagNak: the NAK'd seq and the retry-after hint in ns).
  void post_control(std::uint16_t flags, std::uint64_t aux_id = 0,
                    std::uint64_t aux = 0);
  /// DRAIN announcement (Context::begin_drain): tells the peer we are
  /// leaving gracefully, with a reconnect hint. No-op unless the peer
  /// negotiated kFeatDrain — an old build would mistake the flag for data.
  void send_drain(Nanos retry_after);

  // End-to-end integrity plane (kFeatE2eCrc; see README).
  /// Both ends negotiated the CRC TLV on this channel.
  bool crc_on() const { return (proto_features_ & kFeatE2eCrc) != 0; }
  Nanos crc_serialize(Nanos cost);
  /// encode() + CRC stamp: every tx path funnels its header serialization
  /// through here so a negotiated channel never emits an unstamped frame.
  void encode_stamped(const WireHeader& hdr, std::uint8_t* dst);
  /// Receive-side verification, run before ANY protocol state advances.
  /// Returns false when the frame must be dropped.
  bool verify_rx_integrity(const WireHeader& hdr, const std::uint8_t* bytes,
                           std::uint32_t len);
  /// Windowless NAK carrying the seq whose frame failed verification.
  void send_integrity_nak(Seq seq);
  /// Sender side: replay the unacked tail from the NAK'd seq (go-back-N —
  /// the receive window discarded everything after the dropped frame), or
  /// escalate Errc::integrity_error once the retry budget is spent.
  void on_integrity_nak(Seq seq);

  // Overload control (backpressure + memory-pressure degradation).
  bool tx_cap_reached(std::uint32_t len) const;
  bool tx_writable() const;
  void maybe_fire_writable();
  void account_dequeued(std::uint32_t len);
  void defer_rendezvous_pull(Seq seq, RxState& rx);
  void retry_deferred_pulls();
  void defer_retransmit();
  void arm_mem_retry();
  void mem_retry_fire();

  // RX path.
  void on_recv_wc(const verbs::Wc& wc);
  void process_wire(const std::uint8_t* bytes, std::uint32_t len);
  void handle_data(const WireHeader& hdr, const std::uint8_t* bytes,
                   std::uint32_t len);
  void start_rendezvous_pull(Seq seq, RxState& rx);
  void issue_pull_frags(Seq seq, RxState& rx);
  void on_read_frag_done(Seq seq, Errc status);
  void deliver(Seq seq, RxState& rx);
  void maybe_standalone_ack();
  void force_ack();

  // Control plumbing (driven by Context).
  void on_send_wc_control(std::uint16_t flags);
  void deadlock_tick();
  void rpc_timeout_scan();
  void keepalive_fire();
  void on_keepalive_wc(Errc status);
  /// Breaker just closed for our peer: pull the next RDMA probe forward.
  void nudge_probe();
  void on_qp_error(Errc reason);
  void post_bounce_buffers();
  void fail(Errc reason);
  void abort_calls(Errc reason);
  void release_qp(bool recycle);
  void free_tx_entry(TxEntry& e);
  /// Terminal-state cleanup shared by fail() and both graceful-close
  /// completions: drops queued sends, frees unacked window entries and
  /// half-pulled rendezvous payloads, and purges this channel's WRs. A
  /// channel closed with traffic still in flight (its ACK was lost) must
  /// not keep those blocks — the X-Check balance oracle found the leak.
  /// It then frees the window storage: the Context keeps closed channels
  /// (their stats still count), and each held ~21 KB of rings.
  void reclaim_windows();

  // Recovery (§VI-C). Any transport-level fault funnels through
  // handle_transport_fault, which decides between recovery and fail().
  void handle_transport_fault(Errc reason);
  void start_recovery(Errc reason);
  void schedule_recovery_attempt();
  void recovery_timer_fire();
  void resume_attempt_failed(Errc reason);
  void resume_adopt(verbs::Qp qp, Seq peer_rta);
  /// Abandon the dead QP: purge its registered WRs (their WCs are already
  /// flushed or will never arrive), unroute it, recycle it via the QP cache.
  void shed_qp();
  /// A peer that announced a drain is restarting on purpose: park the
  /// ladder for the rest of its window (at least one backoff step). True
  /// when parked.
  bool park_for_drain();
  /// Circuit-breaker gate. When the peer's breaker denies this channel,
  /// counts and records the fast-fail and returns false; the caller picks
  /// the fallback step.
  bool breaker_admits();
  void escalate_or_fail();
  void arm_rdma_probe();
  void retransmit_unacked();
  void retransmit_entry(TxEntry& e);
  void restart_pending_pulls();

  Context& ctx_;
  verbs::Qp qp_;
  net::NodeId peer_;
  std::uint64_t id_;
  State state_ = State::established;

  SendWindow<TxEntry> swin_;
  RecvWindow<RxState> rwin_;
  std::deque<PendingSend> pending_tx_;
  std::uint64_t pending_tx_bytes_ = 0;
  bool tx_blocked_ = false;          // a send was rejected; edge for writable
  bool retransmit_pending_ = false;  // retransmit parked on memory pressure
  sim::DeadlineTimer mem_retry_timer_;
  bool ack_inflight_ = false;
  bool nop_inflight_ = false;
  bool fin_sent_ = false;
  Seq last_scan_tx_seq_ = 0;  // deadlock-scan progress marker

  std::vector<MemBlock> bounce_;  // pre-posted receive buffers, wr_id = index

  std::uint64_t next_rpc_id_ = 1;
  struct PendingCall {
    RpcCallback cb;
    Nanos deadline = 0;
    Nanos t_start = 0;
  };
  std::map<std::uint64_t, PendingCall> calls_;

  sim::DeadlineTimer keepalive_timer_;
  bool keepalive_outstanding_ = false;
  Nanos keepalive_posted_ = 0;  // post time of the outstanding probe (RTT)
  Nanos last_alive_ = 0;  // last hardware-level proof the peer RNIC lives
  Nanos last_tx_ = 0;
  Nanos last_rx_ = 0;
  Nanos crc_tx_ready_ = 0;  // send-path CRC serialization watermark

  // Recovery state. The single timer serves three roles, dispatched on
  // state: reconnect backoff (connector), passive resume deadline
  // (acceptor), and background RDMA probe (while on the fallback).
  bool connector_ = false;          // we dialed; we drive the resume
  std::uint16_t connect_port_ = 0;  // peer's listen port (resume target)
  std::uint64_t conn_token_ = 0;
  std::uint16_t proto_version_ = 1;   // negotiated wire version
  std::uint32_t proto_features_ = 0;  // negotiated feature bitmap
  Errc recovery_reason_ = Errc::ok;
  std::uint32_t recovery_attempt_ = 0;
  std::uint32_t recovery_budget_ = 0;
  Nanos recovery_started_ = 0;
  sim::DeadlineTimer recovery_timer_;
  Rng recovery_rng_;  // backoff jitter (seeded per channel, deterministic)
  bool resume_inflight_ = false;
  bool restoring_ = false;  // deliberate fallback teardown in progress

  std::function<Errc(Buffer)> tx_override_;

  MsgHandler on_msg_;
  ErrorHandler on_error_;
  WritableHandler on_writable_;
  ChannelStats stats_;
};

inline constexpr auto kChannelStateNames =
    enum_names<Channel::State>({XRDMA_CHANNEL_STATES(XRDMA_ENUM_NAME)});

}  // namespace xrdma::core
