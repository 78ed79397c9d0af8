#include "core/channel.hpp"

#include <algorithm>
#include <cstring>

#include "common/backoff.hpp"
#include "common/crc32c.hpp"
#include "common/logging.hpp"
#include "core/context.hpp"
namespace xrdma::core {

namespace {
// Retry cadence for memory-deferred work; also the retry-after hint a
// receiver NAK carries back to the sender.
constexpr Nanos kMemRetryInterval = micros(100);

// Software send-path cost per message (framing, window bookkeeping, WR
// posting), plus the tracing tax in req-rsp mode. Calibrated; see
// EXPERIMENTS.md. The receive path runs inline in polling() and its cost is
// carried by the RNIC rx model.
Nanos send_path_cost(const Config& cfg) {
  constexpr Nanos kSendPathOverhead = nanos(250);
  constexpr Nanos kTraceOverhead = nanos(50);
  return kSendPathOverhead + (cfg.reqrsp_mode ? kTraceOverhead : 0);
}
}  // namespace

Channel::Channel(Context& ctx, verbs::Qp qp, net::NodeId peer,
                 std::uint64_t id, std::uint32_t send_depth)
    : ctx_(ctx),
      qp_(std::move(qp)),
      peer_(peer),
      id_(id),
      swin_(send_depth),
      rwin_(ctx.config().window_depth),
      mem_retry_timer_(ctx.engine(), [this] { mem_retry_fire(); }),
      keepalive_timer_(ctx.engine(), [this] { keepalive_fire(); }),
      recovery_timer_(ctx.engine(), [this] { recovery_timer_fire(); }) {
  recovery_rng_.reseed(ctx_.trace_epoch() ^ (id * 0x9e3779b97f4a7c15ULL));
}

Channel::~Channel() {
  // Normal teardown happens through close()/fail(); this is the context
  // destructor path.
  if (state_ == State::established || state_ == State::closing) {
    state_ = State::closed;
    release_qp(/*recycle=*/false);
  }
}

void Channel::record(analysis::RecEvent ev, std::uint16_t code,
                     std::uint64_t a, std::uint64_t b) {
  ctx_.recorder().log(ctx_.engine().now(), ev, code,
                      static_cast<std::uint32_t>(id_), a, b);
}

void Channel::set_state(State next, Errc why) {
  if (next == state_) return;
  record(analysis::RecEvent::chan_state, static_cast<std::uint16_t>(next),
         static_cast<std::uint64_t>(state_), static_cast<std::uint64_t>(why));
  state_ = next;
}

void Channel::init_established() {
  const Nanos now = ctx_.engine().now();
  last_tx_ = last_rx_ = last_alive_ = now;
  post_bounce_buffers();
  keepalive_timer_.arm_after(ctx_.config().keepalive_intv);
}

void Channel::post_bounce_buffers() {
  const Config& cfg = ctx_.config();
  if (cfg.use_srq) return;
  // Pre-post bounce buffers: the whole receive window plus control slack
  // (standalone ACKs, NOPs, FIN). The sender's window bound plus this
  // pre-posting is what makes the protocol RNR-free (§V-B).
  const std::uint32_t count = 2 * cfg.window_depth + 8;
  const std::uint32_t size = ctx_.bounce_slot_size();
  bounce_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    // Privileged: bounce buffers are what keeps the control plane (and
    // everything else) receivable — they may dip into the reserve.
    MemBlock block = ctx_.ctrl_cache_.alloc(size, /*privileged=*/true);
    if (!block.valid()) break;
    bounce_.push_back(block);
    qp_.post_recv({.wr_id = i, .sge = {block.addr, size, block.lkey}});
  }
}

// ---------------------------------------------------------------------------
// TX path.

Errc Channel::send_msg(Buffer payload) {
  return enqueue(0, 0, std::move(payload), MemBlock{});
}

Errc Channel::send_msg(const MemBlock& block, std::uint32_t len) {
  Buffer view = Buffer::synthetic(len);  // length carrier; bytes live in block
  return enqueue(0, 0, std::move(view), block);
}

Errc Channel::call(Buffer request, RpcCallback cb, Nanos timeout) {
  const std::uint64_t rpc_id = next_rpc_id_++;
  PendingCall pc;
  pc.cb = std::move(cb);
  pc.t_start = ctx_.engine().now();
  pc.deadline = timeout > 0 ? ctx_.engine().now() + timeout : 0;
  const Errc rc = enqueue(kFlagRpcReq, rpc_id, std::move(request), MemBlock{},
                          0, pc.deadline);
  if (rc != Errc::ok) return rc;
  calls_[rpc_id] = std::move(pc);
  ++stats_.rpc_calls;
  return Errc::ok;
}

Errc Channel::reply(std::uint64_t rpc_id, Buffer response,
                    std::uint64_t parent_trace_id) {
  return enqueue(kFlagRpcRsp, rpc_id, std::move(response), MemBlock{},
                 parent_trace_id);
}

Errc Channel::enqueue(std::uint16_t flags, std::uint64_t rpc_id,
                      Buffer payload, MemBlock zc_block,
                      std::uint64_t trace_hint, Nanos deadline) {
  // Transparent recovery: sends during `recovering` park in pending_tx_
  // and drain once the channel resumes — the application never notices.
  if (state_ != State::established && state_ != State::recovering) {
    return Errc::channel_closed;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  // Lifecycle drain — ours or the peer's announced one: stop admitting new
  // sends so the windows can flush (RPC responses still pass; completing
  // accepted requests is part of the flush). Same would_block surface as
  // overload backpressure; code 1 = local drain, 2 = peer drain.
  if ((flags & kFlagRpcRsp) == 0 &&
      (ctx_.draining() || ctx_.health().peer_draining(peer_))) {
    ++stats_.tx_would_block;
    tx_blocked_ = true;
    record(analysis::RecEvent::overload_would_block,
           ctx_.draining() ? 1 : 2, len);
    return Errc::would_block;
  }
  // Hard memory pressure: shed all new work. RPC responses still pass —
  // completing accepted requests is how the backlog drains.
  if ((flags & kFlagRpcRsp) == 0 &&
      ctx_.mem_pressure() == MemPressure::hard) {
    ++stats_.tx_shed;
    ++stats_.tx_would_block;
    tx_blocked_ = true;
    record(analysis::RecEvent::overload_shed, 0, len);
    return Errc::would_block;
  }
  // Bounded queue: past either cap the caller must wait for on_writable.
  // An empty queue always admits one message (progress guarantee for
  // payloads larger than the byte cap).
  if (!pending_tx_.empty() && tx_cap_reached(len)) {
    ++stats_.tx_would_block;
    tx_blocked_ = true;
    record(analysis::RecEvent::overload_would_block, 0, len,
           pending_tx_bytes_);
    return Errc::would_block;
  }
  PendingSend p;
  p.flags = flags;
  p.rpc_id = rpc_id;
  p.trace_hint = trace_hint;
  p.deadline = deadline;
  p.payload = std::move(payload);
  p.zc_block = zc_block;
  if (swin_.full() || !pending_tx_.empty()) ++stats_.window_stalls;
  pending_tx_.push_back(std::move(p));
  pending_tx_bytes_ += len;
  ctx_.note_queued_tx(len);
  pump_tx();
  return Errc::ok;
}

bool Channel::tx_cap_reached(std::uint32_t len) const {
  const Config& cfg = ctx_.config();
  if (cfg.tx_queue_max_msgs > 0 &&
      pending_tx_.size() >= cfg.tx_queue_max_msgs) {
    return true;
  }
  if (cfg.tx_queue_max_bytes > 0 &&
      pending_tx_bytes_ + len > cfg.tx_queue_max_bytes) {
    return true;
  }
  if (cfg.ctx_tx_max_bytes > 0 &&
      ctx_.queued_tx_bytes() + len > cfg.ctx_tx_max_bytes) {
    return true;
  }
  return false;
}

bool Channel::tx_writable() const {
  const Config& cfg = ctx_.config();
  if (ctx_.mem_pressure() == MemPressure::hard) return false;
  // The low watermark: half of each cap.
  const auto below = [&](std::uint64_t cur, std::uint64_t cap) {
    return cap == 0 || cur <= cap / 2;
  };
  return below(pending_tx_.size(), cfg.tx_queue_max_msgs) &&
         below(pending_tx_bytes_, cfg.tx_queue_max_bytes) &&
         below(ctx_.queued_tx_bytes(), cfg.ctx_tx_max_bytes);
}

void Channel::maybe_fire_writable() {
  if (!tx_blocked_) return;
  if (state_ != State::established && state_ != State::recovering) return;
  // Drain rejections clear only when the drain does: ours on restart, the
  // peer's when its announced window lapses (the scan-tick sweep re-runs
  // this, so the edge fires then without a dequeue event).
  if (ctx_.draining() || ctx_.health().peer_draining(peer_)) return;
  if (!tx_writable()) return;
  tx_blocked_ = false;  // edge-triggered: re-arms on the next rejection
  ++stats_.writable_signals;
  if (on_writable_) on_writable_(*this);
}

void Channel::account_dequeued(std::uint32_t len) {
  pending_tx_bytes_ -= len;
  ctx_.note_queued_tx(-static_cast<std::int64_t>(len));
}

void Channel::pump_tx() {
  while (!pending_tx_.empty() && !swin_.full() &&
         state_ == State::established) {
    PendingSend& p = pending_tx_.front();
    if (!emit_data(p)) {
      // Memory exhausted: leave the message queued and retry on the timer
      // (graceful degradation — the pool drains as acks retire entries).
      ++stats_.tx_mem_deferrals;
      record(analysis::RecEvent::overload_mem_defer, 0,
             pending_tx_.size());
      arm_mem_retry();
      break;
    }
    account_dequeued(static_cast<std::uint32_t>(p.payload.size()));
    pending_tx_.pop_front();
  }
  maybe_fire_writable();
}

bool Channel::emit_data(PendingSend& p) {
  const Config& cfg = ctx_.config();
  const Nanos now = ctx_.engine().now();
  const std::uint32_t len = static_cast<std::uint32_t>(p.payload.size());
  // pump_tx guarantees window space, so the push below lands on this seq.
  const Seq seq = swin_.next_seq();

  TxEntry e;
  WireHeader& hdr = e.hdr;
  hdr.version = proto_version_;
  hdr.flags = p.flags;
  hdr.seq = seq;
  hdr.rpc_id = p.rpc_id;
  hdr.payload_len = len;
  if ((p.flags & kFlagRpcReq) != 0 && p.deadline > 0) {
    // Deadline propagation (§VI): stamp the *remaining* budget at emit
    // time — client-side queueing consumed its share — relative, so it
    // survives unsynchronized host clocks. 0 means no deadline, so an
    // already-expired budget is clamped to 1 µs.
    const Nanos left = p.deadline > now ? p.deadline - now : 0;
    hdr.budget_us = static_cast<std::uint32_t>(std::max<Nanos>(
        1, std::min<Nanos>(left / kNanosPerMicro, 0xffffffffLL)));
  }

  // Tracing: req-rsp mode traces everything; bare-data mode samples by
  // trace_sample_mask (0 = off). A message carrying a parent trace id (an
  // RPC response to a traced request) is always traced so chains complete.
  const bool traced =
      p.trace_hint != 0 || cfg.reqrsp_mode ||
      (cfg.trace_sample_mask != 0 && (seq & cfg.trace_sample_mask) == 0);
  if (traced) {
    hdr.flags |= kFlagTraced;
    hdr.t_send = ctx_.local_time();
    // Fold in the context epoch: channel ids and seqs both restart per
    // context, so (id << 24) ^ seq alone collides across contexts.
    hdr.trace_id = p.trace_hint != 0
                       ? p.trace_hint
                       : ctx_.trace_epoch() ^ (id_ << 24) ^ seq;
  }

  if (p.zc_block.valid()) {
    e.payload_block = p.zc_block;  // freed on ack, like a staged copy
  } else {
    e.payload = p.payload;
  }
  if (crc_on()) {
    // Whole-message payload CRC (not per-fragment): one value covers the
    // eager copy, the WQE-inline bytes and a rendezvous pull alike, so the
    // receiver verifies exactly what the application handed us. Synthetic
    // payloads have no bytes to cover — the 0 sentinel tells the receiver
    // to skip payload verification (header integrity still applies).
    hdr.crc_present = true;
    if (const std::uint8_t* src = payload_src(e); src && len > 0) {
      hdr.payload_crc = crc32c(src, len);
    }
  }

  // A failed staging allocation leaves the message queued and the
  // window/ack state untouched so the mem-retry timer can try again.
  const std::optional<Shape> shape = frame(e);
  if (!shape) return false;
  swin_.push(std::move(e));

  ++stats_.msgs_tx;
  stats_.bytes_tx += len;
  if (*shape == Shape::inline_wqe) ++stats_.eager_copies_avoided;
  if (*shape == Shape::rendezvous) ++stats_.large_msgs_tx;
  last_tx_ = now;
  const WireHeader& sent = swin_.find(seq)->hdr;
  if (ctx_.recorder().sample(stats_.msgs_tx)) {
    record(analysis::RecEvent::msg_tx_sample, sent.flags, seq, len);
  }

  if (traced && ctx_.span_sink()) {
    SpanPostEvent ev;
    ev.trace_id = sent.trace_id;
    ev.channel_id = id_;
    ev.node = ctx_.node();
    ev.peer = peer_;
    ev.t_post = sent.t_send;
    // The WR reaches the NIC after the software send path; post_data
    // schedules it with exactly this cost (the mock path posts inline).
    ev.t_wire =
        sent.t_send + (*shape == Shape::mock ? 0 : send_path_cost(cfg));
    ev.bytes = len;
    ev.is_rpc_req = (p.flags & kFlagRpcReq) != 0;
    ev.is_rpc_rsp = (p.flags & kFlagRpcRsp) != 0;
    ctx_.span_sink()->on_span_post(ev);
  }
  return true;
}

std::optional<Channel::Shape> Channel::frame(TxEntry& e) {
  const Config& cfg = ctx_.config();
  WireHeader hdr = e.hdr;
  const std::uint32_t len = hdr.payload_len;

  // Pick the shape; staging memory is the only thing that can fail, so it
  // is allocated before any send state moves.
  Shape shape;
  if (tx_override_) {
    shape = Shape::mock;
  } else if (e.wire_block.valid()) {
    // Replay: the staged wire bytes survive in the control cache (and a
    // rendezvous source until the ack; MRs outlive the QP).
    shape = hdr.has(kFlagLarge) ? Shape::rendezvous : Shape::eager;
  } else if (len <= cfg.small_msg_size && !e.payload_block.valid() &&
             cfg.inline_max > 0 && len <= cfg.inline_max &&
             hdr.wire_size() + len <= ctx_.nic().config().max_inline_data) {
    shape = Shape::inline_wqe;
  } else {
    // Stage: rendezvous parks the payload in registered memory and sends
    // only the descriptor (§IV-C); eager copies it behind the header.
    const bool large = len > cfg.small_msg_size || e.payload_block.valid();
    MemBlock staged;
    if (large && !e.payload_block.valid()) {
      staged = ctx_.data_cache_.alloc(len);
      if (!staged.valid()) return std::nullopt;
      if (std::uint8_t* dst = ctx_.data_cache_.data(staged)) {
        copy_payload(e, dst);
      }
    }
    const MemBlock wire =
        ctx_.ctrl_cache_.alloc(hdr.wire_size() + (large ? 0 : len));
    if (!wire.valid()) {
      if (staged.valid()) ctx_.data_cache_.free(staged);
      return std::nullopt;
    }
    if (!large) copy_payload(e, ctx_.ctrl_cache_.data(wire) + hdr.wire_size());
    if (staged.valid()) e.payload_block = staged;
    if (large) {
      hdr.flags |= kFlagLarge;
      hdr.rv_addr = e.payload_block.addr;
      hdr.rv_rkey = e.payload_block.rkey;
    }
    e.wire_block = wire;
    e.payload = Buffer{};
    shape = large ? Shape::rendezvous : Shape::eager;
  }

  hdr.ack = rwin_.ack_to_send();
  rwin_.note_ack_sent();
  verbs::SendWr wr;
  switch (shape) {
    case Shape::mock: {
      // Whole message inline over the alternate stream, whatever shape the
      // entry had (a rendezvous descriptor is useless without a QP to read
      // through). The entry keeps its template so a later replay over RDMA
      // still finds its staging.
      hdr.flags &= static_cast<std::uint16_t>(~kFlagLarge);
      hdr.rv_addr = 0;
      hdr.rv_rkey = 0;
      Buffer wire = Buffer::make(hdr.wire_size() + len);
      encode_stamped(hdr, wire.data());
      copy_payload(e, wire.data() + hdr.wire_size());
      ++stats_.mock_tx;
      tx_override_(std::move(wire));
      return shape;
    }
    case Shape::inline_wqe:
      // IBV_SEND_INLINE: the wire message rides in the WQE itself — no
      // MemCache staging block, no tx DMA stage at the NIC. Stamped before
      // the egress filter, so injected corruption lands on stamped bytes
      // like a flip after a real NIC computed its CRC.
      wr.local = {0, hdr.wire_size() + len, 0};  // no MR backs the WQE
      wr.inline_data = true;
      wr.inline_payload = Buffer::make(wr.local.length);
      encode_stamped(hdr, wr.inline_payload.data());
      copy_payload(e, wr.inline_payload.data() + hdr.wire_size());
      ++stats_.inline_sends;
      break;
    case Shape::eager:
    case Shape::rendezvous:
      // Refresh the ack and CRC stamp in place (first send or replay).
      if (std::uint8_t* dst = ctx_.ctrl_cache_.data(e.wire_block)) {
        encode_stamped(hdr, dst);
      }
      wr.local = {e.wire_block.addr,
                  hdr.wire_size() + (shape == Shape::eager ? len : 0),
                  e.wire_block.lkey};
      break;
  }
  e.hdr = hdr;
  post_data(hdr, std::move(wr));
  return shape;
}

const std::uint8_t* Channel::payload_src(const TxEntry& e) {
  if (e.payload_block.valid()) return ctx_.data_cache_.data(e.payload_block);
  if (!e.wire_block.valid()) return e.payload.data();
  // Staged eager bytes sit right behind the header.
  const std::uint8_t* wire = ctx_.ctrl_cache_.data(e.wire_block);
  return wire ? wire + e.hdr.wire_size() : nullptr;
}

void Channel::copy_payload(const TxEntry& e, std::uint8_t* dst) {
  const std::uint8_t* src = payload_src(e);
  if (src && e.hdr.payload_len > 0) std::memcpy(dst, src, e.hdr.payload_len);
}

void Channel::post_data(const WireHeader& hdr, verbs::SendWr wr) {
  const Config& cfg = ctx_.config();
  // Egress fault injection (Filter, §VI-C). A dropped message stays in the
  // send window — only a recovery replay can deliver it.
  Nanos extra = 0;
  MemBlock transient;  // corrupted egress copy; freed when its WC lands
  if (ctx_.egress_filter_) {
    const auto d = ctx_.egress_filter_(*this, hdr);
    if (d.action == Context::FilterAction::drop) {
      ++stats_.egress_drops;
      return;
    }
    if (d.action == Context::FilterAction::delay) extra = d.delay;
    if (d.action == Context::FilterAction::corrupt) {
      const std::uint32_t len = wr.local.length;
      if (wr.inline_data) {
        // The WQE-carried bytes are this post's own copy: flip in place.
        wr.inline_payload.data()[d.corrupt_seed % len] ^= 0x40;
      } else if (const std::uint8_t* src = ctx_.ctrl_cache_.data(
                     MemBlock{wr.local.addr, len, wr.local.lkey});
                 src && len > 0) {
        // Corrupt a transient copy, never the staged block itself: the
        // send window retains it as the retransmit template, so an
        // in-place flip would make every recovery replay re-send the
        // corrupted bytes. Allocation failure posts the clean block: the
        // injected fault degrades to a no-op, deterministically.
        transient = ctx_.ctrl_cache_.alloc(len);
        if (transient.valid()) {
          std::uint8_t* p = ctx_.ctrl_cache_.data(transient);
          std::memcpy(p, src, len);
          p[d.corrupt_seed % len] ^= 0x40;
          wr.local = {transient.addr, len, transient.lkey};
        }
      }
    }
  }
  wr.wr_id = ctx_.register_wr(
      {WrKind::data_send, id_, 0, 0, transient, false});
  wr.opcode = verbs::Opcode::send_imm;  // imm carries the ACK low bits (§V-B)
  wr.imm = static_cast<std::uint32_t>(rwin_.last_ack_sent());
  // Software send-path cost (plus the tracing tax in req-rsp mode, plus the
  // CRC pass over the covered bytes — header and, when real, payload —
  // modeling a hardware-assisted CRC32C at ~16 bytes/ns).
  Nanos cost = send_path_cost(cfg);
  if (hdr.crc_present) {
    cost += static_cast<Nanos>(
        (hdr.wire_size() + (hdr.payload_crc != 0 ? hdr.payload_len : 0)) / 16);
    cost = crc_serialize(cost);
  }
  const std::uint64_t chan_id = id_;
  ctx_.engine().schedule_after(cost + extra, [ctx = &ctx_, chan_id, wr] {
    if (Channel* ch = ctx->channel_by_id(chan_id);
        ch && (ch->state_ == State::established ||
               ch->state_ == State::closing) &&
        ch->qp_.valid()) {
      ctx->post_or_queue(*ch, wr);
    }
  });
}

void Channel::post_control(std::uint16_t flags, std::uint64_t aux_id,
                           std::uint64_t aux) {
  if (state_ == State::closed || state_ == State::error) return;
  if (flags & kFlagNak) {
    record(analysis::RecEvent::overload_nak_tx, 0, aux_id, aux);
  }
  WireHeader hdr;
  hdr.version = proto_version_;
  hdr.flags = flags;
  hdr.rpc_id = aux_id;
  hdr.rv_addr = aux;
  if ((flags & (kFlagNak | kFlagDrain)) != 0 && proto_version_ >= 2) {
    // Wire v2 also carries the hint as a header TLV — the extensible-field
    // path new builds grow through; rv_addr keeps it for v1 interop. On a
    // CRC channel the TLV area belongs to the CRC (encode() prefers it);
    // the hint still rides rv_addr, which every version reads first.
    hdr.retry_after_us = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(aux / kNanosPerMicro, 0xffffffffull));
  }
  hdr.crc_present = crc_on();
  hdr.ack = rwin_.ack_to_send();
  rwin_.note_ack_sent();

  if (flags & kFlagAckOnly) {
    ack_inflight_ = true;
    ++stats_.acks_tx;
  }
  if (flags & kFlagNop) {
    nop_inflight_ = true;
    ++stats_.nops_tx;
  }
  last_tx_ = ctx_.engine().now();

  // Egress fault injection: a dropped control message is "sent" locally
  // (inflight flags clear as if its WC arrived) but never reaches the wire.
  if (ctx_.egress_filter_) {
    const auto d = ctx_.egress_filter_(*this, hdr);
    if (d.action == Context::FilterAction::drop) {
      ++stats_.egress_drops;
      on_send_wc_control(flags);
      return;
    }
  }

  if (tx_override_) {
    Buffer wire = Buffer::make(hdr.wire_size());
    encode_stamped(hdr, wire.data());
    tx_override_(std::move(wire));
    on_send_wc_control(flags);  // no WC will come back
    return;
  }

  // Privileged: control messages ride the reserved quota so liveness never
  // depends on the data backlog (§VI graceful degradation).
  MemBlock block = ctx_.ctrl_cache_.alloc(hdr.wire_size(), /*privileged=*/true);
  if (!block.valid()) {
    // Even the reserve is gone. Clear the inflight marks (no WC will ever
    // come back for this message — the old code silently leaked them, so a
    // dropped FIN hung close() forever) and surface the FIN failure.
    ++stats_.ctrl_alloc_failures;
    if (flags & kFlagAckOnly) ack_inflight_ = false;
    if (flags & kFlagNop) nop_inflight_ = false;
    if (flags & kFlagFin) fail(Errc::resource_exhausted);
    return;
  }
  encode_stamped(hdr, ctx_.ctrl_cache_.data(block));

  verbs::SendWr wr;
  wr.wr_id = ctx_.register_wr(
      {WrKind::ctrl_send, id_, 0, flags, block, false});
  wr.opcode = verbs::Opcode::send_imm;
  wr.imm = static_cast<std::uint32_t>(rwin_.last_ack_sent());
  wr.local = {block.addr, hdr.wire_size(), block.lkey};
  // Control bypasses the flow-control queue: it is tiny and carries the
  // acks that unblock everything else.
  if (qp_.post_send(wr) == Errc::ok) {
    ++stats_.doorbells;
    ++stats_.doorbell_wrs;
  } else {
    ctx_.release_wr(wr.wr_id);
    ctx_.ctrl_cache_.free(block);
  }
}

void Channel::send_drain(Nanos retry_after) {
  if (state_ != State::established) return;
  // Only a peer that negotiated kFeatDrain can parse the announcement (an
  // old build's is_data() would mistake the unknown flag for data). It
  // still sees our FINs — the close stays clean, just without the
  // graceful grade on its health plane.
  if ((proto_features_ & kFeatDrain) == 0) return;
  ++stats_.drains_tx;
  post_control(kFlagDrain, 0, static_cast<std::uint64_t>(retry_after));
}

// ---------------------------------------------------------------------------
// End-to-end integrity plane (kFeatE2eCrc).

Nanos Channel::crc_serialize(Nanos cost) {
  // The CRC pass runs on the single serialized send path: a large payload's
  // checksum delays every LATER post behind it, it never lets one overtake.
  // Without this clamp a rendezvous descriptor's surcharge would reorder it
  // behind tens of cheaper eager frames and blow out the receive window.
  const Nanos now = ctx_.engine().now();
  Nanos ready = now + cost;
  if (ready < crc_tx_ready_) ready = crc_tx_ready_;
  crc_tx_ready_ = ready;
  return ready - now;
}

void Channel::encode_stamped(const WireHeader& hdr, std::uint8_t* dst) {
  hdr.encode(dst);
  if (hdr.crc_present) {
    hdr.stamp_crc(dst);
    ++stats_.crc_stamped_tx;
  }
}

bool Channel::verify_rx_integrity(const WireHeader& hdr,
                                  const std::uint8_t* bytes,
                                  std::uint32_t len) {
  if (!crc_on()) return true;  // feature off: TLVs (if any) are ignored
  bool ok;
  if (!hdr.crc_present) {
    // A negotiated channel stamps every frame, so a frame arriving without
    // the TLV had its TLV area corrupted (count/type/len byte): treating it
    // as intact would be a verification bypass. Control frames are the
    // exception that proves the rule — they fail here too and are dropped,
    // which the ack/NOP/timer machinery already recovers from.
    ok = false;
  } else {
    ok = WireHeader::verify_hdr_crc(bytes, len, hdr);
    if (ok && hdr.is_data() && !hdr.has(kFlagLarge) && hdr.payload_len > 0 &&
        hdr.payload_crc != 0) {
      // Eager payload rides in this frame: verify it now. Rendezvous
      // payloads are verified after the pull (on_read_frag_done).
      ok = hdr.wire_size() + hdr.payload_len <= len &&
           crc32c(bytes + hdr.wire_size(), hdr.payload_len) ==
               hdr.payload_crc;
    }
  }
  if (ok) return true;
  ++stats_.crc_failures_rx;
  ctx_.health().note_crc_failure(peer_);
  record(analysis::RecEvent::crc_fail_rx, hdr.flags, hdr.seq,
         hdr.payload_len);
  // NAK only what claims to be data: a corrupted control frame has no
  // window entry to replay, and its loss is equivalent to a drop fault.
  // (The flags byte itself may be corrupted — this is best-effort; a data
  // frame masquerading as control is recovered like a drop.)
  //
  // The NAK carries OUR next-expected seq, not hdr.seq: the header just
  // failed verification, so its seq field is exactly the kind of byte the
  // corruption may have hit. Everything below rx_wta was delivered in
  // order; the damaged frame is at or above it, so go-back-N from rx_wta
  // always covers it. (The rendezvous pull path NAKs the frame's own seq —
  // there the header DID verify, only the pulled payload didn't.)
  if (hdr.is_data()) send_integrity_nak(rwin_.wta());
  return false;
}

void Channel::send_integrity_nak(Seq seq) {
  ++stats_.integrity_naks_tx;
  record(analysis::RecEvent::integrity_nak_tx, 0, seq);
  post_control(kFlagIntegrityNak, seq, 0);
}

void Channel::on_integrity_nak(Seq seq) {
  ++stats_.integrity_naks_rx;
  record(analysis::RecEvent::integrity_nak_rx, 0, seq);
  TxEntry* ent = swin_.find(seq);
  if (!ent) return;  // already acked, or the NAK'd seq itself is garbage
  const std::uint32_t budget = ctx_.config().integrity_retry_max;
  ++ent->integrity_retries;
  if (budget > 0 && ent->integrity_retries > budget) {
    // Retries exhausted: something is persistently corrupting this message
    // (a torn source buffer, a broken staging path). Surface the true
    // cause — never folded into peer_dead; the peer is answering, its
    // answers just don't verify.
    ++stats_.integrity_exhausted;
    record(analysis::RecEvent::integrity_exhausted,
           static_cast<std::uint16_t>(budget), seq);
    ent->integrity_retries = 0;
    handle_transport_fault(Errc::integrity_error);
    return;
  }
  // Go-back-N from the NAK'd seq: the receive window only accepts rx_wta,
  // so every frame we sent after the dropped one was discarded
  // ahead-of-window and must be replayed too. Entries below the NAK'd seq
  // were received in order; the receiver's dedup absorbs any overlap.
  swin_.for_each_inflight([this, seq](Seq s, TxEntry& e) {
    if (s < seq || state_ != State::established) return;
    ++stats_.integrity_retransmits;
    record(analysis::RecEvent::integrity_retransmit,
           static_cast<std::uint16_t>(e.integrity_retries), s);
    retransmit_entry(e);
  });
}

bool Channel::quiescent() {
  if (swin_.inflight() != 0 || !pending_tx_.empty()) return false;
  bool assembling = false;
  rwin_.for_each_pending([&assembling](Seq, RxState&) { assembling = true; });
  return !assembling;
}

void Channel::on_send_wc_control(std::uint16_t flags) {
  if (flags & kFlagAckOnly) ack_inflight_ = false;
  if (flags & kFlagNop) nop_inflight_ = false;
  if ((flags & kFlagFin) && state_ == State::closing) {
    recovery_timer_.cancel();  // the FIN deadline
    set_state(State::closed);
    reclaim_windows();
    ctx_.channel_detach_qp(*this);  // before release_qp clears the QP num
    release_qp(/*recycle=*/true);
    ctx_.channel_closed(*this);
  }
}

void Channel::reclaim_windows() {
  for (PendingSend& p : pending_tx_) {
    if (p.zc_block.valid()) ctx_.data_cache_.free(p.zc_block);
  }
  pending_tx_.clear();
  ctx_.note_queued_tx(-static_cast<std::int64_t>(pending_tx_bytes_));
  pending_tx_bytes_ = 0;
  tx_blocked_ = false;
  retransmit_pending_ = false;
  mem_retry_timer_.cancel();
  swin_.process_ack(swin_.next_seq(),
                    [this](Seq, TxEntry& e) { free_tx_entry(e); });
  rwin_.for_each_pending([this](Seq, RxState& r) {
    if (r.payload_block.valid()) ctx_.data_cache_.free(r.payload_block);
  });
  swin_.release();
  rwin_.release();
  ctx_.purge_channel_wrs(id_);
}

// ---------------------------------------------------------------------------
// RX path.

void Channel::on_recv_wc(const verbs::Wc& wc) {
  if (wc.status != Errc::ok) return;  // flush during teardown
  if (wc.wr_id >= bounce_.size()) return;
  const MemBlock block = bounce_[static_cast<std::size_t>(wc.wr_id)];
  const std::uint8_t* bytes = ctx_.ctrl_cache_.data(block);
  if (bytes) process_wire(bytes, wc.byte_len);
  // Re-arm the bounce buffer immediately (run-to-complete), keeping the
  // receive queue topped up — the other half of RNR-freedom.
  if (state_ == State::established || state_ == State::closing) {
    const std::uint32_t size = ctx_.bounce_slot_size();
    qp_.post_recv({.wr_id = wc.wr_id, .sge = {block.addr, size, block.lkey}});
  }
}

void Channel::on_alt_rx(const std::uint8_t* data, std::uint32_t len) {
  process_wire(data, len);
}

void Channel::process_wire(const std::uint8_t* bytes, std::uint32_t len) {
  if (state_ == State::closed || state_ == State::error) return;
  WireHeader hdr;
  const HdrDecode drc = WireHeader::decode_ex(bytes, len, hdr);
  if (drc != HdrDecode::ok) {
    ++stats_.bad_messages;
    if (drc == HdrDecode::bad_version) {
      // Version skew, not corruption: count it by name and put it in the
      // ring so triage reads "peer speaks a version outside our range"
      // instead of a generic bad message.
      ++stats_.hdr_version_reject;
      record(analysis::RecEvent::hdr_version_reject,
             static_cast<std::uint16_t>(drc), len);
    }
    return;
  }
  // Unknown header TLVs skipped by the length rule (upgraded peer adding
  // fields we don't know yet): visible, never fatal.
  stats_.hdr_tlv_skipped += hdr.tlv_skipped;

  // Fault injection (Filter, §VI-C).
  Buffer corrupted;  // keeps the mutated copy alive through handling
  if (ctx_.filter_) {
    const auto decision = ctx_.filter_(*this, hdr);
    if (decision.action == Context::FilterAction::drop) {
      ++stats_.filtered_drops;
      return;
    }
    if (decision.action == Context::FilterAction::corrupt && len > 0) {
      corrupted = Buffer::make(len);
      std::memcpy(corrupted.data(), bytes, len);
      corrupted.data()[decision.corrupt_seed % len] ^= 0x40;
      bytes = corrupted.data();
      if (!WireHeader::decode(bytes, len, hdr)) {
        ++stats_.bad_messages;
        return;
      }
    }
    if (decision.action == Context::FilterAction::delay) {
      Buffer copy = Buffer::make(len);
      std::memcpy(copy.data(), bytes, len);
      const std::uint64_t chan_id = id_;
      ctx_.engine().schedule_after(
          decision.delay, [ctx = &ctx_, chan_id, copy]() {
            if (Channel* ch = ctx->channel_by_id(chan_id)) {
              // Re-entry bypasses the filter (consume the decision once).
              auto saved = std::move(ctx->filter_);
              ch->process_wire(copy.data(),
                               static_cast<std::uint32_t>(copy.size()));
              ctx->filter_ = std::move(saved);
            }
          });
      return;
    }
  }

  // End-to-end integrity (kFeatE2eCrc): verify before ANY protocol state
  // advances — a corrupted cumulative ack or control flag must never be
  // processed, and a corrupted frame is not proof of life.
  if (!verify_rx_integrity(hdr, bytes, len)) return;

  last_rx_ = ctx_.engine().now();
  ctx_.health().note_proof_of_life(peer_);

  // Piggybacked cumulative ack (Algorithm 1 sender RECV_MESSAGE).
  swin_.process_ack(hdr.ack, [this](Seq, TxEntry& e) { free_tx_entry(e); });
  pump_tx();

  if (hdr.has(kFlagAckOnly)) {
    ++stats_.acks_rx;
    return;
  }
  if (hdr.has(kFlagNop)) {
    ++stats_.nops_rx;
    return;
  }
  if (hdr.has(kFlagIntegrityNak)) {
    // The receiver dropped our frame on a CRC mismatch; rpc_id carries the
    // seq. Replay from the send window (go-back-N) or escalate.
    on_integrity_nak(hdr.rpc_id);
    return;
  }
  if (hdr.has(kFlagNak)) {
    // Receiver parked the rendezvous pull for hdr.rpc_id (the seq) under
    // memory pressure; it retries on its own (our descriptor stays valid —
    // the payload block is only freed on ack). Nothing to re-send: the NAK
    // exists so the stall reads as flow control, not silence.
    ++stats_.naks_rx;
    return;
  }
  if (hdr.has(kFlagDrain)) {
    // The peer announced a graceful drain: grade it `draining` (not
    // suspect/dead) for its announced window. The reconnect hint rides
    // rv_addr in ns (and, on wire v2, the retry-after TLV).
    ++stats_.drains_rx;
    Nanos hint = static_cast<Nanos>(hdr.rv_addr);
    if (hint == 0 && hdr.retry_after_us > 0) {
      hint = static_cast<Nanos>(hdr.retry_after_us) * kNanosPerMicro;
    }
    ctx_.recorder().log(ctx_.engine().now(), analysis::RecEvent::drain_rx, 0,
                        static_cast<std::uint32_t>(peer_),
                        static_cast<std::uint64_t>(hint), id_);
    ctx_.health().note_peer_draining(peer_, hint);
    return;
  }
  if (hdr.has(kFlagFin)) {
    set_state(State::closed, Errc::channel_closed);
    abort_calls(Errc::channel_closed);
    reclaim_windows();
    ctx_.channel_detach_qp(*this);  // before release_qp clears the QP num
    release_qp(/*recycle=*/true);
    ctx_.channel_closed(*this);
    if (on_error_) on_error_(*this, Errc::channel_closed);
    return;
  }

  handle_data(hdr, bytes, len);
  maybe_standalone_ack();
}

void Channel::handle_data(const WireHeader& hdr, const std::uint8_t* bytes,
                          std::uint32_t len) {
  RxState* rx = rwin_.arrive(hdr.seq);
  if (!rx) {
    if (hdr.seq < rwin_.wta()) {
      // Retransmit of a message that already arrived (recovery replay, or
      // the original landed just before the QP died). Exactly-once: never
      // hand it to the application again — but an inline replay can stand
      // in for an interrupted rendezvous pull, and the sender needs a
      // fresh ack either way so it can retire the entry.
      ++stats_.dup_msgs_rx;
      if (RxState* pending = rwin_.find(hdr.seq);
          pending && pending->pull_failed && hdr.has(kFlagLarge) &&
          hdr.payload_len == pending->hdr.payload_len) {
        // Descriptor retransmit for a pull whose bytes failed CRC: refresh
        // the descriptor (the sender's payload block is only freed on ack,
        // so the address is still live) and retry the pull.
        pending->hdr = hdr;
        pending->pull_failed = false;
        start_rendezvous_pull(hdr.seq, *pending);
        force_ack();
        return;
      }
      if (RxState* pending = rwin_.find(hdr.seq);
          pending &&
          (pending->reads_left > 0 || pending->pull_deferred ||
           pending->pull_failed) &&
          !hdr.has(kFlagLarge) &&
          hdr.payload_len == pending->hdr.payload_len) {
        pending->reads_left = 0;
        pending->pull_deferred = false;
        pending->pull_failed = false;
        if (pending->payload_block.valid()) {
          ctx_.data_cache_.free(pending->payload_block);
          pending->payload_block = MemBlock{};
        }
        if (hdr.payload_len > 0) {
          pending->payload = Buffer::make(hdr.payload_len);
          if (hdr.wire_size() + hdr.payload_len <= len) {
            std::memcpy(pending->payload.data(), bytes + hdr.wire_size(),
                        hdr.payload_len);
          }
        }
        rwin_.complete(hdr.seq, [this](Seq s, RxState& r) { deliver(s, r); });
      }
      force_ack();
      return;
    }
    // Ahead of the window: RC delivery makes this a protocol bug.
    ++stats_.bad_messages;
    return;
  }
  rx->hdr = hdr;
  rx->t_arrive = ctx_.engine().now();
  ++stats_.msgs_rx;
  stats_.bytes_rx += hdr.payload_len;

  if (!hdr.has(kFlagLarge)) {
    if (hdr.payload_len > 0) {
      rx->payload = Buffer::make(hdr.payload_len);
      if (hdr.wire_size() + hdr.payload_len <= len) {
        std::memcpy(rx->payload.data(), bytes + hdr.wire_size(),
                    hdr.payload_len);
      }
    }
    rwin_.complete(hdr.seq, [this](Seq s, RxState& r) { deliver(s, r); });
    return;
  }
  ++stats_.large_msgs_rx;
  start_rendezvous_pull(hdr.seq, *rx);
}

void Channel::start_rendezvous_pull(Seq seq, RxState& rx) {
  const std::uint32_t len = rx.hdr.payload_len;
  if (len == 0) {
    rwin_.complete(seq, [this](Seq s, RxState& r) { deliver(s, r); });
    return;
  }
  // Receiver-side degradation (§VI): under soft+ memory pressure, or when
  // the data pool is simply exhausted, park the pull and NAK the
  // descriptor instead of failing the channel (the old behavior). The
  // sender's payload stays put — its block is only freed on ack — so the
  // pull resumes losslessly once memory frees up.
  if (ctx_.mem_pressure() != MemPressure::normal) {
    defer_rendezvous_pull(seq, rx);
    return;
  }
  rx.payload_block = ctx_.data_cache_.alloc(len);
  if (!rx.payload_block.valid()) {
    defer_rendezvous_pull(seq, rx);
    return;
  }
  rx.pull_deferred = false;
  issue_pull_frags(seq, rx);
}

void Channel::defer_rendezvous_pull(Seq seq, RxState& rx) {
  if (!rx.pull_deferred) {
    rx.pull_deferred = true;
    ++stats_.pulls_deferred;
    ++stats_.naks_tx;
    record(analysis::RecEvent::overload_pull_defer, 0, seq,
           rx.hdr.payload_len);
    // Windowless NAK carrying the parked seq and a retry-after hint (ns),
    // so the sender reads the stall as flow control, not a dead peer.
    post_control(kFlagNak, seq,
                 static_cast<std::uint64_t>(kMemRetryInterval));
  }
  arm_mem_retry();
}

void Channel::retry_deferred_pulls() {
  if (tx_override_) return;  // no QP to read through; replays arrive inline
  rwin_.for_each_pending([this](Seq s, RxState& r) {
    if (!r.pull_deferred) return;
    r.pull_deferred = false;
    start_rendezvous_pull(s, r);  // may re-defer (and re-arm the timer)
  });
}

void Channel::arm_mem_retry() {
  if (!mem_retry_timer_.armed()) {
    mem_retry_timer_.arm_after(kMemRetryInterval);
  }
}

void Channel::mem_retry_fire() {
  if (state_ == State::closed || state_ == State::error) return;
  // Deferred pulls first: completing them frees sender-side entries (their
  // acks retire payload blocks), which is what drains the pressure.
  retry_deferred_pulls();
  if (retransmit_pending_ && state_ == State::established) {
    retransmit_pending_ = false;
    retransmit_unacked();  // receiver dedups; re-defers itself on failure
  }
  pump_tx();
  // Anything still parked keeps the cadence.
  bool parked = retransmit_pending_;
  rwin_.for_each_pending(
      [&parked](Seq, RxState& r) { parked |= r.pull_deferred; });
  if (state_ == State::established && !pending_tx_.empty() && !swin_.full()) {
    parked = true;  // pump stopped on memory, not the window
  }
  if (parked) arm_mem_retry();
}

void Channel::issue_pull_frags(Seq seq, RxState& rx) {
  // Fragmented pull (§V-C): moderate-size reads keep the RNIC preemptible;
  // with flow control off this degenerates to one huge WR — the Fig. 10
  // baseline.
  const Config& cfg = ctx_.config();
  const std::uint32_t len = rx.hdr.payload_len;
  const std::uint32_t frag = cfg.flowctl ? cfg.frag_size : len;
  std::uint32_t off = 0;
  std::uint32_t nfrags = 0;
  while (off < len) {
    const std::uint32_t n = std::min(frag, len - off);
    verbs::SendWr wr;
    wr.wr_id = ctx_.register_wr(
        {WrKind::read_frag, id_, seq, 0, MemBlock{}, false});
    wr.opcode = verbs::Opcode::read;
    wr.local = {rx.payload_block.addr + off, n, rx.payload_block.lkey};
    wr.remote_addr = rx.hdr.rv_addr + off;
    wr.rkey = rx.hdr.rv_rkey;
    ctx_.post_or_queue(*this, wr);
    off += n;
    ++nfrags;
  }
  rx.reads_left = nfrags;
  stats_.reads_issued += nfrags;
}

void Channel::on_read_frag_done(Seq seq, Errc status) {
  if (status != Errc::ok) {
    handle_transport_fault(status);
    return;
  }
  RxState* rx = rwin_.find(seq);
  if (!rx || rx->reads_left == 0) return;
  if (--rx->reads_left > 0) return;

  const std::uint32_t len = rx->hdr.payload_len;
  if (std::uint8_t* src = ctx_.data_cache_.data(rx->payload_block)) {
    // Post-pull verification (kFeatE2eCrc): the descriptor carried the
    // whole-message payload CRC, so a stale or torn RDMA Read — the source
    // mutated between descriptor and pull — is caught here, before the
    // bytes can reach the application.
    if (crc_on() && rx->hdr.crc_present && rx->hdr.payload_crc != 0 &&
        crc32c(src, len) != rx->hdr.payload_crc) {
      ++stats_.crc_failures_rx;
      ctx_.health().note_crc_failure(peer_);
      record(analysis::RecEvent::crc_fail_rx, rx->hdr.flags, seq, len);
      ctx_.data_cache_.free(rx->payload_block);
      rx->payload_block = MemBlock{};
      rx->pull_failed = true;  // slot waits for a descriptor retransmit
      send_integrity_nak(seq);
      return;
    }
    rx->payload = Buffer::make(len);
    std::memcpy(rx->payload.data(), src, len);
  } else {
    rx->payload = Buffer::synthetic(len);
  }
  ctx_.data_cache_.free(rx->payload_block);
  rx->payload_block = MemBlock{};
  rwin_.complete(seq, [this](Seq s, RxState& r) { deliver(s, r); });
}

void Channel::deliver(Seq seq, RxState& rx) {
  // Self-adaptive slow-operation logging (§VI-A method III): message
  // assembly (arrival to delivery, i.e. the rendezvous pull) exceeding the
  // threshold is recorded for the monitor to collect.
  const Nanos assembly = ctx_.engine().now() - rx.t_arrive;
  if (assembly > ctx_.config().slow_threshold) {
    Logger::global().log(
        ctx_.engine().now(), LogLevel::warn, "xr.channel",
        strfmt("slow assembly: seq=%llu took %s (node %u <- %u)",
               static_cast<unsigned long long>(seq),
               format_duration(assembly).c_str(), ctx_.node(), peer_));
  }
  Msg msg;
  msg.payload = std::move(rx.payload);
  msg.seq = seq;
  msg.rpc_id = rx.hdr.rpc_id;
  msg.is_rpc_req = rx.hdr.has(kFlagRpcReq);
  msg.is_rpc_rsp = rx.hdr.has(kFlagRpcRsp);
  msg.traced = rx.hdr.has(kFlagTraced);
  msg.t_send = rx.hdr.t_send;
  msg.t_deliver = ctx_.local_time();
  msg.trace_id = rx.hdr.trace_id;
  if (rx.hdr.budget_us > 0) {
    // Rebase the relative budget onto our clock: whatever the pull/queue
    // time consumed since arrival comes straight off the remaining budget.
    msg.has_deadline = true;
    const Nanos budget =
        static_cast<Nanos>(rx.hdr.budget_us) * kNanosPerMicro;
    const Nanos spent = ctx_.engine().now() - rx.t_arrive;
    msg.deadline_left = budget > spent ? budget - spent : 0;
  }

  if (msg.traced && ctx_.span_sink()) {
    SpanDeliverEvent ev;
    ev.trace_id = msg.trace_id;
    ev.channel_id = id_;
    ev.node = ctx_.node();
    ev.peer = peer_;
    ev.t_send = msg.t_send;
    // rx.t_arrive is engine time; shift by this host's skew so all span
    // stamps are on the same (local) clock.
    ev.t_arrive = rx.t_arrive + (ctx_.local_time() - ctx_.engine().now());
    ev.t_deliver = msg.t_deliver;
    ev.bytes = rx.hdr.payload_len;
    ev.is_rpc_req = msg.is_rpc_req;
    ev.is_rpc_rsp = msg.is_rpc_rsp;
    ctx_.span_sink()->on_span_deliver(ev);
  }

  if (msg.is_rpc_rsp) {
    auto it = calls_.find(msg.rpc_id);
    if (it == calls_.end()) return;  // late response after timeout
    RpcCallback cb = std::move(it->second.cb);
    ctx_.stats().rpc_latency.record(ctx_.engine().now() - it->second.t_start);
    calls_.erase(it);
    cb(std::move(msg));
    return;
  }
  if (on_msg_) on_msg_(*this, std::move(msg));
}

void Channel::force_ack() {
  if (state_ != State::established || ack_inflight_) return;
  post_control(kFlagAckOnly);
}

void Channel::maybe_standalone_ack() {
  if (state_ != State::established) return;
  if (ack_inflight_) return;
  // Ack after N completions — but never let a small peer window starve:
  // once half the peer's in-flight budget is consumed, flush the ack even
  // if N hasn't been reached (otherwise a one-way stream with a tiny
  // window would only progress at NOP-scan pace).
  const std::uint32_t threshold = std::min(
      ctx_.config().ack_every, std::max<std::uint32_t>(1, swin_.depth() / 2));
  if (rwin_.unacked() < threshold) return;
  post_control(kFlagAckOnly);
}

// ---------------------------------------------------------------------------
// Timers and teardown.

void Channel::deadlock_tick() {
  if (state_ != State::established) return;
  // Progress check (Algorithm 1 TIME_OUT): if we hold unacknowledged
  // deliveries and produced no traffic since the last scan, flush the ack
  // with a NOP so the peer's window can advance.
  const bool idle_since_scan = swin_.next_seq() == last_scan_tx_seq_ &&
                               ctx_.engine().now() - last_tx_ >=
                                   ctx_.config().deadlock_scan_period;
  if (rwin_.unacked() > 0 && idle_since_scan && !nop_inflight_ &&
      !ack_inflight_) {
    post_control(kFlagNop);
  }
  last_scan_tx_seq_ = swin_.next_seq();
}

void Channel::rpc_timeout_scan() {
  if (calls_.empty()) return;
  const Nanos now = ctx_.engine().now();
  std::vector<std::uint64_t> expired;
  for (const auto& [id, pc] : calls_) {
    if (pc.deadline > 0 && now >= pc.deadline) expired.push_back(id);
  }
  for (const std::uint64_t id : expired) {
    auto it = calls_.find(id);
    RpcCallback cb = std::move(it->second.cb);
    calls_.erase(it);
    ++stats_.rpc_timeouts;
    cb(Errc::timed_out);
  }
}

void Channel::keepalive_fire() {
  if (state_ != State::established) return;
  const Config& cfg = ctx_.config();
  const Nanos now = ctx_.engine().now();
  // Silence past this means dead: the fixed keepalive_timeout, or the
  // health plane's φ-accrual bound in adaptive mode.
  const Nanos bound = ctx_.health().silence_bound(peer_);
  const Nanos rearm = std::min(cfg.keepalive_intv, cfg.keepalive_timeout / 2);

  if (mocked()) {
    // Riding the TCP fallback: the RDMA-side last_alive_ is stale by
    // construction, so it must never declare peer_dead here. Proof of
    // life is the stream itself — our own NOPs keep the peer's rx fresh,
    // the peer's NOPs keep ours.
    const Nanos proof = std::max(last_rx_, last_alive_);
    if (now - proof >= cfg.keepalive_intv + bound) {
      // The fallback went silent too: no transport left. Drop the
      // override first so handle_transport_fault cannot take its
      // running-on-the-fallback shortcut.
      ctx_.health().note_peer_dead(peer_, id_);
      restoring_ = true;
      ctx_.restore_fallback(*this);
      restoring_ = false;
      tx_override_ = nullptr;
      handle_transport_fault(Errc::peer_dead);
      return;
    }
    if (now - last_tx_ >= cfg.keepalive_intv) post_control(kFlagNop);
    keepalive_timer_.arm_after(rearm);
    return;
  }

  if (!qp_.valid()) return;
  const Nanos idle = now - std::max(last_tx_, last_rx_);
  if (idle < cfg.keepalive_intv) {
    // Activity since the probe was armed: push the deadline out (lazy
    // re-arm keeps the hot path free of timer churn).
    keepalive_timer_.arm_after(cfg.keepalive_intv - idle);
    return;
  }
  // Silence is judged from the oldest unanswered probe, not from the last
  // completion: after a busy-with-data stretch (data WCs do not refresh
  // last_alive_) the first probe starts the clock — a probe that has been
  // in flight for less than the bound is still a question, not an answer.
  if (keepalive_outstanding_ &&
      now - std::max(last_alive_, keepalive_posted_) >= bound) {
    ctx_.health().note_peer_dead(peer_, id_);
    handle_transport_fault(Errc::peer_dead);
    return;
  }
  // Zero-byte RDMA Write: hardware-acked, costs the peer no CPU and no
  // RDMA-enabled memory (§V-A).
  verbs::SendWr wr;
  wr.wr_id = ctx_.register_wr(
      {WrKind::keepalive, id_, 0, 0, MemBlock{}, false});
  wr.opcode = verbs::Opcode::write;
  if (qp_.post_send(wr) == Errc::ok) {
    ++stats_.doorbells;
    ++stats_.doorbell_wrs;
    ++stats_.keepalive_probes;
    if (!keepalive_outstanding_) keepalive_posted_ = now;
    keepalive_outstanding_ = true;
  } else {
    ctx_.release_wr(wr.wr_id);
  }
  keepalive_timer_.arm_after(rearm);
}

void Channel::on_keepalive_wc(Errc status) {
  if (status == Errc::ok) {
    keepalive_outstanding_ = false;
    const Nanos now = ctx_.engine().now();
    if (keepalive_posted_ > 0) {
      ctx_.health().note_probe_rtt(peer_, now - keepalive_posted_);
      keepalive_posted_ = 0;
    }
    last_alive_ = now;
    ctx_.health().note_proof_of_life(peer_);
    return;
  }
  if (status == Errc::transport_retry_exceeded || status == Errc::timed_out) {
    // The fabric exhausted its hardware retries on a zero-byte write that
    // needs no receiver cooperation: genuine peer silence.
    ctx_.health().note_peer_dead(peer_, id_);
    handle_transport_fault(Errc::peer_dead);
  } else {
    // Flushed along with a dying QP (e.g. a local kill): report the true
    // cause instead of blaming the peer.
    handle_transport_fault(status);
  }
}

void Channel::on_qp_error(Errc reason) {
  // Report the true cause: transport_retry_exceeded (a retryable path
  // fault) and peer_dead (keepalive-declared silence) get different
  // recovery budgets, and the application sees what actually happened.
  handle_transport_fault(reason);
}

void Channel::close() {
  if (state_ != State::established && state_ != State::recovering) return;
  if (state_ == State::recovering) {
    // Nothing to send the FIN on; tear down locally.
    fail(Errc::channel_closed);
    return;
  }
  set_state(State::closing);
  fin_sent_ = true;
  // A closing channel can never deliver responses: complete outstanding
  // RPCs now instead of letting them ride to their timeouts.
  abort_calls(Errc::channel_closed);
  post_control(kFlagFin);
  // FIN deadline: nothing else watches a closing channel (keepalive stands
  // down), so a FIN that dies with its QP — post failure or a lost WC —
  // would otherwise park the channel in `closing` forever.
  recovery_timer_.arm_after(ctx_.config().keepalive_timeout);
}

void Channel::abort_calls(Errc reason) {
  if (calls_.empty()) return;
  auto calls = std::move(calls_);
  calls_.clear();
  stats_.rpc_aborts += calls.size();
  for (auto& [id, pc] : calls) pc.cb(reason);
}

void Channel::fail(Errc reason) {
  if (state_ == State::error || state_ == State::closed) return;
  set_state(State::error, reason);
  ctx_.trigger_dump(analysis::TrigReason::channel_death);
  keepalive_timer_.cancel();
  recovery_timer_.cancel();
  if (tx_override_) {
    restoring_ = true;
    ctx_.restore_fallback(*this);
    restoring_ = false;
    tx_override_ = nullptr;
  }

  abort_calls(reason);
  reclaim_windows();
  ctx_.channel_detach_qp(*this);  // before release_qp clears the QP num
  release_qp(/*recycle=*/true);
  ++ctx_.stats().channel_errors;
  ctx_.channel_closed(*this);
  if (on_error_) on_error_(*this, reason);
}

// ---------------------------------------------------------------------------
// Recovery (§VI-C).

void Channel::handle_transport_fault(Errc reason) {
  if (state_ == State::recovering) return;  // already on it
  if (mocked() && state_ == State::established) {
    // Running on the fallback: an RDMA-side fault is moot — just shed the
    // dead QP and stay on TCP.
    if (qp_.valid()) {
      shed_qp();
      // release_qp cancelled the keepalive timer, but it now watches the
      // fallback stream: keep it running.
      keepalive_timer_.arm_after(ctx_.config().keepalive_intv);
    }
    return;
  }
  if (state_ != State::established ||
      ctx_.config().recovery_max_attempts == 0) {
    fail(reason);
    return;
  }
  start_recovery(reason);
}

void Channel::start_recovery(Errc reason) {
  const Config& cfg = ctx_.config();
  set_state(State::recovering, reason);
  recovery_reason_ = reason;
  recovery_started_ = ctx_.engine().now();
  recovery_attempt_ = 0;
  // Flap detection first: a restore-then-fail cycle inside the flap window
  // escalates the peer's hold-down.
  ctx_.health().note_fault(peer_);
  // Budget from the health plane's verdict, not the errc: a peer it already
  // distrusts (suspect or worse — keepalive-declared silence lands here as
  // `dead`) rarely comes back within the reconnect horizon, and each
  // attempt burns the full CM timeout, so the budget is halved. First-strike
  // faults against a healthy peer (retry-exceeded, flush, resets) get it all.
  recovery_budget_ = ctx_.health().recovery_budget(peer_, cfg.recovery_max_attempts);
  record(analysis::RecEvent::recovery_start, static_cast<std::uint16_t>(reason),
         recovery_budget_);
  ++stats_.recoveries_started;
  keepalive_timer_.cancel();
  keepalive_outstanding_ = false;
  keepalive_posted_ = 0;
  ack_inflight_ = false;
  nop_inflight_ = false;
  shed_qp();

  if (connector_) {
    schedule_recovery_attempt();  // first attempt fires immediately
  } else {
    // Acceptor: the connector drives the resume handshake. Give it the
    // worst-case active-side horizon, then declare the channel dead.
    const Nanos horizon =
        (ctx_.cm().costs().connect_timeout + 64 * cfg.recovery_backoff) *
        (cfg.recovery_max_attempts + 1);
    recovery_timer_.arm_after(std::max<Nanos>(millis(50), horizon));
  }
}

void Channel::shed_qp() {
  ctx_.purge_channel_wrs(id_);
  ctx_.channel_detach_qp(*this);
  release_qp(/*recycle=*/true);
}

bool Channel::park_for_drain() {
  const Nanos left = ctx_.health().drain_remaining(peer_);
  if (left <= 0) return false;
  ++stats_.drain_recovery_parks;
  recovery_timer_.arm_after(std::max(left, ctx_.config().recovery_backoff));
  return true;
}

bool Channel::breaker_admits() {
  if (ctx_.health().may_attempt(peer_, id_)) return true;
  ++stats_.breaker_fastfails;
  record(analysis::RecEvent::breaker_fastfail, 0, recovery_attempt_);
  ctx_.health().note_denied(peer_);
  return false;
}

void Channel::schedule_recovery_attempt() {
  const Config& cfg = ctx_.config();
  // A peer that announced a drain is restarting on purpose: park the
  // ladder for its window instead of burning budget (and CM timeouts)
  // against a node that told us it is leaving. The timer re-fires after
  // the window and the ladder resumes where it left off, budget intact.
  if (park_for_drain()) return;
  if (recovery_attempt_ >= recovery_budget_) {
    escalate_or_fail();
    return;
  }
  // Circuit breaker: once the peer is declared dead, only the designated
  // half-open probers keep their ladder; everyone else fails fast onto the
  // fallback instead of burning CM timeouts.
  if (!breaker_admits()) {
    escalate_or_fail();
    return;
  }
  // Capped exponential backoff with +/-25% jitter so a fabric event does
  // not produce a synchronized reconnect storm.
  recovery_timer_.arm_after(
      backoff_with_jitter(cfg.recovery_backoff, recovery_attempt_,
                          recovery_rng_));
}

void Channel::recovery_timer_fire() {
  if (state_ == State::closing) {
    // FIN deadline expired: the close was never confirmed. Tear down
    // locally — the peer's end fails on its own silence watchdog.
    fail(Errc::channel_closed);
    return;
  }
  if (state_ == State::recovering) {
    if (!connector_) {
      // Passive resume deadline expired: the peer never came back.
      fail(recovery_reason_);
      return;
    }
    // Re-check the drain window at fire time too — the DRAIN may have
    // arrived while the backoff timer was armed.
    if (park_for_drain()) return;
    // Re-check the breaker at fire time, not just at schedule time: when a
    // whole peer dies, every channel declares dead in the same scan and all
    // of them pass the schedule-time gate before any prober has been
    // designated. The first timer to fire claims the half-open slot inside
    // initiate_resume; the rest must fail fast here.
    if (!breaker_admits()) {
      escalate_or_fail();
      return;
    }
    ++recovery_attempt_;
    ++stats_.recovery_attempts;
    record(analysis::RecEvent::recovery_attempt, 0, recovery_attempt_);
    resume_inflight_ = true;
    ctx_.initiate_resume(*this);
    return;
  }
  if (state_ == State::established && mocked() && connector_) {
    // Background RDMA probe while riding the fallback — also behind the
    // breaker gate: parked channels re-check on the next probe tick.
    if (!breaker_admits()) {
      arm_rdma_probe();
      return;
    }
    ++stats_.recovery_attempts;
    record(analysis::RecEvent::recovery_attempt, 0, 0);
    resume_inflight_ = true;
    ctx_.initiate_resume(*this);
  }
}

void Channel::resume_attempt_failed(Errc) {
  resume_inflight_ = false;
  if (state_ == State::recovering) {
    schedule_recovery_attempt();
    return;
  }
  if (state_ == State::established) {
    if (mocked()) {
      arm_rdma_probe();
    } else if (!qp_.valid()) {
      // The fallback died while this probe was in flight and the probe
      // failed too: no transport left — recover from scratch.
      handle_transport_fault(Errc::connection_reset);
    }
  }
}

void Channel::resume_adopt(verbs::Qp qp, Seq peer_rta) {
  resume_inflight_ = false;
  // Adopt whenever the channel is still alive. The acceptor side routinely
  // lands here established-and-unaware: its QP's death simply hasn't
  // surfaced locally, but the peer's resume REQ is authoritative proof the
  // old pair is dead. (Stale connector-side successes are filtered before
  // this call, in initiate_resume's callback.)
  if (state_ != State::recovering && state_ != State::established) {
    ctx_.qp_cache_.put(qp.release());
    return;
  }
  const bool was_recovering = state_ == State::recovering;
  const bool was_mocked = mocked();
  if (was_mocked) {
    restoring_ = true;
    ctx_.restore_fallback(*this);
    restoring_ = false;
    tx_override_ = nullptr;
  }
  if (qp_.valid()) {
    // Peer-initiated resume replacing a QP we still hold (its error just
    // hasn't surfaced here yet): drop ours first.
    shed_qp();
  }
  recovery_timer_.cancel();
  qp_ = std::move(qp);
  set_state(State::established);
  ctx_.channel_attach_qp(*this);
  post_bounce_buffers();

  const Nanos now = ctx_.engine().now();
  last_tx_ = last_rx_ = last_alive_ = now;
  keepalive_outstanding_ = false;
  keepalive_posted_ = 0;
  keepalive_timer_.arm_after(ctx_.config().keepalive_intv);

  // The resume handshake is authoritative proof of life; if it was a
  // half-open probe, the breaker closes and parked siblings get nudged.
  if (ctx_.health().note_restored(peer_, was_mocked)) {
    ctx_.nudge_peer_probes(peer_, id_);
  }

  // A passive QP swap on a channel that never noticed the fault is not a
  // recovery; only count channels that were actually recovering (or being
  // restored off the fallback).
  if (was_recovering || was_mocked) {
    ++stats_.recoveries_completed;
    if (was_mocked) {
      ++stats_.fallback_restores;
      record(analysis::RecEvent::fallback_restore);
    }
    ++ctx_.stats().channels_recovered;
    if (recovery_started_ > 0) {
      ctx_.stats().recovery_latency.record(now - recovery_started_);
      record(analysis::RecEvent::recovery_resumed, 0, recovery_attempt_,
             static_cast<std::uint64_t>(now - recovery_started_));
      recovery_started_ = 0;
    }
  }

  // Renegotiated seq state: the peer's REP carried its receive-window RTA.
  // Retire everything it had fully received, replay the rest in order —
  // the receiver window dedups, so delivery stays exactly-once in-order.
  swin_.process_ack(peer_rta, [this](Seq, TxEntry& e) { free_tx_entry(e); });
  restart_pending_pulls();
  retransmit_unacked();
  pump_tx();
}

void Channel::escalate_or_fail() {
  if (ctx_.config().fallback_auto && ctx_.fallback_provider_) {
    ++stats_.fallback_switches;
    record(analysis::RecEvent::fallback_switch, 0, recovery_attempt_);
    const std::uint64_t cid = id_;
    ctx_.fallback_provider_(*this, [ctx = &ctx_, cid](Errc err) {
      Channel* ch = ctx->channel_by_id(cid);
      if (!ch || ch->state_ != State::recovering) return;
      // Success lands through on_fallback_attached; only failures (the
      // fallback could not be built either) arrive here still recovering.
      if (err != Errc::ok) ch->fail(ch->recovery_reason_);
    });
    return;
  }
  fail(recovery_reason_);
}

void Channel::arm_rdma_probe() {
  const Config& cfg = ctx_.config();
  if (!cfg.fallback_auto || !connector_) return;
  // Flap suppression: a peer that keeps restore-then-failing sits on the
  // fallback for its (exponentially escalating) hold-down before the next
  // RDMA probe.
  recovery_timer_.arm_after(
      std::max(std::max<Nanos>(millis(1), 16 * cfg.recovery_backoff),
               ctx_.health().probe_holddown(peer_)));
}

void Channel::nudge_probe() {
  // A sibling's half-open probe just re-admitted the peer: probe soon
  // instead of waiting out the long probe timer (unless a flap hold-down
  // says otherwise).
  if (state_ != State::established || !mocked() || !connector_) return;
  if (resume_inflight_) return;
  recovery_timer_.arm_after(std::max(ctx_.config().recovery_backoff,
                                     ctx_.health().probe_holddown(peer_)));
}

void Channel::on_fallback_attached() {
  if (state_ != State::recovering) return;  // manual switch: nothing to replay
  set_state(State::established);
  record(analysis::RecEvent::fallback_attach);
  recovery_timer_.cancel();
  const Nanos now = ctx_.engine().now();
  last_tx_ = last_rx_ = last_alive_ = now;
  // The keepalive watches the fallback stream from here on (NOP exchange
  // instead of zero-byte writes); without this re-arm a silently dying
  // stream would never be noticed.
  keepalive_outstanding_ = false;
  keepalive_posted_ = 0;
  keepalive_timer_.arm_after(ctx_.config().keepalive_intv);
  ++stats_.recoveries_completed;
  ++ctx_.stats().channels_recovered;
  if (recovery_started_ > 0) {
    ctx_.stats().recovery_latency.record(now - recovery_started_);
    recovery_started_ = 0;
  }
  // Replay the unacked window inline over the stream; interrupted
  // rendezvous pulls on the peer complete from these replays.
  retransmit_unacked();
  pump_tx();
  arm_rdma_probe();  // keep probing RDMA; migrate back when it heals
}

void Channel::on_fallback_lost() {
  tx_override_ = nullptr;
  if (restoring_ || resume_inflight_) return;
  if (state_ == State::established && !qp_.valid()) {
    handle_transport_fault(Errc::connection_reset);
  }
}

void Channel::retransmit_unacked() {
  swin_.for_each_inflight(
      [this](Seq, TxEntry& e) { retransmit_entry(e); });
}

void Channel::defer_retransmit() {
  // Rebuild-for-RDMA hit pool exhaustion: park the whole replay and let
  // the mem-retry timer run retransmit_unacked() again — entries that did
  // go out are deduped by the receiver window, so the replay is idempotent.
  ++stats_.tx_mem_deferrals;
  retransmit_pending_ = true;
  arm_mem_retry();
}

void Channel::retransmit_entry(TxEntry& e) {
  ++stats_.recovery_retransmits;
  ctx_.health().note_retransmit(peer_);
  last_tx_ = ctx_.engine().now();
  if (!frame(e)) defer_retransmit();
}

void Channel::restart_pending_pulls() {
  if (tx_override_) return;  // fallback replays arrive inline instead
  rwin_.for_each_pending([this](Seq s, RxState& r) {
    if (r.reads_left == 0 || !r.payload_block.valid()) return;
    r.reads_left = 0;
    issue_pull_frags(s, r);
  });
}

void Channel::release_qp(bool recycle) {
  keepalive_timer_.cancel();
  for (const MemBlock& block : bounce_) ctx_.ctrl_cache_.free(block);
  std::vector<MemBlock>().swap(bounce_);
  if (!qp_.valid()) return;
  if (recycle) {
    // Immediate RESET + recycle (§IV-E): the next connection skips QP
    // creation entirely.
    const rnic::QpNum qpn = qp_.release();
    ctx_.qp_cache_.put(qpn);
  } else {
    qp_.reset();
  }
}

void Channel::free_tx_entry(TxEntry& e) {
  if (e.wire_block.valid()) ctx_.ctrl_cache_.free(e.wire_block);
  if (e.payload_block.valid()) ctx_.data_cache_.free(e.payload_block);
  e.wire_block = MemBlock{};
  e.payload_block = MemBlock{};
  e.payload = Buffer{};
}

}  // namespace xrdma::core
