#include "rnic/rnic.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

namespace xrdma::rnic {

namespace {
constexpr auto kLossless = net::TrafficClass::lossless;
constexpr auto kLossy = net::TrafficClass::lossy;
constexpr std::uint8_t kRnrRetryInfinite = 7;  // IB spec: 7 means "forever"
}  // namespace

Rnic::Rnic(sim::Engine& engine, net::Endpoint& endpoint, RnicConfig config)
    : engine_(engine), endpoint_(endpoint), config_(config) {}

Rnic::~Rnic() = default;

// --------------------------------------------------------------------------
// Memory registration.

MrInfo Rnic::reg_mr(std::uint64_t size, bool real_memory) {
  auto mr = std::make_unique<Mr>();
  mr->info.addr = next_addr_;
  mr->info.size = size;
  mr->info.lkey = next_key_++;
  mr->info.rkey = next_key_++;
  mr->real = real_memory;
  if (real_memory) mr->storage = Buffer::make(size);
  // Pad between regions so out-of-bounds addresses never alias a neighbour
  // (the memory-cache isolation scheme in §VI-C relies on this).
  next_addr_ += (size + 0xfffu + 0x1000u) & ~0xfffull;
  Mr* raw = mr.get();
  mr_lkey_[raw->info.lkey] = raw;
  mr_rkey_[raw->info.rkey] = raw;
  mrs_by_addr_[raw->info.addr] = std::move(mr);
  return raw->info;
}

bool Rnic::dereg_mr(std::uint32_t lkey) {
  auto it = mr_lkey_.find(lkey);
  if (it == mr_lkey_.end()) return false;
  Mr* mr = it->second;
  mr_rkey_.erase(mr->info.rkey);
  mr_lkey_.erase(it);
  mrs_by_addr_.erase(mr->info.addr);
  return true;
}

Rnic::Mr* Rnic::find_mr_by_lkey(std::uint32_t lkey) {
  auto it = mr_lkey_.find(lkey);
  return it == mr_lkey_.end() ? nullptr : it->second;
}

Rnic::Mr* Rnic::find_mr_by_rkey(std::uint32_t rkey) {
  auto it = mr_rkey_.find(rkey);
  return it == mr_rkey_.end() ? nullptr : it->second;
}

Rnic::Mr* Rnic::find_mr_by_addr(std::uint64_t addr, std::uint64_t len) {
  auto it = mrs_by_addr_.upper_bound(addr);
  if (it == mrs_by_addr_.begin()) return nullptr;
  --it;
  Mr* mr = it->second.get();
  if (addr >= mr->info.addr && addr + len <= mr->info.addr + mr->info.size) {
    return mr;
  }
  return nullptr;
}

std::uint8_t* Rnic::mr_ptr(std::uint64_t addr, std::uint64_t len) {
  Mr* mr = find_mr_by_addr(addr, len);
  if (!mr || !mr->real) return nullptr;
  return mr->storage.data() + (addr - mr->info.addr);
}

// --------------------------------------------------------------------------
// Completion queues / SRQs.

CqId Rnic::create_cq(std::uint32_t depth) {
  auto cq = std::make_unique<Cq>();
  cq->depth = depth;
  const CqId id = next_cq_++;
  cqs_[id] = std::move(cq);
  return id;
}

void Rnic::destroy_cq(CqId cq) { cqs_.erase(cq); }

Rnic::Cq* Rnic::find_cq(CqId cq) {
  auto it = cqs_.find(cq);
  return it == cqs_.end() ? nullptr : it->second.get();
}

int Rnic::poll_cq(CqId cqid, Wc* out, int max) {
  Cq* cq = find_cq(cqid);
  if (!cq) return -1;
  int n = 0;
  while (n < max && !cq->wcs.empty()) {
    out[n++] = cq->wcs.front();
    cq->wcs.pop_front();
  }
  return n;
}

std::size_t Rnic::cq_depth_used(CqId cqid) const {
  auto it = cqs_.find(cqid);
  return it == cqs_.end() ? 0 : it->second->wcs.size();
}

void Rnic::arm_cq(CqId cqid, std::function<void()> on_event) {
  Cq* cq = find_cq(cqid);
  if (!cq) return;
  if (!cq->wcs.empty() && on_event) {
    // Completion already pending: fire immediately (edge-triggered arm).
    auto fn = std::move(on_event);
    engine_.schedule_after(0, std::move(fn));
    return;
  }
  cq->on_event = std::move(on_event);
}

void Rnic::push_wc(CqId cqid, Wc wc) {
  Cq* cq = find_cq(cqid);
  if (!cq) return;
  cq->wcs.push_back(wc);
  if (cq->on_event) {
    auto fn = std::move(cq->on_event);
    cq->on_event = nullptr;
    fn();
  }
}

SrqId Rnic::create_srq(std::uint32_t depth) {
  auto srq = std::make_unique<Srq>();
  srq->depth = depth;
  const SrqId id = next_srq_++;
  srqs_[id] = std::move(srq);
  return id;
}

Errc Rnic::post_srq_recv(SrqId srqid, const RecvWr& wr) {
  auto it = srqs_.find(srqid);
  if (it == srqs_.end()) return Errc::not_found;
  Srq& srq = *it->second;
  if (srq.wqes.size() >= srq.depth) return Errc::resource_exhausted;
  srq.wqes.push_back(wr);
  return Errc::ok;
}

// --------------------------------------------------------------------------
// Queue pairs.

QpNum Rnic::create_qp(CqId send_cq, CqId recv_cq, QpCaps caps, SrqId srq) {
  auto qp = std::make_unique<Qp>(config_);
  qp->num = next_qpn_++;
  qp->send_cq = send_cq;
  qp->recv_cq = recv_cq;
  qp->srq = srq;
  qp->caps = caps;
  const QpNum num = qp->num;
  qps_[num] = std::move(qp);
  return num;
}

void Rnic::destroy_qp(QpNum qpn) {
  auto it = qps_.find(qpn);
  if (it == qps_.end()) return;
  auto cache_it = qp_cache_pos_.find(qpn);
  if (cache_it != qp_cache_pos_.end()) {
    qp_cache_lru_.erase(cache_it->second);
    qp_cache_pos_.erase(cache_it);
  }
  qps_.erase(it);
}

Rnic::Qp* Rnic::find_qp(QpNum qpn) {
  auto it = qps_.find(qpn);
  return it == qps_.end() ? nullptr : it->second.get();
}

const Rnic::Qp* Rnic::find_qp(QpNum qpn) const {
  auto it = qps_.find(qpn);
  return it == qps_.end() ? nullptr : it->second.get();
}

QpState Rnic::qp_state(QpNum qpn) const {
  const Qp* qp = find_qp(qpn);
  return qp ? qp->state : QpState::error;
}

Errc Rnic::modify_qp(QpNum qpn, const QpAttr& attr) {
  Qp* qp = find_qp(qpn);
  if (!qp) return Errc::not_found;
  // Loose state machine: RESET and ERROR reachable from anywhere; the
  // forward path must go reset -> init -> rtr -> rts.
  const QpState from = qp->state;
  const QpState to = attr.state;
  const bool forward_ok =
      (to == QpState::init && from == QpState::reset) ||
      (to == QpState::rtr && from == QpState::init) ||
      (to == QpState::rts && (from == QpState::rtr || from == QpState::rts));
  if (to != QpState::reset && to != QpState::error && !forward_ok) {
    return Errc::invalid_argument;
  }
  if (to == QpState::reset) {
    // Everything is discarded; the QP can be recycled (the QP-cache design
    // in §IV-E leans on exactly this transition).
    qp->sq.clear();
    qp->resend.clear();
    qp->inflight.clear();
    qp->reads.clear();
    qp->rq.clear();
    qp->responses.clear();
    qp->assembly = RecvAssembly{};
    qp->snd_nxt = qp->snd_una = 0;
    qp->exp_psn = 0;
    qp->next_msg_id = 1;
    qp->retry_used = 0;
    qp->unacked_pkts = 0;
    qp->gated_until = 0;
    qp->tx_pipe_busy_until = 0;
    qp->nak_sent_for_gap = false;
    qp->dcqcn = Dcqcn(config_.dcqcn, config_.line_rate_gbps);
    qp->state = QpState::reset;
    return Errc::ok;
  }
  if (to == QpState::error) {
    qp_to_error(*qp, Errc::wr_flush_error);
    return Errc::ok;
  }
  if (to == QpState::rtr || to == QpState::init) {
    qp->attr = attr;
  } else if (to == QpState::rts) {
    qp->attr = attr;
  }
  qp->state = to;
  return Errc::ok;
}

Errc Rnic::post_recv(QpNum qpn, const RecvWr& wr) {
  Qp* qp = find_qp(qpn);
  if (!qp) return Errc::not_found;
  if (qp->srq != kInvalidId) return Errc::invalid_argument;  // use the SRQ
  if (qp->state == QpState::reset) return Errc::invalid_argument;
  if (qp->rq.size() >= qp->caps.max_recv_wr) return Errc::resource_exhausted;
  if (wr.sge.length > 0 && !find_mr_by_lkey(wr.sge.lkey)) {
    return Errc::local_protection_error;
  }
  qp->rq.push_back(wr);
  return Errc::ok;
}

Errc Rnic::validate_send(Qp& qp, const SendWr& wr) {
  if (qp.state != QpState::rts) return Errc::invalid_argument;
  if (wr.inline_data) {
    // Inline payloads ride in the WQE: no MR, but a hard size ceiling, and
    // only for the payload-carrying opcodes (everything but Read).
    if (wr.opcode == Opcode::read) return Errc::invalid_argument;
    if (wr.local.length > config_.max_inline_data) {
      return Errc::payload_too_large;
    }
  } else if (wr.local.length > 0) {
    // Local SGE validation at post time, like a real NIC's WQE check.
    Mr* mr = find_mr_by_lkey(wr.local.lkey);
    if (!mr || wr.local.addr < mr->info.addr ||
        wr.local.addr + wr.local.length > mr->info.addr + mr->info.size) {
      return Errc::local_protection_error;
    }
  }
  return Errc::ok;
}

Errc Rnic::post_send(QpNum qpn, const SendWr& wr) {
  Qp* qp = find_qp(qpn);
  if (!qp) return Errc::not_found;
  if (qp->sq.size() >= qp->caps.max_send_wr) return Errc::resource_exhausted;
  if (const Errc rc = validate_send(*qp, wr); rc != Errc::ok) return rc;

  // Doorbell plus QP-context touch, then the WQE fetch, then a payload DMA
  // unless the data is inline or the opcode (Read) carries none. Consecutive
  // posts on one QP serialize through the same tx pipeline.
  const bool no_payload_dma = wr.inline_data || wr.opcode == Opcode::read;
  const Nanos at = std::max(engine_.now(), qp->tx_pipe_busy_until) +
                   config_.doorbell_overhead + touch_qp_cache(qpn) +
                   config_.wqe_fetch_overhead +
                   (no_payload_dma ? 0 : config_.dma_latency);
  ++stats_.doorbells;
  PendingWr pending;
  pending.wr = wr;
  pending.msg_id = qp->next_msg_id++;
  pending.eligible_at = at;
  qp->sq.push_back(std::move(pending));
  ++stats_.wrs_posted;
  if (wr.inline_data) ++stats_.inline_wrs;
  qp->tx_pipe_busy_until = at;
  mark_ready(*qp);
  return Errc::ok;
}

void Rnic::set_alive(bool alive) {
  alive_ = alive;
  if (alive) schedule_pump(engine_.now());
}

// --------------------------------------------------------------------------
// QP context cache (on-NIC SRAM model).

Nanos Rnic::touch_qp_cache(QpNum qpn) {
  auto it = qp_cache_pos_.find(qpn);
  if (it != qp_cache_pos_.end()) {
    qp_cache_lru_.splice(qp_cache_lru_.begin(), qp_cache_lru_, it->second);
    ++stats_.qp_cache_hits;
    return 0;
  }
  ++stats_.qp_cache_misses;
  qp_cache_lru_.push_front(qpn);
  qp_cache_pos_[qpn] = qp_cache_lru_.begin();
  if (qp_cache_lru_.size() > config_.qp_cache_entries) {
    qp_cache_pos_.erase(qp_cache_lru_.back());
    qp_cache_lru_.pop_back();
  }
  return config_.qp_cache_miss_penalty;
}

// --------------------------------------------------------------------------
// Transmit path.

void Rnic::mark_ready(Qp& qp) {
  if (!qp.in_ready_ring && qp_has_tx_work(qp)) {
    qp.in_ready_ring = true;
    ready_ring_.push_back(qp.num);
  }
  schedule_pump(engine_.now());
}

void Rnic::schedule_pump(Nanos at) {
  if (pump_scheduled_) return;
  pump_scheduled_ = true;
  pump_event_ = engine_.schedule_at(at, [this] { pump(); });
}

bool Rnic::qp_has_tx_work(const Qp& qp) const {
  if (qp.state == QpState::error || qp.state == QpState::reset) return false;
  return !qp.resend.empty() || !qp.responses.empty() ||
         (!qp.sq.empty() && qp.state == QpState::rts);
}

Nanos Rnic::tx_gate(const Qp& qp, Nanos now) const {
  Nanos gate = std::max(now, qp.dcqcn.ready_at());
  if (!qp.resend.empty()) {
    return std::max(gate, qp.gated_until);
  }
  if (!qp.responses.empty()) return gate;
  if (!qp.sq.empty()) {
    return std::max({gate, qp.gated_until, qp.sq.front().eligible_at});
  }
  return gate;
}

void Rnic::pump() {
  pump_scheduled_ = false;
  if (!alive_) return;
  const Nanos now = engine_.now();
  const std::uint64_t max_pkt_wire = config_.mtu + config_.header_bytes;
  Nanos earliest = std::numeric_limits<Nanos>::max();

  while (true) {
    if (endpoint_.tx_paused(kLossless)) return;  // unpause handler re-pumps
    const std::uint64_t qb = endpoint_.tx_queue_bytes(kLossless);
    if (qb >= 2 * max_pkt_wire) {
      // Host port has enough queued to stay busy; come back when it drains.
      schedule_pump(now + transmission_time(qb / 2, config_.line_rate_gbps));
      return;
    }
    bool sent = false;
    std::size_t n = ready_ring_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const QpNum qpn = ready_ring_.front();
      ready_ring_.pop_front();
      Qp* qp = find_qp(qpn);
      if (!qp || !qp_has_tx_work(*qp)) {
        if (qp) qp->in_ready_ring = false;
        continue;
      }
      qp->dcqcn.advance(now);
      const Nanos gate = tx_gate(*qp, now);
      if (gate > now) {
        ready_ring_.push_back(qpn);  // stays in ring, gated
        earliest = std::min(earliest, gate);
        continue;
      }
      std::uint32_t wire = 0;
      RnicPacketPtr pkt = next_packet(*qp, wire);
      if (!pkt) {
        qp->in_ready_ring = false;
        continue;
      }
      transmit(*qp, std::move(pkt), wire);
      if (qp_has_tx_work(*qp)) {
        ready_ring_.push_back(qpn);
      } else {
        qp->in_ready_ring = false;
      }
      sent = true;
      break;
    }
    if (!sent) break;
  }
  if (earliest != std::numeric_limits<Nanos>::max()) schedule_pump(earliest);
}

RnicPacketPtr Rnic::next_packet(Qp& qp, std::uint32_t& wire_bytes) {
  // 1. Retransmissions first.
  if (!qp.resend.empty()) {
    InflightPkt ip = std::move(qp.resend.front());
    qp.resend.pop_front();
    RnicPacketPtr pkt = ip.pkt;
    wire_bytes = ip.wire_bytes;
    qp.inflight.push_back(std::move(ip));
    ++stats_.retransmitted_packets;
    arm_qp_timer(qp);
    return pkt;
  }
  // 2. Read responses (responder role).
  if (!qp.responses.empty()) {
    RespJob& job = qp.responses.front();
    auto pkt = std::make_shared<RnicPacket>();
    pkt->type = PktType::read_resp;
    pkt->dst_qp = qp.attr.dest_qp;
    pkt->msg_id = job.msg_id;
    const std::uint32_t frag =
        std::min<std::uint32_t>(config_.mtu, job.total - job.off);
    pkt->msg_len = job.total;
    pkt->frag_off = job.off;
    pkt->first = job.off == 0;
    Mr* mr = find_mr_by_addr(job.addr + job.off, frag);
    if (mr && mr->real && frag > 0) {
      pkt->data = Buffer::make(frag);
      std::memcpy(pkt->data.data(),
                  mr->storage.data() + (job.addr + job.off - mr->info.addr),
                  frag);
    } else {
      pkt->data = Buffer::synthetic(frag);
    }
    job.off += frag;
    pkt->last = job.off >= job.total;
    if (pkt->last) qp.responses.pop_front();
    wire_bytes = wire_size(*pkt);
    return pkt;
  }
  // 3. New work: segment the head of the send queue.
  if (!qp.sq.empty() && qp.state == QpState::rts) return segment_next(qp);
  wire_bytes = 0;
  return nullptr;
}

RnicPacketPtr Rnic::segment_next(Qp& qp) {
  PendingWr& p = qp.sq.front();
  const SendWr& wr = p.wr;
  auto pkt = std::make_shared<RnicPacket>();
  pkt->dst_qp = qp.attr.dest_qp;
  pkt->msg_id = p.msg_id;

  InflightPkt ip;
  ip.rnr_budget = qp.attr.rnr_retry;

  auto fill_data = [&](std::uint32_t off, std::uint32_t frag) {
    if (wr.inline_data) {
      // Payload came in the WQE — no MR walk, no DMA fetch.
      if (frag > 0 && wr.inline_payload.data() &&
          !wr.inline_payload.is_synthetic()) {
        pkt->data = Buffer::make(frag);
        std::memcpy(pkt->data.data(), wr.inline_payload.data() + off, frag);
      } else {
        pkt->data = Buffer::synthetic(frag);
      }
      return;
    }
    Mr* mr = wr.local.length > 0 ? find_mr_by_lkey(wr.local.lkey) : nullptr;
    if (mr && mr->real && frag > 0) {
      pkt->data = Buffer::make(frag);
      std::memcpy(pkt->data.data(),
                  mr->storage.data() + (wr.local.addr + off - mr->info.addr),
                  frag);
    } else {
      pkt->data = Buffer::synthetic(frag);
    }
  };

  switch (wr.opcode) {
    case Opcode::send:
    case Opcode::send_imm:
    case Opcode::write:
    case Opcode::write_imm: {
      const bool is_send =
          wr.opcode == Opcode::send || wr.opcode == Opcode::send_imm;
      const std::uint32_t len = wr.local.length;
      const std::uint32_t frag =
          std::min<std::uint32_t>(config_.mtu, len - p.seg_off);
      pkt->type = is_send ? PktType::data_send : PktType::data_write;
      pkt->msg_len = len;
      pkt->frag_off = p.seg_off;
      pkt->first = p.seg_off == 0;
      pkt->last = p.seg_off + frag >= len;
      if (wr.opcode == Opcode::send_imm || wr.opcode == Opcode::write_imm) {
        pkt->has_imm = true;
        pkt->imm = wr.imm;
      }
      if (!is_send) {
        pkt->remote_addr = wr.remote_addr + p.seg_off;
        pkt->rkey = wr.rkey;
      }
      fill_data(p.seg_off, frag);
      p.seg_off += frag;

      pkt->psn = qp.snd_nxt++;
      ip.pkt = pkt;
      ip.wire_bytes = wire_size(*pkt);
      if (pkt->last) {
        ip.completes_wr = true;
        ip.wr_id = wr.wr_id;
        ip.wc_op = is_send ? WcOpcode::send : WcOpcode::write;
        ip.signaled = wr.signaled;
        ip.byte_len = len;
        qp.sq.pop_front();
      }
      qp.inflight.push_back(ip);
      arm_qp_timer(qp);
      return pkt;
    }
    case Opcode::read: {
      pkt->type = PktType::read_req;
      pkt->psn = qp.snd_nxt++;
      pkt->remote_addr = wr.remote_addr;
      pkt->rkey = wr.rkey;
      pkt->read_len = wr.local.length;
      pkt->first = pkt->last = true;
      ip.pkt = pkt;
      ip.wire_bytes = wire_size(*pkt);
      qp.inflight.push_back(ip);

      ReadTrack track;
      track.msg_id = p.msg_id;
      track.wr = wr;
      track.deadline = engine_.now() + config_.retransmit_timeout;
      qp.reads.push_back(track);
      qp.sq.pop_front();
      arm_qp_timer(qp);
      return pkt;
    }
  }
  return nullptr;
}

std::uint32_t Rnic::wire_size(const RnicPacket& pkt) const {
  switch (pkt.type) {
    case PktType::ack:
    case PktType::nak_seq:
    case PktType::nak_rnr:
    case PktType::nak_remote_access:
    case PktType::cnp:
      return config_.ack_bytes;
    case PktType::read_req:
      return config_.header_bytes + 16;
    default:
      return config_.header_bytes + static_cast<std::uint32_t>(pkt.data.size());
  }
}

void Rnic::transmit(Qp& qp, RnicPacketPtr pkt, std::uint32_t wire_bytes) {
  const Nanos now = engine_.now();
  if (wire_bytes == 0) wire_bytes = wire_size(*pkt);
  qp.dcqcn.pace(now, wire_bytes);

  net::Packet np;
  np.src = node();
  np.dst = qp.attr.dest_node;
  np.wire_bytes = wire_bytes;
  np.tclass = kLossless;
  np.flow = (static_cast<std::uint64_t>(node()) << 40) ^
            (static_cast<std::uint64_t>(qp.num) << 8) ^ pkt->dst_qp;
  np.payload = std::move(pkt);
  ++stats_.tx_packets;
  stats_.tx_bytes += wire_bytes;
  endpoint_.send(std::move(np));
}

void Rnic::send_control(Qp& qp, PktType type, std::uint64_t ack_psn) {
  if (!alive_) return;
  auto pkt = std::make_shared<RnicPacket>();
  pkt->type = type;
  pkt->dst_qp = qp.attr.dest_qp;
  pkt->ack_psn = ack_psn;

  net::Packet np;
  np.src = node();
  np.dst = qp.attr.dest_node;
  np.wire_bytes = config_.ack_bytes;
  // CNPs ride the lossy class so congestion can't pause its own signal
  // (real deployments give CNP a dedicated priority).
  np.tclass = type == PktType::cnp ? kLossy : kLossless;
  np.ecn_capable = false;
  np.flow = (static_cast<std::uint64_t>(node()) << 40) ^
            (static_cast<std::uint64_t>(qp.num) << 8) ^ pkt->dst_qp;
  np.payload = std::move(pkt);
  ++stats_.tx_packets;
  stats_.tx_bytes += config_.ack_bytes;
  endpoint_.send(std::move(np));
}

// --------------------------------------------------------------------------
// Receive path.

void Rnic::on_packet(net::Packet&& netpkt) {
  if (!alive_) return;  // crashed host: silence
  auto pkt = std::static_pointer_cast<const RnicPacket>(netpkt.payload);
  const bool ce = netpkt.ecn_ce;
  ++stats_.rx_packets;
  stats_.rx_bytes += netpkt.wire_bytes;
  if (ce) ++stats_.ecn_marked_rx;
  // Reads are executed autonomously by the responder NIC, and acks/CNPs
  // never touch the host path: both take the shorter pipeline service time.
  Nanos cost = config_.rx_overhead;
  switch (pkt->type) {
    case PktType::read_req:
    case PktType::ack:
    case PktType::nak_seq:
    case PktType::nak_rnr:
    case PktType::nak_remote_access:
    case PktType::cnp:
      cost = config_.rx_control_overhead;
      break;
    default:
      break;
  }
  engine_.schedule_after(cost, [this, pkt, ce] {
    if (!alive_) return;
    handle_packet(*pkt, ce);
  });
}

void Rnic::handle_packet(const RnicPacket& pkt, bool ecn_ce) {
  Qp* qp = find_qp(pkt.dst_qp);
  if (!qp) return;
  if (qp->state != QpState::rtr && qp->state != QpState::rts) return;

  switch (pkt.type) {
    case PktType::cnp: {
      ++stats_.cnps_received;
      qp->dcqcn.on_cnp(engine_.now());
      // Pacing changed; re-evaluate gates.
      schedule_pump(engine_.now());
      return;
    }
    case PktType::ack:
    case PktType::nak_seq:
    case PktType::nak_rnr:
    case PktType::nak_remote_access:
      requester_ack(*qp, pkt);
      return;
    case PktType::read_resp:
      // Read responses are bulk data: congestion marks on them must feed
      // DCQCN at the responder just like marks on requester data.
      if (ecn_ce) maybe_cnp(*qp);
      handle_read_resp(*qp, pkt);
      return;
    case PktType::data_send:
    case PktType::data_write:
    case PktType::read_req: {
      if (ecn_ce) maybe_cnp(*qp);
      // RC sequencing.
      if (pkt.psn < qp->exp_psn) {
        // Duplicate of something already processed: re-ack to unstick peer.
        send_control(*qp, PktType::ack, qp->exp_psn);
        return;
      }
      if (pkt.psn > qp->exp_psn) {
        if (!qp->nak_sent_for_gap) {
          qp->nak_sent_for_gap = true;
          ++stats_.seq_naks_sent;
          send_control(*qp, PktType::nak_seq, qp->exp_psn);
        }
        return;
      }
      responder_data(*qp, pkt);
      return;
    }
  }
}

bool Rnic::consume_rqe(Qp& qp, RecvWr& out, bool& from_srq) {
  if (qp.srq != kInvalidId) {
    auto it = srqs_.find(qp.srq);
    if (it == srqs_.end() || it->second->wqes.empty()) return false;
    out = it->second->wqes.front();
    it->second->wqes.pop_front();
    from_srq = true;
    return true;
  }
  if (qp.rq.empty()) return false;
  out = qp.rq.front();
  qp.rq.pop_front();
  from_srq = false;
  return true;
}

void Rnic::responder_data(Qp& qp, const RnicPacket& pkt) {
  qp.nak_sent_for_gap = false;
  bool msg_tail = false;

  switch (pkt.type) {
    case PktType::data_send: {
      if (pkt.first) {
        touch_qp_cache(qp.num);
        RecvWr rqe;
        bool from_srq = false;
        if (!consume_rqe(qp, rqe, from_srq)) {
          // Receiver not ready: NAK and expect retransmission of the whole
          // message from this PSN.
          ++stats_.rnr_naks_sent;
          send_control(qp, PktType::nak_rnr, pkt.psn);
          return;  // exp_psn unchanged
        }
        if (pkt.msg_len > rqe.sge.length) {
          // Message overruns the receive buffer.
          Wc wc;
          wc.wr_id = rqe.wr_id;
          wc.status = Errc::local_length_error;
          wc.opcode = WcOpcode::recv;
          wc.qp_num = qp.num;
          push_wc(qp.recv_cq, wc);
          send_control(qp, PktType::nak_remote_access, pkt.psn);
          qp_to_error(qp, Errc::local_length_error);
          return;
        }
        qp.assembly.active = true;
        qp.assembly.msg_id = pkt.msg_id;
        qp.assembly.rqe = rqe;
        qp.assembly.from_srq = from_srq;
      }
      if (!qp.assembly.active || qp.assembly.msg_id != pkt.msg_id) return;
      qp.exp_psn = pkt.psn + 1;
      if (pkt.data.size() > 0 && pkt.data.data()) {
        if (std::uint8_t* dst =
                mr_ptr(qp.assembly.rqe.sge.addr + pkt.frag_off, pkt.data.size())) {
          std::memcpy(dst, pkt.data.data(), pkt.data.size());
        }
      }
      if (pkt.last) {
        msg_tail = true;
        Wc wc;
        wc.wr_id = qp.assembly.rqe.wr_id;
        wc.opcode = WcOpcode::recv;
        wc.byte_len = pkt.msg_len;
        wc.imm = pkt.imm;
        wc.has_imm = pkt.has_imm;
        wc.qp_num = qp.num;
        push_wc(qp.recv_cq, wc);
        qp.assembly.active = false;
      }
      break;
    }
    case PktType::data_write: {
      if (pkt.first) touch_qp_cache(qp.num);
      if (pkt.data.size() > 0) {
        Mr* mr = find_mr_by_rkey(pkt.rkey);
        if (!mr || pkt.remote_addr < mr->info.addr ||
            pkt.remote_addr + pkt.data.size() >
                mr->info.addr + mr->info.size) {
          send_control(qp, PktType::nak_remote_access, pkt.psn);
          qp_to_error(qp, Errc::remote_access_error);
          return;
        }
        if (mr->real && pkt.data.data()) {
          std::memcpy(mr->storage.data() + (pkt.remote_addr - mr->info.addr),
                      pkt.data.data(), pkt.data.size());
        }
      }
      if (pkt.last && pkt.has_imm) {
        RecvWr rqe;
        bool from_srq = false;
        if (!consume_rqe(qp, rqe, from_srq)) {
          ++stats_.rnr_naks_sent;
          send_control(qp, PktType::nak_rnr, pkt.psn);
          return;
        }
        qp.exp_psn = pkt.psn + 1;
        msg_tail = true;
        Wc wc;
        wc.wr_id = rqe.wr_id;
        wc.opcode = WcOpcode::recv_imm;
        wc.byte_len = pkt.msg_len;
        wc.imm = pkt.imm;
        wc.has_imm = true;
        wc.qp_num = qp.num;
        push_wc(qp.recv_cq, wc);
      } else {
        qp.exp_psn = pkt.psn + 1;
        msg_tail = pkt.last;
      }
      break;
    }
    case PktType::read_req: {
      touch_qp_cache(qp.num);
      Mr* mr = find_mr_by_rkey(pkt.rkey);
      if (pkt.read_len > 0 &&
          (!mr || pkt.remote_addr < mr->info.addr ||
           pkt.remote_addr + pkt.read_len > mr->info.addr + mr->info.size)) {
        send_control(qp, PktType::nak_remote_access, pkt.psn);
        qp_to_error(qp, Errc::remote_access_error);
        return;
      }
      qp.exp_psn = pkt.psn + 1;
      msg_tail = true;
      RespJob job;
      job.msg_id = pkt.msg_id;
      job.addr = pkt.remote_addr;
      job.total = pkt.read_len;
      qp.responses.push_back(job);
      mark_ready(qp);
      break;
    }
    default:
      return;
  }
  maybe_ack(qp, msg_tail);
}

void Rnic::maybe_ack(Qp& qp, bool msg_tail) {
  ++qp.unacked_pkts;
  if (msg_tail || qp.unacked_pkts >= config_.ack_coalesce) {
    qp.unacked_pkts = 0;
    send_control(qp, PktType::ack, qp.exp_psn);
  }
}

void Rnic::maybe_cnp(Qp& qp) {
  const Nanos now = engine_.now();
  if (now - qp.last_cnp_sent < config_.dcqcn.cnp_min_interval) return;
  qp.last_cnp_sent = now;
  ++stats_.cnps_sent;
  send_control(qp, PktType::cnp, 0);
}

void Rnic::requester_ack(Qp& qp, const RnicPacket& pkt) {
  const Nanos now = engine_.now();
  const std::uint64_t acked = std::min(pkt.ack_psn, qp.snd_nxt);

  // Cumulative ack: retire in-flight packets below the acked PSN.
  if (acked > qp.snd_una) {
    while (!qp.inflight.empty() && qp.inflight.front().pkt->psn < acked) {
      InflightPkt& ip = qp.inflight.front();
      if (ip.completes_wr && ip.signaled) {
        Wc wc;
        wc.wr_id = ip.wr_id;
        wc.opcode = ip.wc_op;
        wc.byte_len = ip.byte_len;
        wc.qp_num = qp.num;
        push_wc(qp.send_cq, wc);
      }
      qp.inflight.pop_front();
    }
    qp.snd_una = acked;
    qp.retry_used = 0;
    qp.last_progress = now;
  }

  switch (pkt.type) {
    case PktType::ack:
      break;
    case PktType::nak_seq:
      rewind_to(qp, acked, /*rnr=*/false);
      break;
    case PktType::nak_rnr: {
      ++stats_.rnr_events;
      rewind_to(qp, acked, /*rnr=*/true);
      if (!qp.resend.empty()) {
        InflightPkt& head = qp.resend.front();
        ++head.rnr_used;
        if (head.rnr_budget != kRnrRetryInfinite &&
            head.rnr_used > head.rnr_budget) {
          qp_to_error(qp, Errc::rnr_retry_exceeded);
          return;
        }
      }
      break;
    }
    case PktType::nak_remote_access:
      qp_to_error(qp, Errc::remote_access_error);
      return;
    default:
      break;
  }
  if (qp.inflight.empty() && qp.reads.empty() && qp.resend.empty()) {
    qp.timer_armed = false;  // nothing outstanding; periodic check lapses
  }
  mark_ready(qp);
}

void Rnic::handle_read_resp(Qp& qp, const RnicPacket& pkt) {
  auto it = std::find_if(qp.reads.begin(), qp.reads.end(),
                         [&](const ReadTrack& t) { return t.msg_id == pkt.msg_id; });
  if (it == qp.reads.end()) return;  // stale response after completion
  ReadTrack& track = *it;

  // Read response fragment: accept only the next expected offset so
  // duplicate streams after a reissue are ignored.
  if (pkt.frag_off != track.next_off) return;
  if (pkt.data.size() > 0 && pkt.data.data()) {
    if (std::uint8_t* dst =
            mr_ptr(track.wr.local.addr + pkt.frag_off, pkt.data.size())) {
      std::memcpy(dst, pkt.data.data(), pkt.data.size());
    }
  }
  track.next_off += static_cast<std::uint32_t>(pkt.data.size());
  track.deadline = engine_.now() + config_.retransmit_timeout;
  if (track.next_off >= track.wr.local.length) {
    if (track.wr.signaled) {
      Wc wc;
      wc.wr_id = track.wr.wr_id;
      wc.opcode = WcOpcode::read;
      wc.byte_len = track.wr.local.length;
      wc.qp_num = qp.num;
      push_wc(qp.send_cq, wc);
    }
    qp.reads.erase(it);
  }
}

// --------------------------------------------------------------------------
// Retransmission / read timeout timer.

void Rnic::arm_qp_timer(Qp& qp) {
  if (qp.timer_armed) return;
  qp.timer_armed = true;
  qp.last_progress = engine_.now();
  const QpNum qpn = qp.num;
  engine_.schedule_after(config_.retransmit_timeout,
                         [this, qpn] { qp_timer_fired(qpn); });
}

void Rnic::qp_timer_fired(QpNum qpn) {
  Qp* qp = find_qp(qpn);
  if (!qp) return;
  qp->timer_armed = false;
  if (!alive_ || qp->state == QpState::error || qp->state == QpState::reset) {
    return;
  }
  const Nanos now = engine_.now();
  bool outstanding = false;

  if (!qp->inflight.empty()) {
    outstanding = true;
    if (now - qp->last_progress >= config_.retransmit_timeout) {
      ++stats_.timeouts;
      ++qp->retry_used;
      if (qp->retry_used > qp->attr.retry_count) {
        qp_to_error(*qp, Errc::transport_retry_exceeded);
        return;
      }
      rewind_to(*qp, qp->snd_una, /*rnr=*/false);
      qp->last_progress = now;
      mark_ready(*qp);
    }
  } else if (!qp->resend.empty()) {
    outstanding = true;
  }

  // Overdue reads: reissue the request with a fresh PSN.
  for (auto& track : qp->reads) {
    outstanding = true;
    if (now < track.deadline) continue;
    ++track.retries;
    if (track.retries > qp->attr.retry_count) {
      qp_to_error(*qp, Errc::transport_retry_exceeded);
      return;
    }
    ++stats_.timeouts;
    auto pkt = std::make_shared<RnicPacket>();
    pkt->type = PktType::read_req;
    pkt->dst_qp = qp->attr.dest_qp;
    pkt->psn = qp->snd_nxt++;
    pkt->msg_id = track.msg_id;
    pkt->remote_addr = track.wr.remote_addr;
    pkt->rkey = track.wr.rkey;
    pkt->read_len = track.wr.local.length;
    pkt->first = pkt->last = true;
    InflightPkt ip;
    ip.pkt = pkt;
    ip.wire_bytes = wire_size(*pkt);
    ip.rnr_budget = qp->attr.rnr_retry;
    qp->resend.push_back(std::move(ip));
    track.deadline = now + config_.retransmit_timeout;
    mark_ready(*qp);
  }

  if (outstanding || !qp->reads.empty()) arm_qp_timer(*qp);
}

void Rnic::rewind_to(Qp& qp, std::uint64_t psn, bool rnr) {
  // Move unacked packets at or above `psn` back to the resend queue,
  // preserving PSN order (go-back-N).
  while (!qp.inflight.empty() && qp.inflight.back().pkt->psn >= psn) {
    qp.resend.push_front(std::move(qp.inflight.back()));
    qp.inflight.pop_back();
  }
  if (rnr) qp.gated_until = engine_.now() + config_.rnr_backoff;
  if (!qp.resend.empty()) arm_qp_timer(qp);
}

// --------------------------------------------------------------------------
// Error handling.

void Rnic::qp_to_error(Qp& qp, Errc reason) {
  if (qp.state == QpState::error) return;
  qp.state = QpState::error;
  ++stats_.qp_errors;
  flush_queues(qp, reason);
  for (const auto& handler : qp_error_handlers_) handler(qp.num, reason);
}

void Rnic::flush_queues(Qp& qp, Errc head_reason) {
  bool head_used = false;
  auto flush_send = [&](std::uint64_t wr_id, WcOpcode op, bool signaled) {
    if (!signaled) return;
    Wc wc;
    wc.wr_id = wr_id;
    wc.status = head_used ? Errc::wr_flush_error : head_reason;
    head_used = true;
    wc.opcode = op;
    wc.qp_num = qp.num;
    push_wc(qp.send_cq, wc);
  };

  for (auto& ip : qp.resend) {
    if (ip.completes_wr) flush_send(ip.wr_id, ip.wc_op, ip.signaled);
  }
  qp.resend.clear();
  for (auto& ip : qp.inflight) {
    if (ip.completes_wr) flush_send(ip.wr_id, ip.wc_op, ip.signaled);
  }
  qp.inflight.clear();
  for (auto& track : qp.reads) {
    flush_send(track.wr.wr_id, WcOpcode::read, track.wr.signaled);
  }
  qp.reads.clear();
  for (auto& p : qp.sq) {
    flush_send(p.wr.wr_id,
               p.wr.opcode == Opcode::read ? WcOpcode::read : WcOpcode::send,
               p.wr.signaled);
  }
  qp.sq.clear();
  qp.responses.clear();

  // Receive side: flush posted RQEs (SRQ entries stay shared).
  if (qp.assembly.active) {
    Wc wc;
    wc.wr_id = qp.assembly.rqe.wr_id;
    wc.status = Errc::wr_flush_error;
    wc.opcode = WcOpcode::recv;
    wc.qp_num = qp.num;
    push_wc(qp.recv_cq, wc);
    qp.assembly.active = false;
  }
  for (auto& rqe : qp.rq) {
    Wc wc;
    wc.wr_id = rqe.wr_id;
    wc.status = Errc::wr_flush_error;
    wc.opcode = WcOpcode::recv;
    wc.qp_num = qp.num;
    push_wc(qp.recv_cq, wc);
  }
  qp.rq.clear();
}

}  // namespace xrdma::rnic
