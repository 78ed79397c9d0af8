#include "baselines/am_middleware.hpp"

#include <cassert>
#include <cstring>

namespace xrdma::baselines {

AmConfig AmConfig::ibv_pingpong() {
  AmConfig c;
  c.name = "ibv_rc_pingpong";
  c.send_overhead = nanos(40);  // bare post_send loop
  c.recv_overhead = nanos(40);
  c.eager_threshold = 0xffffffff;  // the raw benchmark always sends inline
  c.header_bytes = 0;
  c.copies_on_send = 0;
  c.copies_on_recv = 0;
  return c;
}

AmConfig AmConfig::xio_like() {
  AmConfig c;
  c.name = "xio";
  c.send_overhead = nanos(920);   // deep session/dispatcher stack
  c.recv_overhead = nanos(810);
  c.eager_threshold = 8192;
  c.header_bytes = 64;
  c.copies_on_send = 1;
  c.copies_on_recv = 1;
  return c;
}

AmConfig AmConfig::ucx_am_rc_like() {
  AmConfig c;
  c.name = "ucx-am-rc";
  c.send_overhead = nanos(230);
  c.recv_overhead = nanos(185);
  c.eager_threshold = 8192;
  c.header_bytes = 40;
  c.copies_on_send = 0;
  c.copies_on_recv = 1;  // eager data lands in the AM bounce, copied out
  return c;
}

AmConfig AmConfig::libfabric_like() {
  AmConfig c;
  c.name = "libfabric";
  c.send_overhead = nanos(320);  // provider dispatch indirection
  c.recv_overhead = nanos(260);
  c.eager_threshold = 16384;
  c.header_bytes = 48;
  c.copies_on_send = 0;
  c.copies_on_recv = 1;
  return c;
}

namespace {
constexpr std::uint32_t kAmMagic = 0x414d5047;  // "AMPG"
constexpr std::uint32_t kBulkBytes = 32u << 20;
constexpr int kSlots = 32;

struct WireHdr {
  std::uint32_t magic = kAmMagic;
  std::uint32_t size = 0;
  std::uint8_t rendezvous = 0;
  std::uint8_t echo = 0;
  std::uint16_t pad = 0;
  std::uint64_t raddr = 0;
  std::uint32_t rkey = 0;
};
static_assert(sizeof(WireHdr) <= 40);
}  // namespace

struct AmPair::Side {
  rnic::Rnic& nic;
  verbs::Pd pd;
  verbs::Cq cq;
  verbs::Qp qp;
  verbs::Mr stage;    // real: header + eager payload staging for sends
  verbs::Mr slots;    // real: receive bounce slots
  verbs::Mr bulk;     // synthetic: rendezvous payload (timing only)
  bool is_client = false;
  std::uint32_t slot_size = 0;
  // Single-outstanding rendezvous state (pings are sequential).
  std::uint32_t pending_read_size = 0;
  bool pending_read_echo = false;

  explicit Side(rnic::Rnic& n) : nic(n), pd(n) {}
};

AmPair::AmPair(testbed::Cluster& cluster, net::NodeId a, net::NodeId b,
               AmConfig config)
    : cluster_(cluster), cfg_(std::move(config)) {
  const std::uint32_t eager_cap =
      std::min<std::uint32_t>(cfg_.eager_threshold, 64 * 1024);
  auto make_side = [&](net::NodeId node, bool is_client) {
    auto side = std::make_unique<Side>(cluster_.rnic(node));
    side->is_client = is_client;
    side->cq = side->pd.create_cq(256);
    side->qp = side->pd.create_qp(side->cq, side->cq,
                                  {.max_send_wr = 64, .max_recv_wr = 64});
    side->slot_size = sizeof(WireHdr) + cfg_.header_bytes + eager_cap;
    side->stage = side->pd.reg_mr(side->slot_size);
    side->slots = side->pd.reg_mr(static_cast<std::uint64_t>(side->slot_size) *
                                  kSlots);
    side->bulk = side->pd.reg_mr(kBulkBytes, /*real=*/false);
    return side;
  };
  client_ = make_side(a, true);
  server_ = make_side(b, false);

  auto wire = [](Side& s, net::NodeId peer, rnic::QpNum peer_qp) {
    verbs::QpAttr attr;
    attr.state = verbs::QpState::init;
    s.qp.modify(attr);
    attr.state = verbs::QpState::rtr;
    attr.dest_node = peer;
    attr.dest_qp = peer_qp;
    attr.rnr_retry = 7;
    s.qp.modify(attr);
    attr.state = verbs::QpState::rts;
    s.qp.modify(attr);
  };
  wire(*client_, b, server_->qp.num());
  wire(*server_, a, client_->qp.num());

  for (auto* side : {client_.get(), server_.get()}) {
    for (int i = 0; i < kSlots; ++i) {
      side->qp.post_recv(
          {.wr_id = static_cast<std::uint64_t>(i),
           .sge = {side->slots.addr() +
                       static_cast<std::uint64_t>(i) * side->slot_size,
                   side->slot_size, side->slots.lkey()}});
    }
    arm(*side);
  }
}

AmPair::~AmPair() = default;

void AmPair::arm(Side& side) {
  side.nic.arm_cq(side.cq.id(), [this, &side] {
    verbs::Wc wc[16];
    int n;
    while ((n = side.cq.poll(wc, 16)) > 0) {
      for (int i = 0; i < n; ++i) on_wc(side, wc[i]);
    }
    arm(side);
  });
}

void AmPair::on_wc(Side& side, const verbs::Wc& wc) {
  if (wc.status != Errc::ok) return;
  if (wc.opcode == verbs::WcOpcode::recv) {
    const std::uint64_t slot = wc.wr_id;
    const std::uint8_t* bytes = side.nic.mr_ptr(
        side.slots.addr() + slot * side.slot_size, sizeof(WireHdr));
    WireHdr hdr;
    std::memcpy(&hdr, bytes, sizeof(WireHdr));
    // Re-arm the slot right away.
    side.qp.post_recv(
        {.wr_id = slot,
         .sge = {side.slots.addr() + slot * side.slot_size, side.slot_size,
                 side.slots.lkey()}});
    if (hdr.magic != kAmMagic) return;

    if (hdr.rendezvous) {
      // Pull the payload, then deliver.
      side.pending_read_size = hdr.size;
      side.pending_read_echo = hdr.echo != 0;
      side.qp.post_send({.wr_id = 3000,
                         .opcode = verbs::Opcode::read,
                         .local = {side.bulk.addr(), hdr.size,
                                   side.bulk.lkey()},
                         .remote_addr = hdr.raddr,
                         .rkey = hdr.rkey});
      return;
    }
    deliver(side, hdr.size, hdr.echo != 0);
    return;
  }
  if (wc.opcode == verbs::WcOpcode::read && wc.wr_id == 3000) {
    deliver(side, side.pending_read_size, side.pending_read_echo);
  }
  // Send completions need no action (staging is reused sequentially).
}

void AmPair::deliver(Side& side, std::uint32_t size, bool is_echo) {
  Nanos cost = cfg_.recv_overhead;
  cost += static_cast<Nanos>(cfg_.copies_on_recv) *
          transmission_time(size, cfg_.copy_gbps);
  cluster_.engine().schedule_after(cost, [this, &side, size, is_echo] {
    if (is_echo) {
      assert(side.is_client);
      if (pending_done_) {
        auto done = std::move(pending_done_);
        pending_done_ = nullptr;
        done(cluster_.engine().now() - ping_started_);
      }
      return;
    }
    // Server: bounce the same size back.
    send_message(side, size, /*is_echo=*/true);
  });
}

void AmPair::send_message(Side& side, std::uint32_t size, bool is_echo) {
  Nanos cost = cfg_.send_overhead;
  cost += static_cast<Nanos>(cfg_.copies_on_send) *
          transmission_time(size, cfg_.copy_gbps);
  cluster_.engine().schedule_after(cost, [this, &side, size, is_echo] {
    WireHdr hdr;
    hdr.size = size;
    hdr.echo = is_echo ? 1 : 0;
    const bool rendezvous = size > cfg_.eager_threshold;
    hdr.rendezvous = rendezvous ? 1 : 0;
    if (rendezvous) {
      hdr.raddr = side.bulk.addr();
      hdr.rkey = side.bulk.rkey();
    }
    std::memcpy(side.nic.mr_ptr(side.stage.addr(), sizeof(WireHdr)), &hdr,
                sizeof(WireHdr));
    const std::uint32_t wire_len =
        sizeof(WireHdr) + cfg_.header_bytes + (rendezvous ? 0 : size);
    side.qp.post_send({.wr_id = 2000,
                       .opcode = verbs::Opcode::send,
                       .local = {side.stage.addr(),
                                 std::min(wire_len, side.slot_size),
                                 side.stage.lkey()}});
  });
}

void AmPair::ping(std::uint32_t size, std::function<void(Nanos)> done) {
  assert(!pending_done_ && "pings are sequential");
  pending_done_ = std::move(done);
  ping_started_ = cluster_.engine().now();
  send_message(*client_, size, /*is_echo=*/false);
}

Nanos AmPair::measure_avg_rtt(std::uint32_t size, int count, int warmup) {
  Nanos total = 0;
  int measured = 0;
  for (int i = 0; i < count + warmup; ++i) {
    Nanos rtt = -1;
    ping(size, [&](Nanos r) { rtt = r; });
    cluster_.engine().run();
    assert(rtt >= 0);
    if (i >= warmup) {
      total += rtt;
      ++measured;
    }
  }
  return measured ? total / measured : 0;
}

}  // namespace xrdma::baselines
