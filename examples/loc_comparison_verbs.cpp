// §VII-B, raw-verbs side: the same three-echo request/response data plane
// as loc_comparison_xrdma.cpp, hand-built on the verbs API.
//
// Everything X-RDMA hides is explicit here: CQ creation, the QP state
// machine, out-of-band QP number exchange, memory registration, receive
// pre-posting, manual message framing, ack-less buffer lifetime reasoning,
// CQ polling and dispatch. This is the honest small-program ratio behind
// the paper's "2000 LoC of native RDMA vs ~40 LoC of X-RDMA" claim — and
// this version still ignores reconnection, liveness, flow control and
// resource caps, all of which the middleware provides for free.
#include <cstdio>
#include <cstring>

#include "testbed/cluster.hpp"
#include "verbs/verbs.hpp"

using namespace xrdma;
using namespace xrdma::verbs;

namespace {

// Application wire format: 4-byte length + 4-byte id + bytes.
struct Framing {
  std::uint32_t len = 0;
  std::uint32_t id = 0;
};

struct Endpoint {
  rnic::Rnic& nic;
  Pd pd;
  Cq scq;
  Cq rcq;
  Qp qp;
  Mr send_buf;
  Mr recv_bufs;
  static constexpr std::uint32_t kSlot = 4096;
  static constexpr int kSlots = 16;

  explicit Endpoint(rnic::Rnic& n)
      : nic(n),
        pd(n),
        scq(pd.create_cq(64)),
        rcq(pd.create_cq(64)),
        qp(pd.create_qp(scq, rcq, {.max_send_wr = 32, .max_recv_wr = 32})),
        send_buf(pd.reg_mr(kSlot)),
        recv_bufs(pd.reg_mr(kSlot * kSlots)) {}

  // The QP state machine ritual: RESET -> INIT -> RTR -> RTS, with the
  // peer's QP number learned out of band.
  void bring_up(net::NodeId peer, rnic::QpNum peer_qp) {
    QpAttr attr;
    attr.state = QpState::init;
    qp.modify(attr);
    attr.state = QpState::rtr;
    attr.dest_node = peer;
    attr.dest_qp = peer_qp;
    attr.retry_count = 7;
    attr.rnr_retry = 7;
    qp.modify(attr);
    attr.state = QpState::rts;
    qp.modify(attr);
  }

  // Receive buffers must be pre-posted or the sender eats RNR NAKs.
  void prepost() {
    for (int i = 0; i < kSlots; ++i) {
      qp.post_recv({.wr_id = static_cast<std::uint64_t>(i),
                    .sge = {recv_bufs.addr() + static_cast<std::uint64_t>(i) * kSlot,
                            kSlot, recv_bufs.lkey()}});
    }
  }

  void send_frame(std::uint32_t id, const char* body) {
    Framing f;
    f.len = static_cast<std::uint32_t>(std::strlen(body));
    f.id = id;
    // Each in-flight send needs its own staging slot: the buffer cannot be
    // reused until the NIC is done with it — one of the lifetime rules the
    // middleware otherwise handles (and an easy raw-verbs bug).
    const std::uint64_t off = (id % 4) * (kSlot / 4);
    std::uint8_t* p = send_buf.data(off);
    std::memcpy(p, &f, sizeof(f));
    std::memcpy(p + sizeof(f), body, f.len);
    qp.post_send({.wr_id = 100 + id,
                  .opcode = Opcode::send,
                  .local = {send_buf.addr() + off,
                            static_cast<std::uint32_t>(sizeof(f)) + f.len,
                            send_buf.lkey()}});
  }

  // Manual CQ polling and demultiplexing.
  template <typename OnFrame>
  void poll(OnFrame&& on_frame) {
    Wc wc[8];
    int n = rcq.poll(wc, 8);
    for (int i = 0; i < n; ++i) {
      if (wc[i].status != Errc::ok) continue;
      const std::uint64_t slot = wc[i].wr_id;
      const std::uint8_t* p =
          nic.mr_ptr(recv_bufs.addr() + slot * kSlot, kSlot);
      Framing f;
      std::memcpy(&f, p, sizeof(f));
      std::string body(reinterpret_cast<const char*>(p + sizeof(f)), f.len);
      // Buffer must be re-posted before the peer can send again into it.
      qp.post_recv({.wr_id = slot,
                    .sge = {recv_bufs.addr() + slot * kSlot, kSlot,
                            recv_bufs.lkey()}});
      on_frame(f.id, body);
    }
    // Drain send completions too, or the CQ overflows eventually.
    while (scq.poll(wc, 8) > 0) {
    }
  }
};

}  // namespace

int main() {
  testbed::Cluster cluster;
  Endpoint client(cluster.rnic(0));
  Endpoint server(cluster.rnic(1));

  // Out-of-band bootstrap that rdma_cm (or X-RDMA) would otherwise do.
  client.bring_up(1, server.qp.num());
  server.bring_up(0, client.qp.num());
  client.prepost();
  server.prepost();

  int done = 0;
  // Hand-rolled event loops, one per "thread".
  std::function<void()> server_loop = [&] {
    server.poll([&](std::uint32_t id, const std::string& body) {
      server.send_frame(id, ("echo:" + body).c_str());
    });
    cluster.engine().schedule_after(micros(1), server_loop);
  };
  std::function<void()> client_loop = [&] {
    client.poll([&](std::uint32_t, const std::string& body) {
      std::printf("response: %s\n", body.c_str());
      ++done;
    });
    if (done < 3) cluster.engine().schedule_after(micros(1), client_loop);
  };
  server_loop();
  client_loop();

  for (int i = 0; i < 3; ++i) {
    client.send_frame(static_cast<std::uint32_t>(i),
                      ("req" + std::to_string(i)).c_str());
  }
  cluster.run_for(millis(10));
  std::printf("%d/3 rpcs completed\n", done);
  return done == 3 ? 0 : 1;
}
