// §VII-F experience 1: "Influence of RNIC cache is limited".
//
// The RNIC holds QP contexts in on-chip SRAM (1024 entries here). Sweeping
// the live QP count from well-below to far-above that capacity while
// round-robining traffic over the QPs measures the miss penalty: the paper
// found < 10% even at 60K QPs on ConnectX-4.
#include <memory>
#include <vector>

#include "bench/bench_util.hpp"
#include "verbs/verbs.hpp"

using namespace xrdma;
using namespace xrdma::bench;

namespace {

struct Sweep {
  int qps;
  Nanos avg_latency;
  double miss_rate;
};

Sweep run_sweep(int num_qps) {
  testbed::Cluster cluster;
  verbs::Pd spd(cluster.rnic(0)), rpd(cluster.rnic(1));
  verbs::Cq scq = spd.create_cq(8192), rcq = rpd.create_cq(8192);

  std::vector<verbs::Qp> sqps, rqps;
  sqps.reserve(static_cast<std::size_t>(num_qps));
  rqps.reserve(static_cast<std::size_t>(num_qps));
  for (int i = 0; i < num_qps; ++i) {
    sqps.push_back(
        spd.create_qp(scq, scq, {.max_send_wr = 4, .max_recv_wr = 4}));
    rqps.push_back(
        rpd.create_qp(rcq, rcq, {.max_send_wr = 4, .max_recv_wr = 4}));
  }
  auto wire = [](verbs::Qp& qp, net::NodeId peer, rnic::QpNum pq) {
    verbs::QpAttr a;
    a.state = verbs::QpState::init;
    qp.modify(a);
    a.state = verbs::QpState::rtr;
    a.dest_node = peer;
    a.dest_qp = pq;
    qp.modify(a);
    a.state = verbs::QpState::rts;
    qp.modify(a);
  };
  for (int i = 0; i < num_qps; ++i) {
    wire(sqps[static_cast<std::size_t>(i)], 1,
         rqps[static_cast<std::size_t>(i)].num());
    wire(rqps[static_cast<std::size_t>(i)], 0,
         sqps[static_cast<std::size_t>(i)].num());
  }
  verbs::Mr smr = spd.reg_mr(4096);
  verbs::Mr rmr = rpd.reg_mr(4096);

  // Round-robin one-way sends across all QPs; each send touches the QP
  // context on both NICs.
  const int kSends = 3000;
  Nanos total = 0;
  int measured = 0;
  int qp_index = 0;
  Nanos send_time = 0;
  bool done = false;

  std::function<void()> next = [&] {
    if (measured >= kSends) {
      done = true;
      return;
    }
    verbs::Qp& rqp = rqps[static_cast<std::size_t>(qp_index)];
    rqp.post_recv({.wr_id = 1, .sge = {rmr.addr(), 4096, rmr.lkey()}});
    cluster.rnic(1).arm_cq(rcq.id(), [&] {
      verbs::Wc wc[4];
      rcq.poll(wc, 4);
      total += cluster.engine().now() - send_time;
      ++measured;
      qp_index = (qp_index + 1) % num_qps;
      next();
    });
    send_time = cluster.engine().now();
    sqps[static_cast<std::size_t>(qp_index)].post_send(
        {.wr_id = 1,
         .opcode = verbs::Opcode::send,
         .local = {smr.addr(), 64, smr.lkey()}});
  };
  next();
  while (!done) cluster.engine().run_for(millis(50));

  Sweep s;
  s.qps = num_qps;
  s.avg_latency = total / measured;
  const auto& st = cluster.rnic(0).stats();
  s.miss_rate = static_cast<double>(st.qp_cache_misses) /
                static_cast<double>(st.qp_cache_hits + st.qp_cache_misses);
  return s;
}

}  // namespace

int main() {
  print_header("§VII-F exp.1 — QP scaling vs RNIC context cache (1024 entries)");
  print_row({"live_qps", "one-way_us", "cache_miss_rate", "vs_64qp"});
  std::vector<Sweep> rows;
  for (const int n : {64, 512, 1024, 4096, 16384, 65536}) {
    rows.push_back(run_sweep(n));
    const Sweep& s = rows.back();
    const double base = to_micros(rows.front().avg_latency);
    print_row({std::to_string(s.qps), fmt("%.3f", to_micros(s.avg_latency)),
               fmt("%.2f", s.miss_rate),
               fmt("%+.1f%%", 100.0 * (to_micros(s.avg_latency) - base) / base)});
  }
  const double base = to_micros(rows.front().avg_latency);
  const double worst = to_micros(rows.back().avg_latency);
  std::printf("\n64K QPs cost %+.1f%% latency over 64 QPs "
              "(paper: influence almost below 10%% up to 60K QPs)\n",
              100.0 * (worst - base) / base);
  return 0;
}
