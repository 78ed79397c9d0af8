// rdma_cm model: establishment cost model, private data exchange, QP
// reuse, rejection, and listener lifecycle.
#include <gtest/gtest.h>

#include "testbed/cluster.hpp"
#include "verbs/cm.hpp"

namespace xrdma::verbs::cm {
namespace {

struct CmFixture : ::testing::Test {
  testbed::Cluster cluster;
  rnic::Rnic& client_nic = cluster.rnic(0);
  rnic::Rnic& server_nic = cluster.rnic(1);
  rnic::CqId ccq = client_nic.create_cq(64);
  rnic::CqId scq = server_nic.create_cq(64);

  AcceptSpec spec() {
    AcceptSpec s;
    s.send_cq = scq;
    s.recv_cq = scq;
    return s;
  }

  ConnectOptions opts() {
    ConnectOptions o;
    o.send_cq = ccq;
    o.recv_cq = ccq;
    return o;
  }
};

TEST_F(CmFixture, EstablishesBothSidesRts) {
  Established server_side;
  Listener listener(
      cluster.cm(), server_nic, 80, [this] { return spec(); },
      [](const Buffer&) { return Buffer{}; },
      [&](Established e) { server_side = std::move(e); });

  Established client_side;
  bool ok = false;
  cluster.cm().connect(client_nic, 1, 80, opts(),
                       [&](Result<Established> r) {
                         ASSERT_TRUE(r.ok());
                         client_side = std::move(r.value());
                         ok = true;
                       });
  cluster.engine().run_for(millis(20));
  ASSERT_TRUE(ok);
  EXPECT_EQ(client_side.qp.state(), QpState::rts);
  EXPECT_EQ(server_side.qp.state(), QpState::rts);
  EXPECT_EQ(client_side.peer_node, 1u);
  EXPECT_EQ(server_side.peer_node, 0u);
  // Each side's QP was moved to RTR aimed at the other's: a send from
  // either lands in the peer QP's receive queue.
  const rnic::MrInfo cmr = client_nic.reg_mr(64);
  const rnic::MrInfo smr = server_nic.reg_mr(64);
  ASSERT_EQ(
      server_side.qp.post_recv({.wr_id = 1, .sge = {smr.addr, 64, smr.lkey}}),
      Errc::ok);
  ASSERT_EQ(
      client_side.qp.post_recv({.wr_id = 2, .sge = {cmr.addr, 64, cmr.lkey}}),
      Errc::ok);
  ASSERT_EQ(client_side.qp.post_send({.wr_id = 3,
                                      .opcode = rnic::Opcode::send,
                                      .local = {cmr.addr, 8, cmr.lkey}}),
            Errc::ok);
  ASSERT_EQ(server_side.qp.post_send({.wr_id = 4,
                                      .opcode = rnic::Opcode::send,
                                      .local = {smr.addr, 8, smr.lkey}}),
            Errc::ok);
  cluster.engine().run_for(millis(1));
  auto received_on = [](rnic::Rnic& nic, rnic::CqId cq) {
    rnic::Wc wc[4];
    const int n = nic.poll_cq(cq, wc, 4);
    for (int i = 0; i < n; ++i) {
      if (wc[i].opcode == rnic::WcOpcode::recv) return wc[i].qp_num;
    }
    return rnic::kInvalidId;
  };
  EXPECT_EQ(received_on(server_nic, scq), server_side.qp.num());
  EXPECT_EQ(received_on(client_nic, ccq), client_side.qp.num());
}

TEST_F(CmFixture, EstablishmentTimeMatchesCostModel) {
  Listener listener(
      cluster.cm(), server_nic, 80, [this] { return spec(); },
      [](const Buffer&) { return Buffer{}; }, [](Established) {});
  const Nanos start = cluster.engine().now();
  Nanos took = -1;
  cluster.cm().connect(client_nic, 1, 80, opts(), [&](Result<Established> r) {
    ASSERT_TRUE(r.ok());
    took = cluster.engine().now() - start;
  });
  cluster.engine().run_for(millis(20));
  EXPECT_EQ(took, cluster.cm().costs().total_with_create());
}

TEST_F(CmFixture, PrivateDataTravelsBothWays) {
  Buffer req_seen;
  Listener listener(
      cluster.cm(), server_nic, 80, [this] { return spec(); },
      [&](const Buffer& req) {
        req_seen = req.clone();
        return Buffer::from_string("rep-data");
      },
      [](Established) {});
  ConnectOptions o = opts();
  o.private_data = Buffer::from_string("req-data");
  std::string rep;
  cluster.cm().connect(client_nic, 1, 80, std::move(o),
                       [&](Result<Established> r) {
                         ASSERT_TRUE(r.ok());
                         rep = r.value().private_data.to_string();
                       });
  cluster.engine().run_for(millis(20));
  EXPECT_EQ(req_seen.to_string(), "req-data");
  EXPECT_EQ(rep, "rep-data");
}

TEST_F(CmFixture, ConnectToMissingListenerRefused) {
  Errc err = Errc::ok;
  cluster.cm().connect(client_nic, 1, 81, opts(),
                       [&](Result<Established> r) { err = r.error(); });
  cluster.engine().run_for(millis(20));
  EXPECT_EQ(err, Errc::connection_refused);
  // The speculatively-created QP was cleaned up.
  EXPECT_EQ(client_nic.num_qps(), 0u);
}

TEST_F(CmFixture, ReusedQpSkipsCreation) {
  Listener listener(
      cluster.cm(), server_nic, 80, [this] { return spec(); },
      [](const Buffer&) { return Buffer{}; }, [](Established) {});
  // Pre-create a QP in RESET, as the QP cache would hold it.
  const rnic::QpNum cached = client_nic.create_qp(ccq, ccq, {});
  ConnectOptions o = opts();
  o.reuse_qp = cached;
  Nanos took = -1;
  const Nanos start = cluster.engine().now();
  cluster.cm().connect(client_nic, 1, 80, std::move(o),
                       [&](Result<Established> r) {
                         ASSERT_TRUE(r.ok());
                         EXPECT_EQ(r.value().qp.num(), cached);
                         took = cluster.engine().now() - start;
                       });
  cluster.engine().run_for(millis(20));
  EXPECT_EQ(took, cluster.cm().costs().total_reused());
  EXPECT_LT(took, cluster.cm().costs().total_with_create());
}

TEST_F(CmFixture, ReusingNonResetQpFails) {
  Listener listener(
      cluster.cm(), server_nic, 80, [this] { return spec(); },
      [](const Buffer&) { return Buffer{}; }, [](Established) {});
  const rnic::QpNum qpn = client_nic.create_qp(ccq, ccq, {});
  rnic::QpAttr attr;
  attr.state = QpState::init;
  client_nic.modify_qp(qpn, attr);  // not RESET any more
  ConnectOptions o = opts();
  o.reuse_qp = qpn;
  Errc err = Errc::ok;
  cluster.cm().connect(client_nic, 1, 80, std::move(o),
                       [&](Result<Established> r) { err = r.error(); });
  cluster.engine().run_for(millis(20));
  EXPECT_EQ(err, Errc::invalid_argument);
}

TEST_F(CmFixture, ListenerDestructionStopsAccepting) {
  {
    Listener listener(
        cluster.cm(), server_nic, 80, [this] { return spec(); },
        [](const Buffer&) { return Buffer{}; }, [](Established) {});
  }
  Errc err = Errc::ok;
  cluster.cm().connect(client_nic, 1, 80, opts(),
                       [&](Result<Established> r) { err = r.error(); });
  cluster.engine().run_for(millis(20));
  EXPECT_EQ(err, Errc::connection_refused);
}

TEST_F(CmFixture, ServerQpSupplierUsedWhenValid) {
  const rnic::QpNum cached = server_nic.create_qp(scq, scq, {});
  Established server_side;
  Listener listener(
      cluster.cm(), server_nic, 80, [this] { return spec(); },
      [](const Buffer&) { return Buffer{}; },
      [&](Established e) { server_side = std::move(e); });
  listener.set_qp_supplier([&]() -> std::optional<rnic::QpNum> {
    return cached;
  });
  bool ok = false;
  cluster.cm().connect(client_nic, 1, 80, opts(),
                       [&](Result<Established> r) { ok = r.ok(); });
  cluster.engine().run_for(millis(20));
  ASSERT_TRUE(ok);
  EXPECT_EQ(server_side.qp.num(), cached);
}

TEST_F(CmFixture, ConcurrentConnectsAllSucceed) {
  int accepted = 0;
  Listener listener(
      cluster.cm(), server_nic, 80, [this] { return spec(); },
      [](const Buffer&) { return Buffer{}; },
      [&](Established) { ++accepted; });
  int connected = 0;
  for (int i = 0; i < 32; ++i) {
    cluster.cm().connect(client_nic, 1, 80, opts(),
                         [&](Result<Established> r) {
                           if (r.ok()) ++connected;
                         });
  }
  cluster.engine().run_for(millis(50));
  EXPECT_EQ(connected, 32);
  EXPECT_EQ(accepted, 32);
}

}  // namespace
}  // namespace xrdma::verbs::cm
