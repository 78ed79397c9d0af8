// QP cache (§IV-E): unit behaviour of the RESET-state recycle pool plus
// its integration with the connect/close path — a recycled QP must come
// back in RESET and actually be reused by the next connection, and
// capacity overflow must destroy rather than hoard.
#include <gtest/gtest.h>

#include "core/context.hpp"
#include "core/qp_cache.hpp"
#include "testbed/cluster.hpp"

namespace xrdma::core {
namespace {

struct NicFixture {
  testbed::Cluster cluster;
  rnic::Rnic& nic;
  rnic::CqId cq;

  NicFixture() : cluster(testbed::ClusterConfig{}), nic(cluster.rnic(0)), cq(nic.create_cq(64)) {}

  rnic::QpNum make_rts_qp() {
    const rnic::QpNum qpn = nic.create_qp(cq, cq, {}, rnic::kInvalidId);
    rnic::QpAttr attr;
    attr.state = rnic::QpState::init;
    EXPECT_EQ(nic.modify_qp(qpn, attr), Errc::ok);
    attr.state = rnic::QpState::rtr;
    attr.dest_node = 0;
    attr.dest_qp = qpn;  // self-loop is fine; never used for traffic here
    EXPECT_EQ(nic.modify_qp(qpn, attr), Errc::ok);
    attr.state = rnic::QpState::rts;
    EXPECT_EQ(nic.modify_qp(qpn, attr), Errc::ok);
    return qpn;
  }
};

TEST(QpCache, MissThenHitAndResetStateReuse) {
  NicFixture t;
  QpCache cache(t.nic, 4);

  // Empty cache: every take is a miss.
  EXPECT_FALSE(cache.take().has_value());
  EXPECT_FALSE(cache.take().has_value());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);

  // Recycle an RTS QP: put() must park it in RESET, not destroy it.
  const rnic::QpNum qpn = t.make_rts_qp();
  ASSERT_EQ(t.nic.qp_state(qpn), rnic::QpState::rts);
  const std::size_t qps_before = t.nic.num_qps();
  cache.put(qpn);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.recycles(), 1u);
  EXPECT_EQ(t.nic.num_qps(), qps_before);  // still alive on the RNIC
  EXPECT_EQ(t.nic.qp_state(qpn), rnic::QpState::reset);

  // The next take returns exactly that QP, ready for the INIT->RTR->RTS
  // bring-up a fresh connection would run.
  const auto taken = cache.take();
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(*taken, qpn);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  rnic::QpAttr attr;
  attr.state = rnic::QpState::init;
  EXPECT_EQ(t.nic.modify_qp(qpn, attr), Errc::ok);
  t.nic.destroy_qp(qpn);
}

TEST(QpCache, CapacityOverflowDestroysInsteadOfHoarding) {
  NicFixture t;
  QpCache cache(t.nic, 2);
  EXPECT_EQ(cache.capacity(), 2u);

  const std::size_t base = t.nic.num_qps();
  for (int i = 0; i < 5; ++i) cache.put(t.make_rts_qp());

  // Two cached, three destroyed on arrival.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.recycles(), 2u);
  EXPECT_EQ(cache.evictions(), 3u);
  EXPECT_EQ(t.nic.num_qps(), base + 2);
}

// Integration: closing a channel recycles its QP through the context's
// cache and the next connect takes it instead of creating a fresh one —
// the paper's 3946 us -> 2451 us establishment saving.
TEST(QpCache, ChannelCloseFeedsNextConnect) {
  testbed::Cluster cluster{testbed::ClusterConfig{}};
  Config cfg;
  Context server(cluster.rnic(1), cluster.cm(), cfg);
  Context client(cluster.rnic(0), cluster.cm(), cfg);
  server.listen(7000, [](Channel&) {});

  auto establish = [&]() -> Channel* {
    Channel* ch = nullptr;
    client.connect(1, 7000, [&](Result<Channel*> r) {
      ASSERT_TRUE(r.ok());
      ch = r.value();
    });
    cluster.engine().run_until(cluster.engine().now() + millis(20));
    return ch;
  };

  Channel* first = establish();
  ASSERT_NE(first, nullptr);
  const std::uint64_t misses_cold = client.qp_cache().misses();
  EXPECT_GE(misses_cold, 1u);  // cold connect had nothing to reuse
  EXPECT_EQ(client.qp_cache().hits(), 0u);

  client.config().poll_mode = PollMode::busy;
  server.config().poll_mode = PollMode::busy;
  client.start_polling_loop();
  server.start_polling_loop();
  first->close();
  cluster.engine().run_until(cluster.engine().now() + millis(5));
  ASSERT_EQ(first->state(), Channel::State::closed);
  EXPECT_EQ(client.qp_cache().size(), 1u);  // FIN path recycled the QP

  Channel* second = establish();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(client.qp_cache().hits(), 1u);
  EXPECT_EQ(client.qp_cache().misses(), misses_cold);  // no new miss
  EXPECT_EQ(client.qp_cache().size(), 0u);
  client.stop_polling_loop();
  server.stop_polling_loop();
}

}  // namespace
}  // namespace xrdma::core
