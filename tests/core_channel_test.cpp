// End-to-end middleware behaviour: connection establishment over CM,
// small/large messages, RPC with Read-replace-Write responses, seq-ack
// acking, RNR-freedom under a slow receiver, keepalive peer-death
// detection, FIN close with QP recycling, flow-control queuing, SRQ mode,
// fault injection, and zero-copy sends.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/filter.hpp"
#include "core/context.hpp"
#include "testbed/cluster.hpp"

namespace xrdma::core {
namespace {

struct Pair {
  testbed::Cluster cluster;
  Context server;
  Context client;
  Channel* client_ch = nullptr;
  Channel* server_ch = nullptr;

  explicit Pair(Config cfg = {}, testbed::ClusterConfig ccfg = {})
      : cluster(ccfg),
        server(cluster.rnic(1), cluster.cm(), cfg),
        client(cluster.rnic(0), cluster.cm(), cfg) {}

  void establish(std::uint16_t port = 7000) {
    server.listen(port, [this](Channel& ch) { server_ch = &ch; });
    client.connect(1, port, [this](Result<Channel*> r) {
      ASSERT_TRUE(r.ok());
      client_ch = r.value();
    });
    cluster.engine().run_until(cluster.engine().now() + millis(20));
    ASSERT_NE(client_ch, nullptr);
    ASSERT_NE(server_ch, nullptr);
    // Applications poll; tests drive polling in a busy loop.
    server.config().poll_mode = PollMode::busy;
    client.config().poll_mode = PollMode::busy;
    server.start_polling_loop();
    client.start_polling_loop();
  }

  void run(Nanos d) { cluster.engine().run_until(cluster.engine().now() + d); }
};

TEST(Channel, EstablishesAndExchangesSmallMessages) {
  Pair t;
  t.establish();
  std::vector<std::string> got;
  t.server_ch->set_on_msg([&](Channel& ch, Msg&& m) {
    got.push_back(m.payload.to_string());
    ch.send_msg(Buffer::from_string("pong:" + m.payload.to_string()));
  });
  std::vector<std::string> replies;
  t.client_ch->set_on_msg(
      [&](Channel&, Msg&& m) { replies.push_back(m.payload.to_string()); });

  t.client_ch->send_msg(Buffer::from_string("a"));
  t.client_ch->send_msg(Buffer::from_string("b"));
  t.run(millis(2));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "a");
  EXPECT_EQ(got[1], "b");
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], "pong:a");
  EXPECT_EQ(replies[1], "pong:b");
}

TEST(Channel, LargeMessageGoesRendezvousAndDeliversContent) {
  Pair t;
  t.establish();
  const std::size_t len = 512 * 1024;  // well above small_msg_size
  Buffer big = Buffer::make(len);
  fill_pattern(big, 42);

  Buffer received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received = std::move(m.payload); });
  t.client_ch->send_msg(big.clone());
  t.run(millis(5));

  ASSERT_EQ(received.size(), len);
  EXPECT_TRUE(check_pattern(received, 42));
  EXPECT_EQ(t.client_ch->stats().large_msgs_tx, 1u);
  EXPECT_EQ(t.server_ch->stats().large_msgs_rx, 1u);
  EXPECT_GT(t.server_ch->stats().reads_issued, 1u);  // fragmented pull
}

TEST(Channel, SmallAndLargeInterleavedStayInOrder) {
  Pair t;
  t.establish();
  std::vector<std::size_t> sizes;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { sizes.push_back(m.payload.size()); });
  const std::vector<std::size_t> plan = {10, 100000, 20, 5, 300000, 1, 8192};
  for (std::size_t s : plan) t.client_ch->send_msg(Buffer::make(s));
  t.run(millis(10));
  EXPECT_EQ(sizes, plan);  // seq-ack delivery order == send order
}

TEST(Channel, RpcRoundTripMatchesById) {
  Pair t;
  t.establish();
  t.server_ch->set_on_msg([&](Channel& ch, Msg&& m) {
    ASSERT_TRUE(m.is_rpc_req);
    ch.reply(m.rpc_id, Buffer::from_string("resp:" + m.payload.to_string()));
  });
  std::vector<std::string> responses;
  for (int i = 0; i < 3; ++i) {
    t.client_ch->call(Buffer::from_string("req" + std::to_string(i)),
                      [&](Result<Msg> r) {
                        ASSERT_TRUE(r.ok());
                        responses.push_back(r.value().payload.to_string());
                      });
  }
  t.run(millis(5));
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0], "resp:req0");
  EXPECT_EQ(responses[2], "resp:req2");
  EXPECT_EQ(t.client_ch->stats().rpc_calls, 3u);
}

TEST(Channel, LargeRpcResponseUsesReadReplaceWrite) {
  // §IV-C: the requester pulls big responses with RDMA Read instead of the
  // responder pushing an over-sized Write.
  Pair t;
  t.establish();
  const std::size_t len = 1u << 20;
  t.server_ch->set_on_msg([&](Channel& ch, Msg&& m) {
    Buffer rsp = Buffer::make(len);
    fill_pattern(rsp, 7);
    ch.reply(m.rpc_id, std::move(rsp));
  });
  bool done = false;
  t.client_ch->call(Buffer::from_string("gimme"), [&](Result<Msg> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().payload.size(), len);
    EXPECT_TRUE(check_pattern(r.value().payload, 7));
    done = true;
  });
  t.run(millis(10));
  EXPECT_TRUE(done);
  // The *requester* (client) issued the reads for the response payload.
  EXPECT_GT(t.client_ch->stats().reads_issued, 0u);
  EXPECT_EQ(t.server_ch->stats().large_msgs_tx, 1u);
}

TEST(Channel, RpcTimesOutWhenServerIgnoresRequest) {
  Pair t;
  t.establish();
  t.server_ch->set_on_msg([](Channel&, Msg&&) { /* never reply */ });
  Errc err = Errc::ok;
  t.client_ch->call(Buffer::from_string("x"),
                    [&](Result<Msg> r) { err = r.error(); },
                    /*timeout=*/millis(3));
  t.run(millis(10));
  EXPECT_EQ(err, Errc::timed_out);
  EXPECT_EQ(t.client_ch->stats().rpc_timeouts, 1u);
}

TEST(Channel, WindowLimitsInflightAndQueuesExcess) {
  Config cfg;
  cfg.window_depth = 4;
  Pair t(cfg);
  t.establish();
  int delivered = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(t.client_ch->send_msg(Buffer::make(64)), Errc::ok);
  }
  EXPECT_LE(t.client_ch->inflight_msgs(), 4u);
  EXPECT_GT(t.client_ch->stats().window_stalls, 0u);
  t.run(millis(20));
  EXPECT_EQ(delivered, 50);
  EXPECT_EQ(t.client_ch->inflight_msgs(), 0u);  // everything acked
}

TEST(Channel, RnrFreeEvenWithTinyWindowAndBurst) {
  // The RNR-free guarantee (§V-B): no RNR NAK ever appears at the RNIC
  // level, because the window bounds in-flight sends below the pre-posted
  // receive credits.
  Config cfg;
  cfg.window_depth = 2;
  Pair t(cfg);
  t.establish();
  int delivered = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  for (int i = 0; i < 200; ++i) t.client_ch->send_msg(Buffer::make(128));
  t.run(millis(50));
  EXPECT_EQ(delivered, 200);
  EXPECT_EQ(t.cluster.rnic(1).stats().rnr_naks_sent, 0u);
  EXPECT_EQ(t.cluster.rnic(0).stats().rnr_events, 0u);
}

TEST(Channel, StandaloneAckFlowsWhenTrafficIsOneWay) {
  Config cfg;
  cfg.ack_every = 4;
  Pair t(cfg);
  t.establish();
  int delivered = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  for (int i = 0; i < 32; ++i) t.client_ch->send_msg(Buffer::make(32));
  t.run(millis(10));
  EXPECT_EQ(delivered, 32);
  // Server never sent data, so acks had to travel standalone.
  EXPECT_GT(t.server_ch->stats().acks_tx, 0u);
  EXPECT_GT(t.client_ch->stats().acks_rx, 0u);
}

TEST(Channel, DeadlockNopFlushesFinalAcks) {
  // With ack_every larger than the message count, the tail acks can only
  // leave via the NOP path (Algorithm 1 TIME_OUT).
  Config cfg;
  cfg.ack_every = 1000;
  cfg.window_depth = 8;
  Pair t(cfg);
  t.establish();
  int delivered = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  for (int i = 0; i < 5; ++i) t.client_ch->send_msg(Buffer::make(16));
  t.run(millis(30));
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(t.client_ch->inflight_msgs(), 0u);  // acks arrived eventually
  EXPECT_GT(t.server_ch->stats().nops_tx, 0u);
}

TEST(Channel, KeepaliveDetectsDeadPeerAndReleasesResources) {
  Config cfg;
  cfg.keepalive_intv = millis(5);
  cfg.keepalive_timeout = millis(20);
  Pair t(cfg);
  t.establish();
  Errc seen = Errc::ok;
  t.client_ch->set_on_error([&](Channel&, Errc e) { seen = e; });

  t.run(millis(2));
  t.cluster.host(1).set_alive(false);  // machine crash, no FIN
  t.run(millis(200));

  EXPECT_EQ(seen, Errc::peer_dead);
  EXPECT_EQ(t.client_ch->state(), Channel::State::error);
  EXPECT_GT(t.client_ch->stats().keepalive_probes, 0u);
  // No leak: the QP went back to the cache for reuse (§V-A).
  EXPECT_EQ(t.client.qp_cache().size(), 1u);
}

TEST(Channel, KeepaliveQuietOnHealthyIdleChannel) {
  Config cfg;
  cfg.keepalive_intv = millis(2);
  Pair t(cfg);
  t.establish();
  bool errored = false;
  t.client_ch->set_on_error([&](Channel&, Errc) { errored = true; });
  t.run(millis(100));
  EXPECT_FALSE(errored);
  EXPECT_GT(t.client_ch->stats().keepalive_probes, 5u);
  EXPECT_EQ(t.client_ch->state(), Channel::State::established);
}

TEST(Channel, GracefulCloseRecyclesQpAndNotifiesPeer) {
  Pair t;
  t.establish();
  Errc peer_saw = Errc::ok;
  t.server_ch->set_on_error([&](Channel&, Errc e) { peer_saw = e; });
  t.client_ch->close();
  t.run(millis(5));
  EXPECT_EQ(t.client_ch->state(), Channel::State::closed);
  EXPECT_EQ(t.server_ch->state(), Channel::State::closed);
  EXPECT_EQ(peer_saw, Errc::channel_closed);
  EXPECT_EQ(t.client.qp_cache().size(), 1u);
  EXPECT_EQ(t.server.qp_cache().size(), 1u);
  EXPECT_EQ(t.client_ch->send_msg(Buffer::make(8)), Errc::channel_closed);
}

// A closed channel frees its window rings and bounce slots (the Context
// keeps it for its stats), but its window edges and depths read exactly as
// at close: the X-Check window oracle checks they never move backwards.
TEST(Channel, ClosedChannelKeepsItsWindowEdgesAndDepths) {
  Pair t;
  t.establish();
  t.server_ch->set_on_msg([](Channel&, Msg&&) {});
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(t.client_ch->send_msg(Buffer::make(100)), Errc::ok);
  }
  t.run(millis(5));
  struct Edges {
    Seq tx_seq, tx_acked, rx_wta, rx_rta;
    std::uint32_t send_depth, recv_depth;
    bool operator==(const Edges&) const = default;
  };
  auto edges = [](const Channel& ch) {
    return Edges{ch.tx_seq(), ch.tx_acked(), ch.rx_wta(), ch.rx_rta(),
                 ch.send_window_depth(), ch.recv_window_depth()};
  };
  const Edges client_before = edges(*t.client_ch);
  const Edges server_before = edges(*t.server_ch);
  EXPECT_EQ(client_before.tx_seq, 5u);
  EXPECT_EQ(server_before.rx_rta, 5u);
  t.client_ch->close();
  t.run(millis(5));
  ASSERT_EQ(t.client_ch->state(), Channel::State::closed);
  ASSERT_EQ(t.server_ch->state(), Channel::State::closed);
  EXPECT_EQ(edges(*t.client_ch), client_before);
  EXPECT_EQ(edges(*t.server_ch), server_before);
  EXPECT_TRUE(t.client_ch->quiescent());
  EXPECT_EQ(t.client_ch->inflight_msgs(), 0u);
  EXPECT_EQ(t.client_ch->send_msg(Buffer::make(8)), Errc::channel_closed);
  t.run(millis(50));
  EXPECT_EQ(edges(*t.client_ch), client_before);
}

TEST(Channel, QpCacheAcceleratesReconnect) {
  Pair t;
  t.establish();
  t.client_ch->close();
  t.run(millis(5));
  ASSERT_EQ(t.client.qp_cache().size(), 1u);

  const Nanos start = t.cluster.engine().now();
  Channel* fresh = nullptr;
  t.client.connect(1, 7000, [&](Result<Channel*> r) {
    ASSERT_TRUE(r.ok());
    fresh = r.value();
  });
  t.run(millis(20));
  ASSERT_NE(fresh, nullptr);
  const Nanos reused_time = fresh->last_rx_time() - start;
  // Cached-QP establishment must beat the full create path.
  const auto& costs = t.cluster.cm().costs();
  EXPECT_LT(reused_time, costs.total_with_create());
  EXPECT_GE(reused_time, costs.total_reused());
  EXPECT_EQ(t.client.qp_cache().hits(), 1u);
}

TEST(Channel, FlowControlQueuesReadsBeyondOutstandingCap) {
  Config cfg;
  cfg.max_outstanding_wrs = 2;
  cfg.frag_size = 16 * 1024;
  Pair t(cfg);
  t.establish();
  Buffer received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received = std::move(m.payload); });
  Buffer big = Buffer::make(256 * 1024);  // 16 fragments at 16 KB
  fill_pattern(big, 9);
  t.client_ch->send_msg(std::move(big));
  t.run(millis(20));
  ASSERT_EQ(received.size(), 256u * 1024);
  EXPECT_TRUE(check_pattern(received, 9));
  EXPECT_GT(t.server_ch->stats().flowctl_queued, 0u);
}

TEST(Channel, SrqModeSharesReceiveBuffersAcrossChannels) {
  Config cfg;
  cfg.use_srq = true;
  Pair t(cfg);
  t.establish();
  // Second channel between the same contexts.
  Channel* second = nullptr;
  t.client.connect(1, 7000, [&](Result<Channel*> r) { second = r.value(); });
  t.run(millis(20));
  ASSERT_NE(second, nullptr);

  int delivered = 0;
  for (Channel* ch : t.server.channels()) {
    ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  }
  t.client_ch->send_msg(Buffer::from_string("one"));
  second->send_msg(Buffer::from_string("two"));
  t.run(millis(5));
  EXPECT_EQ(delivered, 2);
}

TEST(Channel, FilterDropCausesRpcTimeoutNotCrash) {
  Pair t;
  t.establish();
  t.server_ch->set_on_msg([](Channel& ch, Msg&& m) {
    ch.reply(m.rpc_id, Buffer::from_string("r"));
  });
  // Drop every RPC request at the server's ingress (Filter, §VI-C).
  t.server.set_filter([](Channel&, const WireHeader& hdr) {
    Context::FilterDecision d;
    if (hdr.flags & kFlagRpcReq) d.action = Context::FilterAction::drop;
    return d;
  });
  Errc err = Errc::ok;
  t.client_ch->call(Buffer::from_string("x"),
                    [&](Result<Msg> r) { err = r.error(); }, millis(5));
  t.run(millis(20));
  EXPECT_EQ(err, Errc::timed_out);
  EXPECT_GT(t.server_ch->stats().filtered_drops, 0u);
}

TEST(Channel, FilterDelaySlowsButDelivers) {
  Pair t;
  t.establish();
  Nanos delivered_at = 0;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&&) { delivered_at = t.cluster.engine().now(); });
  t.server.set_filter([](Channel&, const WireHeader& hdr) {
    Context::FilterDecision d;
    if ((hdr.flags & (kFlagAckOnly | kFlagNop)) == 0) {
      d.action = Context::FilterAction::delay;
      d.delay = millis(2);
    }
    return d;
  });
  const Nanos sent_at = t.cluster.engine().now();
  t.client_ch->send_msg(Buffer::make(32));
  t.run(millis(10));
  EXPECT_GT(delivered_at, sent_at + millis(2));
}

TEST(Channel, ZeroCopySendUsesRegisteredBlock) {
  Pair t;
  t.establish();
  MemBlock block = t.client.reg_mem(128 * 1024);
  ASSERT_TRUE(block.valid());
  std::uint8_t* p = t.client.mem_ptr(block);
  for (int i = 0; i < 128 * 1024; ++i) p[i] = static_cast<std::uint8_t>(i);
  Buffer received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received = std::move(m.payload); });
  t.client_ch->send_msg(block, 128 * 1024);
  t.run(millis(10));
  ASSERT_EQ(received.size(), 128u * 1024);
  EXPECT_EQ(received.data()[12345], static_cast<std::uint8_t>(12345));
}

TEST(Channel, ConnectToClosedPortFails) {
  Pair t;
  Errc err = Errc::ok;
  t.client.connect(1, 9999, [&](Result<Channel*> r) { err = r.error(); });
  t.run(millis(20));
  EXPECT_EQ(err, Errc::connection_refused);
}

TEST(Channel, SetFlagTunesOnlineParametersOnly) {
  Pair t;
  EXPECT_EQ(t.client.set_flag("keepalive_intv_ms", 3), Errc::ok);
  EXPECT_EQ(t.client.config().keepalive_intv, millis(3));
  EXPECT_EQ(t.client.set_flag("use_srq", 1), Errc::invalid_argument);
  EXPECT_EQ(t.client.set_flag("no_such_flag", 1), Errc::not_found);
  auto v = t.client.get_flag("small_msg_size");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 4096);
}

// MemCache has one shrink policy: the Context's periodic scan. A burst of
// rendezvous sends grows the data caches past one MR; once the burst has
// freed, the first scan gives every fully free MR back. With the scan off
// the grown capacity stays registered.
TEST(MemCacheShrink, PeriodicScanReturnsABurstToOneMr) {
  static constexpr std::uint64_t kMr = 256 * 1024;
  const auto burst = [](Nanos shrink_period) {
    Config cfg;
    cfg.memcache_mr_bytes = kMr;
    cfg.memcache_shrink_period = shrink_period;
    Pair t(cfg);
    t.establish();
    int got = 0;
    t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(t.client_ch->send_msg(Buffer::make(64 * 1024)), Errc::ok);
    }
    t.run(millis(2));
    EXPECT_EQ(got, 16);
    for (Context* ctx : {&t.client, &t.server}) {
      EXPECT_EQ(ctx->data_cache().stats().in_use_bytes, 0u);
      EXPECT_GT(ctx->data_cache().stats().occupied_bytes, kMr);
    }
    t.run(cfg.memcache_shrink_period + cfg.deadlock_scan_period);
    return std::pair{t.client.data_cache().stats().occupied_bytes,
                     t.server.data_cache().stats().occupied_bytes};
  };
  EXPECT_EQ(burst(millis(50)), std::pair(kMr, kMr));
  const auto [client, server] = burst(0);
  EXPECT_GT(client, kMr);
  EXPECT_GT(server, kMr);
}

// Locks the whole Table III surface: every key, its default, its unit and
// the Config member behind it, as written out by hand here.
TEST(ConfigSurface, EveryKeyDefaultUnitAndOnlineSplit) {
  struct Online {
    const char* key;
    std::int64_t def;
    std::int64_t v;  // a non-default value
    std::function<bool(const Config&)> moved;  // the member holds v
  };
  const std::vector<Online> online = {
      {"keepalive_intv_ms", 10, 7,
       [](const Config& c) { return c.keepalive_intv == millis(7); }},
      {"keepalive_timeout_ms", 40, 33,
       [](const Config& c) { return c.keepalive_timeout == millis(33); }},
      {"slow_threshold_us", 100, 77,
       [](const Config& c) { return c.slow_threshold == micros(77); }},
      {"polling_warn_cycle_us", 1000, 250,
       [](const Config& c) { return c.polling_warn_cycle == micros(250); }},
      {"trace_sample_mask", 0, 15,
       [](const Config& c) { return c.trace_sample_mask == 15u; }},
      {"reqrsp_mode", 0, 1, [](const Config& c) { return c.reqrsp_mode; }},
      {"flowctl", 1, 0, [](const Config& c) { return !c.flowctl; }},
      {"frag_size", 65536, 8192,
       [](const Config& c) { return c.frag_size == 8192u; }},
      {"max_outstanding_wrs", 16, 5,
       [](const Config& c) { return c.max_outstanding_wrs == 5u; }},
      {"recovery_max_attempts", 4, 9,
       [](const Config& c) { return c.recovery_max_attempts == 9u; }},
      {"recovery_backoff_us", 500, 123,
       [](const Config& c) { return c.recovery_backoff == micros(123); }},
      {"fallback_auto", 1, 0, [](const Config& c) { return !c.fallback_auto; }},
      {"tx_queue_max_msgs", 0, 12,
       [](const Config& c) { return c.tx_queue_max_msgs == 12u; }},
      {"tx_queue_max_bytes", 0, 5000000000,
       [](const Config& c) { return c.tx_queue_max_bytes == 5000000000u; }},
      {"ctx_tx_max_bytes", 0, 6000000000,
       [](const Config& c) { return c.ctx_tx_max_bytes == 6000000000u; }},
      {"mem_soft_pct", 0, 60,
       [](const Config& c) { return c.mem_soft_pct == 60u; }},
      {"mem_hard_pct", 0, 90,
       [](const Config& c) { return c.mem_hard_pct == 90u; }},
      {"health_adaptive", 0, 1,
       [](const Config& c) { return c.health_adaptive; }},
      {"health_breaker", 1, 0,
       [](const Config& c) { return !c.health_breaker; }},
      {"health_halfopen_probes", 1, 2,
       [](const Config& c) { return c.health_halfopen_probes == 2u; }},
      {"e2e_crc", 1, 0, [](const Config& c) { return !c.e2e_crc; }},
      {"integrity_retry_max", 3, 1,
       [](const Config& c) { return c.integrity_retry_max == 1u; }},
      {"lifecycle_drain", 0, 1,
       [](const Config& c) { return c.lifecycle_drain; }},
      {"lifecycle_drain_timeout_ms", 500, 80,
       [](const Config& c) { return c.lifecycle_drain_timeout == millis(80); }},
      {"lifecycle_retry_after_ms", 200, 90,
       [](const Config& c) { return c.lifecycle_retry_after == millis(90); }},
      {"recorder_enabled", 1, 0,
       [](const Config& c) { return !c.recorder_enabled; }},
      {"recorder_sample_mask", 63, 7,
       [](const Config& c) { return c.recorder_sample_mask == 7u; }},
      {"inline_max", 256, 128,
       [](const Config& c) { return c.inline_max == 128u; }},
  };
  const std::map<std::string, std::int64_t> offline = {
      {"use_srq", 0},           {"cq_size", 8192},
      {"srq_size", 4096},       {"fork_safe", 0},
      {"ibqp_alloc_type", 1},   {"small_msg_size", 4096},
      {"window_depth", 64},     {"memcache_max_mrs", 4096},
      {"memcache_ctrl_reserve", 65536}, {"proto_version_min", 1},
      {"proto_version_max", 2}, {"proto_features", 7},
  };
  ASSERT_EQ(online.size(), 28u);

  Config cfg;
  ConfigRegistry reg(cfg);
  std::map<std::string, std::int64_t> defaults = offline;
  for (const Online& o : online) defaults[o.key] = o.def;
  EXPECT_EQ(reg.snapshot(), defaults);

  for (const Online& o : online) {
    SCOPED_TRACE(o.key);
    Config c;
    ConfigRegistry r(c);
    EXPECT_FALSE(o.moved(c));
    ASSERT_EQ(r.set_flag(o.key, o.v), Errc::ok);
    auto got = r.get_flag(o.key);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), o.v);
    EXPECT_TRUE(o.moved(c));
  }
  for (const auto& [key, def] : offline) {
    SCOPED_TRACE(key);
    EXPECT_EQ(reg.set_flag(key, def + 1), Errc::invalid_argument);
    auto got = reg.get_flag(key);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), def);
  }
  EXPECT_EQ(reg.set_flag("no_such_flag", 1), Errc::not_found);
  EXPECT_EQ(reg.get_flag("no_such_flag").error(), Errc::not_found);
  EXPECT_EQ(reg.snapshot(), defaults);
}

TEST(Channel, TracedMessageCarriesTimestamps) {
  Config cfg;
  cfg.reqrsp_mode = true;
  Pair t(cfg);
  t.establish();
  t.client.set_clock_skew(micros(500));  // client clock runs ahead
  t.server.set_peer_clock_offset(micros(500));

  TraceReport report;
  t.server_ch->set_on_msg([&](Channel&, Msg&& m) {
    EXPECT_TRUE(m.traced);
    report = t.server.trace_request(m);
  });
  t.client_ch->send_msg(Buffer::make(64));
  t.run(millis(5));
  ASSERT_TRUE(report.traced);
  // Corrected one-way latency is positive and in the microsecond range.
  EXPECT_GT(report.network_latency, micros(1));
  EXPECT_LT(report.network_latency, micros(50));
}

TEST(Channel, ManyMessagesBothDirectionsNoLossNoLeak) {
  Pair t;
  t.establish();
  int c2s = 0, s2c = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++c2s; });
  t.client_ch->set_on_msg([&](Channel&, Msg&&) { ++s2c; });
  for (int i = 0; i < 300; ++i) {
    t.client_ch->send_msg(Buffer::make(static_cast<std::size_t>(i % 9000)));
    t.server_ch->send_msg(Buffer::make(static_cast<std::size_t>(i % 7000)));
  }
  t.run(millis(100));
  EXPECT_EQ(c2s, 300);
  EXPECT_EQ(s2c, 300);
  // All tx blocks were returned to the caches.
  EXPECT_EQ(t.client_ch->inflight_msgs(), 0u);
  EXPECT_EQ(t.server_ch->inflight_msgs(), 0u);
  EXPECT_EQ(t.client.data_cache().stats().guard_violations, 0u);
}

// ---------------------------------------------------------------------------
// Doorbell batching & inline sends (§V). The hot path chains same-tick WRs
// behind one doorbell and carries small eager payloads in the WQE itself;
// these pin the inline_max boundary, the zero-byte edge, the chain-vs-WR-cap
// interaction and the retransmit of an inline-sent message.

TEST(ChannelBatch, InlineBoundaryPayloads) {
  Pair t;
  t.establish();
  const std::uint32_t inline_max = t.client.config().inline_max;  // 256
  std::vector<Buffer> received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received.push_back(std::move(m.payload)); });

  const std::vector<std::uint32_t> sizes = {inline_max - 1, inline_max,
                                            inline_max + 1};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    Buffer b = Buffer::make(sizes[i]);
    fill_pattern(b, 100 + i);
    ASSERT_EQ(t.client_ch->send_msg(std::move(b)), Errc::ok);
  }
  t.run(millis(5));

  ASSERT_EQ(received.size(), 3u);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ASSERT_EQ(received[i].size(), sizes[i]);
    EXPECT_TRUE(check_pattern(received[i], 100 + i));
  }
  // At and below inline_max the payload rode the WQE (no staging copy);
  // one byte over fell back to the copy-out path.
  EXPECT_EQ(t.client_ch->stats().inline_sends, 2u);
  EXPECT_EQ(t.client_ch->stats().eager_copies_avoided, 2u);
  EXPECT_EQ(t.cluster.rnic(0).stats().inline_wrs, 2u);
}

TEST(ChannelBatch, ZeroByteInlineSendDelivers) {
  Pair t;
  t.establish();
  std::size_t deliveries = 0, bytes = 1;
  t.server_ch->set_on_msg([&](Channel&, Msg&& m) {
    ++deliveries;
    bytes = m.payload.size();
  });
  ASSERT_EQ(t.client_ch->send_msg(Buffer::make(0)), Errc::ok);
  t.run(millis(5));
  EXPECT_EQ(deliveries, 1u);
  EXPECT_EQ(bytes, 0u);
  EXPECT_EQ(t.client_ch->stats().inline_sends, 1u);
}

TEST(ChannelFlowControl, BurstWiderThanCreditCapDeliversEverything) {
  // A same-tick burst wider than the outstanding-WR credit window: the
  // creditable prefix posts, the rest waits in the deferred queue and
  // drains as completions return credits — nothing is lost.
  Config cfg;
  cfg.max_outstanding_wrs = 4;
  Pair t(cfg);
  t.establish();
  int delivered = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++delivered; });
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(t.client_ch->send_msg(Buffer::make(64)), Errc::ok);
  }
  t.run(millis(20));
  EXPECT_EQ(delivered, 30);
  EXPECT_GT(t.client_ch->stats().flowctl_queued, 0u);  // the cap bit
  EXPECT_EQ(t.client.outstanding_wrs(), 0u);
  EXPECT_EQ(t.client.deferred_wr_count(), 0u);
}

TEST(ChannelBatch, InlineSentMessageRetransmitsAfterQpKill) {
  // An inline-sent message keeps no wire block to replay from — the window
  // entry holds the payload copy. Kill the QP before anything is acked and
  // the recovery retransmit must ride the inline path again, delivering
  // exactly once.
  Config cfg;
  cfg.ack_every = 1000;  // acks only via the NOP deadlock path: stay unacked
  Pair t(cfg);
  t.establish();
  analysis::Filter filter(t.server, /*seed=*/31);
  std::vector<Buffer> received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received.push_back(std::move(m.payload)); });

  for (int i = 0; i < 5; ++i) {
    Buffer b = Buffer::make(128);
    fill_pattern(b, 200 + i);
    ASSERT_EQ(t.client_ch->send_msg(std::move(b)), Errc::ok);
  }
  // Kill before the first packet lands: the resume handshake then finds
  // nothing acked and every entry must replay.
  filter.kill_qp_after(t.server_ch->id(), micros(1));
  t.run(millis(80));

  ASSERT_EQ(received.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(received[i].size(), 128u);
    EXPECT_TRUE(check_pattern(received[i], 200 + i));
  }
  EXPECT_GE(t.server_ch->stats().recoveries_started, 1u);
  // The replays went inline too: more inline sends than messages.
  EXPECT_GT(t.client_ch->stats().inline_sends, 5u);
}

// ---------------------------------------------------------------------------
// Fragmentation boundaries (§V-C). With frag_size = 64 KB, the pull loop's
// fragment count flips exactly at the 64 KB edge; these pin the off-by-one
// behaviour on both sides of it and the content integrity across the seam.

TEST(ChannelFrag, ExactlyOneFragAtFragSize) {
  Pair t;
  t.establish();
  const std::uint32_t frag = t.client.config().frag_size;  // 64 KB
  Buffer received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received = std::move(m.payload); });

  Buffer b = Buffer::make(frag);
  fill_pattern(b, 7);
  t.client_ch->send_msg(std::move(b));
  t.run(millis(5));

  ASSERT_EQ(received.size(), frag);
  EXPECT_TRUE(check_pattern(received, 7));
  EXPECT_EQ(t.server_ch->stats().reads_issued, 1u);  // len == frag: one read
}

TEST(ChannelFrag, OneByteEitherSideOfTheFragBoundary) {
  Pair t;
  t.establish();
  const std::uint32_t frag = t.client.config().frag_size;
  std::vector<Buffer> received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received.push_back(std::move(m.payload)); });

  Buffer under = Buffer::make(frag - 1);
  Buffer over = Buffer::make(frag + 1);
  fill_pattern(under, 11);
  fill_pattern(over, 13);
  t.client_ch->send_msg(std::move(under));
  t.client_ch->send_msg(std::move(over));
  t.run(millis(10));

  ASSERT_EQ(received.size(), 2u);
  ASSERT_EQ(received[0].size(), frag - 1);
  ASSERT_EQ(received[1].size(), frag + 1);
  EXPECT_TRUE(check_pattern(received[0], 11));
  EXPECT_TRUE(check_pattern(received[1], 13));
  // frag-1 pulls in one read; frag+1 needs a second, one-byte read.
  EXPECT_EQ(t.server_ch->stats().reads_issued, 3u);
}

TEST(ChannelFrag, ManyFragmentsRideTheWrFlowControlCap) {
  // Tiny fragments force a fragment count an order of magnitude above the
  // outstanding-WR cap, so most reads go through the deferred queue.
  Config cfg;
  cfg.frag_size = 1024;
  Pair t(cfg);
  t.establish();
  const std::uint32_t len = 200 * 1024;  // 200 fragments vs cap of 16
  Buffer received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received = std::move(m.payload); });

  Buffer b = Buffer::make(len);
  fill_pattern(b, 17);
  t.client_ch->send_msg(std::move(b));
  t.run(millis(50));

  ASSERT_EQ(received.size(), len);
  EXPECT_TRUE(check_pattern(received, 17));
  EXPECT_EQ(t.server_ch->stats().reads_issued, 200u);
  EXPECT_EQ(t.server.outstanding_wrs(), 0u);
  EXPECT_EQ(t.server.deferred_wr_count(), 0u);
}

TEST(ChannelFrag, QpKillBetweenFragmentsStillDeliversExactlyOnce) {
  // Kill the receiver's QP while the fragmented pull is mid-flight: the
  // channel recovers, the sender replays the rendezvous descriptor from
  // its window, and the message arrives once, intact.
  Config cfg;
  cfg.frag_size = 4 * 1024;
  Pair t(cfg);
  t.establish();
  analysis::Filter filter(t.server, /*seed=*/29);

  const std::uint32_t len = 1024 * 1024;  // 256 fragments
  std::vector<Buffer> received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received.push_back(std::move(m.payload)); });

  Buffer b = Buffer::make(len);
  fill_pattern(b, 19);
  t.client_ch->send_msg(std::move(b));
  // The descriptor post pays the modeled CRC pass over 1 MB (~65 us)
  // before it hits the wire, so aim the kill well after that, between
  // fragments of the running pull.
  filter.kill_qp_after(t.server_ch->id(), micros(150));
  t.run(millis(80));

  ASSERT_EQ(received.size(), 1u);
  ASSERT_EQ(received[0].size(), len);
  EXPECT_TRUE(check_pattern(received[0], 19));
  EXPECT_GE(t.server_ch->stats().recoveries_started, 1u);
  // The interrupted pull was restarted, so more reads than the minimum.
  EXPECT_GT(t.server_ch->stats().reads_issued, 256u);
  EXPECT_EQ(t.server.data_cache().stats().guard_violations, 0u);
  EXPECT_EQ(t.client.data_cache().stats().guard_violations, 0u);
}

}  // namespace
}  // namespace xrdma::core
