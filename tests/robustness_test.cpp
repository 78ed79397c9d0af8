// Cross-layer robustness: RC recovery from real packet loss (tiny switch
// buffers force lossless-class drops), full-stack determinism, polling
// modes, the event-fd path, and slow-poll detection.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>

#include "analysis/monitor.hpp"
#include "core/context.hpp"
#include "testbed/cluster.hpp"

namespace xrdma {
namespace {

using core::Channel;
using core::Config;
using core::Context;
using core::Msg;

struct Pair {
  testbed::Cluster cluster;
  Context server;
  Context client;
  Channel* client_ch = nullptr;
  Channel* server_ch = nullptr;

  explicit Pair(Config cfg = {}, testbed::ClusterConfig ccfg = {})
      : cluster(ccfg),
        server(cluster.rnic(1), cluster.cm(), cfg),
        client(cluster.rnic(0), cluster.cm(), cfg) {
    server.listen(7000, [this](Channel& ch) { server_ch = &ch; });
    client.connect(1, 7000, [this](Result<Channel*> r) {
      ASSERT_TRUE(r.ok());
      client_ch = r.value();
    });
    cluster.engine().run_for(millis(20));
  }

  void start_polling() {
    server.config().poll_mode = core::PollMode::busy;
    client.config().poll_mode = core::PollMode::busy;
    server.start_polling_loop();
    client.start_polling_loop();
  }
};

TEST(Robustness, GoBackNRecoversFromRealDrops) {
  // Two senders collide into a switch buffer so small that lossless
  // packets drop; the RC layer must NAK/retransmit and the middleware must
  // deliver everything exactly once, in order, on both channels.
  testbed::ClusterConfig ccfg;
  ccfg.fabric = net::ClosConfig::rack(3);
  ccfg.fabric.buffer_bytes = 16 * 1024;  // ~4 packets
  ccfg.fabric.pfc_xoff = 1u << 30;       // effectively disable PFC
  testbed::Cluster cluster(ccfg);
  Context server(cluster.rnic(0), cluster.cm());
  Context c1(cluster.rnic(1), cluster.cm());
  Context c2(cluster.rnic(2), cluster.cm());
  std::map<std::uint64_t, std::vector<std::size_t>> got;  // by channel id
  server.listen(7000, [&](Channel& ch) {
    ch.set_on_msg([&](Channel& c, Msg&& m) {
      got[c.id()].push_back(m.payload.size());
    });
  });
  Channel *ch1 = nullptr, *ch2 = nullptr;
  c1.connect(0, 7000, [&](Result<Channel*> r) { ch1 = r.value(); });
  c2.connect(0, 7000, [&](Result<Channel*> r) { ch2 = r.value(); });
  cluster.engine().run_for(millis(20));
  for (Context* ctx : {&server, &c1, &c2}) {
    ctx->config().poll_mode = core::PollMode::busy;
    ctx->start_polling_loop();
  }

  std::vector<std::size_t> plan;
  for (int i = 0; i < 40; ++i) {
    plan.push_back(static_cast<std::size_t>(1000 + i * 917) % 60000);
    ch1->send_msg(Buffer::make(plan.back()));
    ch2->send_msg(Buffer::make(plan.back()));
  }
  cluster.engine().run_for(millis(500));
  ASSERT_EQ(got.size(), 2u);
  for (auto& [id, sizes] : got) EXPECT_EQ(sizes, plan);
  EXPECT_GT(cluster.fabric().stats().drops, 0u);  // loss really happened
  EXPECT_GT(cluster.rnic(1).stats().retransmitted_packets +
                cluster.rnic(2).stats().retransmitted_packets +
                cluster.rnic(0).stats().retransmitted_packets,
            0u);
}

TEST(Robustness, ContentIntegrityThroughLossAndRetransmit) {
  testbed::ClusterConfig ccfg;
  ccfg.fabric = net::ClosConfig::pair();
  ccfg.fabric.buffer_bytes = 32 * 1024;
  ccfg.fabric.pfc_xoff = 1u << 30;
  Pair t({}, ccfg);
  t.start_polling();
  Buffer received;
  t.server_ch->set_on_msg(
      [&](Channel&, Msg&& m) { received = std::move(m.payload); });
  Buffer big = Buffer::make(400 * 1024);
  fill_pattern(big, 1234);
  t.client_ch->send_msg(std::move(big));
  t.cluster.engine().run_for(millis(400));
  ASSERT_EQ(received.size(), 400u * 1024);
  EXPECT_TRUE(check_pattern(received, 1234));
}

TEST(Robustness, FullStackDeterminism) {
  auto run_once = [] {
    Config cfg;
    cfg.reqrsp_mode = true;
    Pair t(cfg);
    t.start_polling();
    std::uint64_t checksum = 0;
    t.server_ch->set_on_msg([&](Channel& ch, Msg&& m) {
      checksum = checksum * 1099511628211ULL ^
                 static_cast<std::uint64_t>(t.cluster.engine().now());
      if (m.is_rpc_req) ch.reply(m.rpc_id, Buffer::make(128));
    });
    for (int i = 0; i < 64; ++i) {
      if (i % 3 == 0) {
        t.client_ch->call(Buffer::make(static_cast<std::size_t>(i * 211)),
                          [](Result<Msg>) {});
      } else {
        t.client_ch->send_msg(
            Buffer::make(static_cast<std::size_t>(i * 997) % 20000));
      }
    }
    t.cluster.engine().run_for(millis(50));
    checksum ^= t.cluster.rnic(0).stats().tx_packets * 31;
    checksum ^= t.cluster.rnic(1).stats().rx_bytes * 7;
    return checksum;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Robustness, HybridPollerParksWhenIdleAndWakes) {
  Config cfg;
  cfg.poll_mode = core::PollMode::hybrid;
  cfg.hybrid_idle_spins = 20;
  Pair t(cfg);
  t.server.start_polling_loop();
  t.client.start_polling_loop();
  int got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });

  // Long idle: both pollers must park instead of spinning.
  t.cluster.engine().run_for(millis(20));
  EXPECT_GT(t.server.stats().parks, 0u);
  const std::uint64_t polls_after_idle = t.server.stats().polls;
  t.cluster.engine().run_for(millis(20));
  // Parked: almost no polls accumulate while idle (keepalive wakes allowed).
  EXPECT_LT(t.server.stats().polls - polls_after_idle, 500u);

  // A message wakes the parked poller.
  t.client_ch->send_msg(Buffer::from_string("wake"));
  t.cluster.engine().run_for(millis(5));
  EXPECT_EQ(got, 1);
  EXPECT_GT(t.server.stats().wakeups, 0u);
}

TEST(Robustness, EventModeDeliversViaFd) {
  Config cfg;
  cfg.poll_mode = core::PollMode::event;
  Pair t(cfg);
  t.server.start_polling_loop();
  t.client.start_polling_loop();
  int got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });
  for (int i = 0; i < 10; ++i) t.client_ch->send_msg(Buffer::make(64));
  t.cluster.engine().run_for(millis(20));
  EXPECT_EQ(got, 10);
  // Event mode: poll count is in the order of messages, not time/interval.
  EXPECT_LT(t.server.stats().polls, 2000u);
  EXPECT_GE(t.server.get_event_fd(), 0);
}

TEST(Robustness, ManualProcessEventDrainsCompletions) {
  Pair t;  // no polling loops at all
  int got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });
  t.client_ch->send_msg(Buffer::from_string("x"));
  // Let the fabric deliver, then drain by hand — the Table I event API.
  t.cluster.engine().run_for(millis(1));
  t.client.polling();
  t.cluster.engine().run_for(millis(1));
  EXPECT_EQ(got, 0);
  const int n = t.server.process_event();
  EXPECT_GT(n, 0);
  EXPECT_EQ(got, 1);
}

TEST(Robustness, SlowPollWatchdogFiresAndIsMonitorVisible) {
  Config cfg;
  cfg.polling_warn_cycle = micros(200);
  Pair t(cfg);
  analysis::Monitor monitor_probe(t.cluster.engine(), millis(1));  // log sink
  // Manual, deliberately slow polling.
  t.client.polling();
  t.cluster.engine().run_for(millis(2));  // 2 ms gap >> 200 us threshold
  t.client.polling();
  EXPECT_GE(t.client.stats().slow_polls, 1u);
  EXPECT_GE(t.client.stats().worst_poll_gap, millis(2));
  EXPECT_GE(monitor_probe.count_logs("slow poll"), 1u);
}

TEST(Robustness, ChannelsSurviveLongIdleWithKeepalive) {
  Config cfg;
  cfg.keepalive_intv = millis(3);
  Pair t(cfg);
  t.start_polling();
  t.cluster.engine().run_for(millis(300));  // 100 keepalive periods
  EXPECT_EQ(t.client_ch->state(), Channel::State::established);
  EXPECT_EQ(t.server_ch->state(), Channel::State::established);
  EXPECT_GT(t.client_ch->stats().keepalive_probes, 50u);
  // And traffic still flows afterwards.
  int got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });
  t.client_ch->send_msg(Buffer::make(100));
  t.cluster.engine().run_for(millis(5));
  EXPECT_EQ(got, 1);
}

TEST(Robustness, BidirectionalRpcUnderLoad) {
  Pair t;
  t.start_polling();
  int server_ok = 0, client_ok = 0;
  t.server_ch->set_on_msg([&](Channel& ch, Msg&& m) {
    if (m.is_rpc_req) ch.reply(m.rpc_id, Buffer::make(m.payload.size()));
  });
  t.client_ch->set_on_msg([&](Channel& ch, Msg&& m) {
    if (m.is_rpc_req) ch.reply(m.rpc_id, Buffer::make(64));
  });
  for (int i = 0; i < 100; ++i) {
    t.client_ch->call(Buffer::make(static_cast<std::size_t>(i * 331) % 30000),
                      [&](Result<Msg> r) {
                        if (r.ok()) ++client_ok;
                      });
    t.server_ch->call(Buffer::make(128), [&](Result<Msg> r) {
      if (r.ok()) ++server_ok;
    });
  }
  t.cluster.engine().run_for(millis(100));
  EXPECT_EQ(client_ok, 100);
  EXPECT_EQ(server_ok, 100);
}

// --- Quiet poll trains: an idle busy/hybrid loop is accounted, not fired,
// and every counter and firing order matches the per-tick loop. ----------

Config busy_config() {
  Config cfg;
  cfg.poll_mode = core::PollMode::busy;
  return cfg;
}

TEST(QuietPolling, IdleBusyLoopCountsEveryTickWithoutFiringThem) {
  testbed::Cluster cluster;
  Context ctx(cluster.rnic(0), cluster.cm(), busy_config());
  sim::Engine& eng = cluster.engine();
  const std::uint64_t fired0 = eng.events_fired();
  const std::uint64_t logical0 = eng.events_processed();
  ctx.start_polling_loop();
  eng.run_until(millis(10));  // ticks at 0, 100 ns, ..., 10 ms
  EXPECT_EQ(ctx.stats().polls, 100001u);
  EXPECT_EQ(ctx.stats().empty_polls, 100001u);
  EXPECT_EQ(ctx.stats().worst_poll_gap, nanos(100));
  EXPECT_EQ(ctx.stats().watchdog_trips, 0u);
  EXPECT_GE(eng.events_processed() - logical0, 100001u);
  // The first tick and the 1 ms housekeeping scans.
  EXPECT_LE(eng.events_fired() - fired0, 12u);
}

TEST(QuietPolling, HybridParksAtTheSameTickAsThePerTickLoop) {
  // hybrid_idle_spins = 1000: the 1000th empty spin (at 99.9 us) parks.
  Config cfg;
  cfg.poll_mode = core::PollMode::hybrid;
  testbed::Cluster cluster;
  Context ctx(cluster.rnic(0), cluster.cm(), cfg);
  sim::Engine& eng = cluster.engine();
  ctx.start_polling_loop();
  eng.run_until(nanos(99900) - 1);
  EXPECT_EQ(ctx.stats().parks, 0u);
  EXPECT_EQ(ctx.stats().polls, 999u);
  eng.run_until(nanos(99900));
  EXPECT_EQ(ctx.stats().parks, 1u);
  EXPECT_EQ(ctx.stats().polls, 1000u);
  eng.run_until(millis(5));
  EXPECT_EQ(ctx.stats().parks, 1u);
  EXPECT_EQ(ctx.stats().polls, 1000u);
}

TEST(QuietPolling, HybridParkWakeCyclesMatchThePerTickLoop) {
  // Messages every 300 us against 20-spin hybrid pollers: each one wakes
  // the parked server, which spins 2 us and parks again. The numbers are
  // what the per-tick loop produced.
  Config cfg;
  cfg.poll_mode = core::PollMode::hybrid;
  cfg.hybrid_idle_spins = 20;
  Pair t(cfg);
  t.server.start_polling_loop();
  t.client.start_polling_loop();
  int got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });
  for (int i = 0; i < 10; ++i) {
    t.client_ch->send_msg(Buffer::make(64));
    t.cluster.engine().run_for(micros(300));
  }
  EXPECT_EQ(got, 10);
  EXPECT_EQ(t.server.stats().parks, 13u);
  EXPECT_EQ(t.server.stats().wakeups, 12u);
  EXPECT_EQ(t.server.stats().polls, 273u);
  EXPECT_EQ(t.client.stats().parks, 13u);
  EXPECT_EQ(t.client.stats().polls, 273u);
  EXPECT_EQ(t.cluster.engine().events_processed(), 793u);
}

TEST(QuietPolling, LoweringTheWarnCycleOnlineTripsTheNextTick) {
  Config cfg = busy_config();
  cfg.busy_poll_interval = micros(5);
  testbed::Cluster cluster;
  Context ctx(cluster.rnic(0), cluster.cm(), cfg);
  sim::Engine& eng = cluster.engine();
  ctx.start_polling_loop();
  eng.run_until(millis(1));
  EXPECT_EQ(ctx.stats().watchdog_trips, 0u);
  ASSERT_EQ(ctx.set_flag("polling_warn_cycle_us", 2), Errc::ok);
  eng.run_until(millis(1) + micros(5) - 1);
  EXPECT_EQ(ctx.stats().watchdog_trips, 0u);
  eng.run_until(millis(1) + micros(5));  // the next tick
  EXPECT_EQ(ctx.stats().watchdog_trips, 1u);
  eng.run_until(millis(1) + micros(50));
  EXPECT_EQ(ctx.stats().watchdog_trips, 10u);
  // Raised again from inside an event: trips stop, the loop goes quiet.
  eng.schedule_at(millis(1) + micros(52),
                  [&] { ctx.set_flag("polling_warn_cycle_us", 1000); });
  eng.run_until(millis(1) + micros(55));
  EXPECT_EQ(ctx.stats().watchdog_trips, 10u);
  const std::uint64_t fired = eng.events_fired();
  eng.run_until(millis(2));
  EXPECT_EQ(ctx.stats().watchdog_trips, 10u);
  EXPECT_EQ(ctx.stats().polls, 401u);
  EXPECT_EQ(ctx.stats().worst_poll_gap, micros(5));
  EXPECT_LE(eng.events_fired() - fired, 3u);
}

TEST(QuietPolling, StopWhileQuietThenRestart) {
  testbed::Cluster cluster;
  Context ctx(cluster.rnic(0), cluster.cm(), busy_config());
  sim::Engine& eng = cluster.engine();
  ctx.start_polling_loop();
  eng.run_until(millis(1));
  EXPECT_EQ(ctx.stats().polls, 10001u);
  ctx.stop_polling_loop();
  const std::uint64_t logical = eng.events_processed();
  eng.run_until(millis(2));
  EXPECT_EQ(ctx.stats().polls, 10001u);
  EXPECT_FALSE(ctx.polling_loop_running());
  // The pending tick fires once and ends the loop; the rest is the scan.
  EXPECT_EQ(eng.events_processed() - logical, 2u);
  ctx.start_polling_loop();
  eng.run_until(millis(3));
  EXPECT_EQ(ctx.stats().polls, 20002u);
  // Stop and restart before the pending tick fires: the restart reuses
  // that tick, so one chain polls 10 000 times, 3 ms + 100 ns to 4 ms.
  ctx.stop_polling_loop();
  ctx.start_polling_loop();
  eng.run_until(millis(4));
  EXPECT_EQ(ctx.stats().polls, 30002u);
}

// The poll-gap watchdog measures gaps inside a running loop. A loop that
// was stopped on purpose, or parked on an empty CQ, is not a slow poll: no
// trip, no warning, no flight-recorder dump.

TEST(PollWatchdog, StopThenRestartIsNotASlowPoll) {
  testbed::Cluster cluster;
  Context ctx(cluster.rnic(0), cluster.cm(), busy_config());
  analysis::Monitor monitor_probe(cluster.engine(), millis(1));  // log sink
  int dumps = 0;
  ctx.set_dump_hook([&](Context&, const std::string&) { ++dumps; });
  sim::Engine& eng = cluster.engine();
  ctx.start_polling_loop();
  eng.run_until(millis(1));
  ctx.stop_polling_loop();
  eng.run_until(millis(5));
  ctx.start_polling_loop();
  eng.run_until(millis(6));
  EXPECT_EQ(ctx.stats().polls, 20002u);
  EXPECT_EQ(ctx.stats().slow_polls, 0u);
  EXPECT_EQ(ctx.stats().watchdog_trips, 0u);
  EXPECT_EQ(ctx.stats().worst_poll_gap, nanos(100));
  EXPECT_EQ(monitor_probe.count_logs("slow poll"), 0u);
  EXPECT_EQ(dumps, 0);
}

TEST(PollWatchdog, HybridParkAndWakeIsNotASlowPoll) {
  Config cfg;
  cfg.poll_mode = core::PollMode::hybrid;
  Pair t(cfg);
  analysis::Monitor monitor_probe(t.cluster.engine(), millis(1));  // log sink
  int dumps = 0;
  const auto count = [&](Context&, const std::string&) { ++dumps; };
  t.server.set_dump_hook(count);
  t.client.set_dump_hook(count);
  t.server.start_polling_loop();
  t.client.start_polling_loop();
  int got = 0;
  t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++got; });
  // Both loops park after 1000 empty spins (100 us); the message wakes
  // them 5 ms later.
  t.cluster.engine().run_for(millis(5));
  t.client_ch->send_msg(Buffer::make(64));
  t.cluster.engine().run_for(millis(1));
  EXPECT_EQ(got, 1);
  for (Context* ctx : {&t.server, &t.client}) {
    EXPECT_GE(ctx->stats().wakeups, 1u);
    EXPECT_EQ(ctx->stats().slow_polls, 0u);
    EXPECT_EQ(ctx->stats().watchdog_trips, 0u);
    EXPECT_LE(ctx->stats().worst_poll_gap, cfg.polling_warn_cycle);
  }
  EXPECT_EQ(monitor_probe.count_logs("slow poll"), 0u);
  EXPECT_EQ(dumps, 0);
}

TEST(QuietPolling, RestartWhileParkedKeepsTheParkedWaiter) {
  // The server parks, then restarts its loop: the restart keeps the parked
  // waiter instead of starting a second chain, so the next CQE wakes it and
  // every count matches a server that never stopped (1000 spins to the
  // first park; the wake poll, the poll after it and 1000 spins to the
  // second).
  struct Outcome {
    int got = 0;
    std::uint64_t wakeups = 0, parks = 0, polls = 0, events = 0;
    bool operator==(const Outcome&) const = default;
  };
  const auto run = [](bool restart) {
    Config cfg;
    cfg.poll_mode = core::PollMode::hybrid;
    Pair t(cfg);
    t.server.start_polling_loop();
    t.client.start_polling_loop();
    Outcome out;
    t.server_ch->set_on_msg([&](Channel&, Msg&&) { ++out.got; });
    t.cluster.engine().run_for(micros(200));
    EXPECT_EQ(t.server.stats().parks, 1u);
    if (restart) {
      t.server.stop_polling_loop();
      t.server.start_polling_loop();
    }
    t.cluster.engine().run_for(micros(10));
    t.client_ch->send_msg(Buffer::make(64));
    t.cluster.engine().run_for(micros(500));
    out.wakeups = t.server.stats().wakeups;
    out.parks = t.server.stats().parks;
    out.polls = t.server.stats().polls;
    out.events = t.cluster.engine().events_processed();
    return out;
  };
  const Outcome restarted = run(true);
  EXPECT_EQ(restarted.got, 1);
  EXPECT_EQ(restarted.wakeups, 1u);
  EXPECT_EQ(restarted.parks, 2u);
  EXPECT_EQ(restarted.polls, 2002u);
  EXPECT_EQ(restarted.events, 4090u);
  EXPECT_TRUE(restarted == run(false));
}

TEST(QuietPolling, CqeOnATickBoundaryIsSeenOnTheSameTick) {
  // Sweep the server loop's phase across one 100 ns interval, so one phase
  // puts a tick exactly on the nanosecond the message's CQE lands. The
  // quiet loop must deliver at the same instant, with the same poll counts
  // and logical event count, as a per-tick loop written out here.
  struct Outcome {
    Nanos delivered = -1;
    std::uint64_t polls = 0;
    std::uint64_t empty = 0;
    Nanos worst_gap = 0;
    std::uint64_t events = 0;
    bool operator==(const Outcome&) const = default;
  };
  const auto run = [](Nanos phase, bool quiet) {
    Pair t(busy_config());
    sim::Engine& eng = t.cluster.engine();
    Outcome out;
    t.server_ch->set_on_msg(
        [&](Channel&, Msg&&) { out.delivered = eng.now(); });
    std::function<void()> tick = [&] {
      t.server.polling();
      eng.schedule_after(t.server.config().busy_poll_interval, tick);
    };
    eng.run_until(eng.now() + phase);
    if (quiet) {
      t.server.start_polling_loop();
    } else {
      eng.schedule_after(0, tick);
    }
    eng.run_for(micros(100));
    t.client_ch->send_msg(Buffer::make(64));
    eng.run_for(micros(100));
    out.polls = t.server.stats().polls;
    out.empty = t.server.stats().empty_polls;
    out.worst_gap = t.server.stats().worst_poll_gap;
    out.events = eng.events_processed();
    return out;
  };
  std::set<Nanos> delivered;
  for (Nanos phase = 0; phase < 100; ++phase) {
    SCOPED_TRACE(::testing::Message() << "phase " << phase);
    const Outcome ref = run(phase, false);
    const Outcome got = run(phase, true);
    ASSERT_GE(ref.delivered, 0);
    EXPECT_EQ(got, ref);
    delivered.insert(ref.delivered);
  }
  // One delivery instant per phase: the sweep covered every offset between
  // the CQE and the tick grid, including zero.
  EXPECT_EQ(delivered.size(), 100u);
}

}  // namespace
}  // namespace xrdma
