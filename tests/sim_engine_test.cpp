// Engine and timer behaviour: ordering, cancellation,
// determinism — everything the upper layers assume about time.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/timer.hpp"
#include "test_seed.hpp"

namespace xrdma::sim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(micros(30), [&] { order.push_back(3); });
  eng.schedule_at(micros(10), [&] { order.push_back(1); });
  eng.schedule_at(micros(20), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), micros(30));
}

TEST(Engine, EqualTimestampsFireInScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    eng.schedule_at(micros(5), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ScheduleAfterIsRelativeToNow) {
  Engine eng;
  Nanos fired_at = -1;
  eng.schedule_after(micros(10), [&] {
    eng.schedule_after(micros(5), [&] { fired_at = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(fired_at, micros(15));
}

TEST(Engine, CancelPreventsFiring) {
  Engine eng;
  bool fired = false;
  auto id = eng.schedule_after(micros(10), [&] { fired = true; });
  EXPECT_TRUE(eng.cancel(id));
  EXPECT_FALSE(eng.cancel(id));  // second cancel is a no-op
  eng.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(Engine, CancelAfterFireReturnsFalse) {
  Engine eng;
  auto id = eng.schedule_after(micros(1), [] {});
  eng.run();
  EXPECT_FALSE(eng.cancel(id));
}

TEST(Engine, RunUntilAdvancesTimeEvenWithoutEvents) {
  Engine eng;
  eng.run_until(millis(3));
  EXPECT_EQ(eng.now(), millis(3));
}

TEST(Engine, RunUntilLeavesLaterEventsPending) {
  Engine eng;
  bool early = false, late = false;
  eng.schedule_at(micros(10), [&] { early = true; });
  eng.schedule_at(micros(100), [&] { late = true; });
  eng.run_until(micros(50));
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(eng.now(), micros(50));
  EXPECT_EQ(eng.pending(), 1u);
  eng.run();
  EXPECT_TRUE(late);
}

TEST(Engine, StopHaltsRun) {
  Engine eng;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    eng.schedule_at(micros(i), [&] {
      if (++count == 3) eng.stop();
    });
  }
  eng.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(eng.pending(), 7u);
}

TEST(Engine, NeverSchedulesIntoThePast) {
  Engine eng;
  eng.schedule_at(micros(10), [&] {
    // Asking for an earlier time clamps to now.
    eng.schedule_at(micros(1), [&] { EXPECT_EQ(eng.now(), micros(10)); });
  });
  eng.run();
}

TEST(Engine, StaleIdDoesNotTouchSlotReuser) {
  // The first event's slot is free once it fires, so the next schedule
  // reuses it. The old handle must read as not armed and must not cancel
  // (or move) the new occupant.
  Engine eng;
  int fired = 0;
  Engine::EventId stale = eng.schedule_after(micros(1), [&] { ++fired; });
  eng.run();
  EXPECT_FALSE(stale.armed());
  Engine::EventId fresh = eng.schedule_after(micros(1), [&] { fired += 10; });
  EXPECT_TRUE(fresh.armed());
  EXPECT_FALSE(stale.armed());
  EXPECT_FALSE(eng.reschedule_at(stale, micros(100)));
  EXPECT_FALSE(eng.cancel(stale));
  EXPECT_FALSE(stale.armed());
  EXPECT_TRUE(fresh.armed());
  EXPECT_EQ(eng.pending(), 1u);
  eng.run();
  EXPECT_EQ(fired, 11);
  EXPECT_EQ(eng.now(), micros(2));
  // Same for a slot freed by cancel rather than by firing.
  Engine::EventId gone = eng.schedule_after(micros(1), [&] { fired += 100; });
  Engine::EventId copy = gone;
  EXPECT_TRUE(eng.cancel(gone));
  Engine::EventId next = eng.schedule_after(micros(1), [&] { fired += 1000; });
  EXPECT_FALSE(eng.cancel(copy));
  EXPECT_TRUE(next.armed());
  eng.run();
  EXPECT_EQ(fired, 1011);
}

TEST(Engine, RescheduleOrdersLikeCancelPlusSchedule) {
  // Moving an event onto a timestamp that already holds events puts it
  // after them, exactly as cancelling and scheduling it anew would.
  auto run = [](bool in_place) {
    Engine eng;
    std::vector<int> order;
    Engine::EventId moved =
        eng.schedule_at(micros(10), [&] { order.push_back(0); });
    eng.schedule_at(micros(20), [&] { order.push_back(1); });
    eng.schedule_at(micros(20), [&] { order.push_back(2); });
    eng.schedule_at(micros(30), [&] { order.push_back(3); });
    if (in_place) {
      EXPECT_TRUE(eng.reschedule_at(moved, micros(20)));
      EXPECT_TRUE(moved.armed());
    } else {
      EXPECT_TRUE(eng.cancel(moved));
      eng.schedule_at(micros(20), [&] { order.push_back(0); });
    }
    eng.schedule_at(micros(20), [&] { order.push_back(4); });
    eng.run();
    return order;
  };
  EXPECT_EQ(run(true), (std::vector<int>{1, 2, 0, 4, 3}));
  EXPECT_EQ(run(false), run(true));
}

TEST(Engine, RescheduleMovesEarlierAndClampsToNow) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(micros(5), [&] { order.push_back(1); });
  Engine::EventId late =
      eng.schedule_at(micros(50), [&] { order.push_back(0); });
  EXPECT_TRUE(eng.reschedule_at(late, micros(1)));
  eng.run_until(micros(2));
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_FALSE(late.armed());
  EXPECT_FALSE(eng.reschedule_at(late, micros(3)));  // already fired
  Engine::EventId past =
      eng.schedule_at(micros(40), [&] { order.push_back(2); });
  EXPECT_TRUE(eng.reschedule_at(past, 0));  // into the past: clamps to now
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
  EXPECT_EQ(eng.now(), micros(5));
}

TEST(Engine, PendingTracksCancelAndRearm) {
  Engine eng;
  std::vector<Engine::EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(eng.schedule_at(micros(10 + i), [] {}));
  }
  EXPECT_EQ(eng.pending(), 8u);
  EXPECT_TRUE(eng.cancel(ids[3]));
  EXPECT_FALSE(eng.cancel(ids[3]));
  EXPECT_EQ(eng.pending(), 7u);
  EXPECT_TRUE(eng.reschedule_at(ids[5], micros(100)));
  EXPECT_TRUE(eng.reschedule_at(ids[5], micros(1)));
  EXPECT_EQ(eng.pending(), 7u);
  ASSERT_TRUE(eng.step());  // ids[5], moved to 1 µs
  EXPECT_EQ(eng.now(), micros(1));
  EXPECT_FALSE(ids[5].armed());
  EXPECT_EQ(eng.pending(), 6u);
  EXPECT_TRUE(eng.cancel(ids[7]));
  EXPECT_EQ(eng.pending(), 5u);
  eng.run();
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_EQ(eng.events_processed(), 6u);
}

TEST(Engine, DifferentialAgainstOrderedMapModel) {
  // 100k random schedule / cancel / re-arm / step operations, checked
  // against a reference model: a std::map keyed (at, seq), where seq
  // counts schedules and re-arms. Timestamps sit on a coarse grid so ties
  // are common. Every fired event, armed() probe and pending() count must
  // match the model.
  XRDMA_CASE_SEED(seed);
  std::mt19937_64 rng(seed);
  Engine eng;
  std::map<std::pair<Nanos, std::uint64_t>, int> model;
  struct Handle {
    Engine::EventId id;
    bool live = false;
    std::pair<Nanos, std::uint64_t> key;
  };
  std::vector<Handle> handles;
  std::uint64_t seq = 0;
  Nanos now = 0;
  std::vector<int> fired;
  auto when = [&] {
    const Nanos at = now + static_cast<Nanos>(rng() % 64) * 10 - 50;
    return std::max(at, now);
  };
  auto model_step = [&] {
    const auto it = model.begin();
    now = it->first.first;
    const int tag = it->second;
    handles[static_cast<std::size_t>(tag)].live = false;
    model.erase(it);
    return tag;
  };
  for (int op = 0; op < 100000; ++op) {
    const unsigned pick = static_cast<unsigned>(rng() % 10);
    if (pick < 4 || handles.empty()) {
      const int tag = static_cast<int>(handles.size());
      const Nanos at = when();
      Handle h;
      h.id = eng.schedule_at(at, [&fired, tag] { fired.push_back(tag); });
      h.live = true;
      h.key = {at, seq++};
      model[h.key] = tag;
      handles.push_back(h);
    } else if (pick < 6) {
      Handle& h = handles[rng() % handles.size()];
      ASSERT_EQ(h.id.armed(), h.live);
      ASSERT_EQ(eng.cancel(h.id), h.live);
      if (h.live) model.erase(h.key);
      h.live = false;
    } else if (pick < 8) {
      Handle& h = handles[rng() % handles.size()];
      const Nanos at = when();
      ASSERT_EQ(eng.reschedule_at(h.id, at), h.live);
      if (h.live) {
        const int tag = model[h.key];
        model.erase(h.key);
        h.key = {at, seq++};
        model[h.key] = tag;
      }
    } else {
      ASSERT_EQ(eng.step(), !model.empty());
      if (!model.empty()) {
        const int tag = model_step();
        ASSERT_EQ(fired.back(), tag) << "op " << op;
        ASSERT_EQ(eng.now(), now);
      }
    }
    ASSERT_EQ(eng.pending(), model.size()) << "op " << op;
  }
  eng.run();
  std::vector<int> rest;
  while (!model.empty()) rest.push_back(model_step());
  ASSERT_GE(fired.size(), rest.size());
  EXPECT_TRUE(std::equal(rest.begin(), rest.end(), fired.end() -
                         static_cast<std::ptrdiff_t>(rest.size())));
  for (const Handle& h : handles) EXPECT_FALSE(h.id.armed());
}

TEST(Engine, DestroyedWithPendingEventsWhoseCapturesCancel) {
  // A capture whose destructor cancels another pending event (a channel
  // owning a timer, say) must find it already retired while the engine
  // tears down.
  struct CancelOnDestroy {
    Engine* eng;
    Engine::EventId* other;
    ~CancelOnDestroy() { EXPECT_FALSE(eng->cancel(*other)); }
  };
  Engine::EventId other;
  {
    Engine eng;
    other = eng.schedule_at(micros(20), [] {});
    auto guard = std::make_shared<CancelOnDestroy>(&eng, &other);
    eng.schedule_at(micros(10), [guard] {});
    guard.reset();
    EXPECT_TRUE(other.armed());
  }
}

// A periodic poller for the quiet-train tests. Each tick is a no-op unless
// the poller was poked (it then logs itself and may schedule a real event)
// or has idled `limit` ticks (it then parks, logs, and resumes later).
// With `quiet` set its no-op ticks run as an engine quiet train; without,
// every tick fires — the per-tick reference.
struct Poller : Engine::QuietOwner {
  using Log = std::vector<std::pair<int, Nanos>>;
  Engine& eng;
  bool quiet;
  int id;
  Nanos period;
  std::uint64_t limit;
  std::mt19937_64& rng;
  Log& log;
  bool poked = false;
  bool running = true;
  std::uint64_t idle = 0;
  std::uint64_t noops = 0;
  Engine::EventId quiet_tick;

  Poller(Engine& e, bool q, int i, Nanos p, std::uint64_t lim,
         std::mt19937_64& r, Log& l)
      : eng(e), quiet(q), id(i), period(p), limit(lim), rng(r), log(l) {}
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void tick() {
    if (!running) return;
    if (poked) {
      poked = false;
      idle = 0;
      log.emplace_back(id, eng.now());
      if (rng() % 2 == 0) {
        eng.schedule_after(static_cast<Nanos>(rng() % 4) * 10,
                           [this] { log.emplace_back(100 + id, eng.now()); });
      }
    } else if (++idle >= limit) {
      idle = 0;
      log.emplace_back(-id, eng.now());  // park; resume after a while
      eng.schedule_after(static_cast<Nanos>(rng() % 40) * 10,
                         [this] { tick(); });
      return;
    } else {
      ++noops;
    }
    next();
  }
  void next() {
    if (quiet && !quiet_tick.armed() && quiet_budget(period) > 0) {
      quiet_tick = eng.schedule_quiet(period, *this, [this] { tick(); });
    } else {
      eng.schedule_after(period, [this] { tick(); });
    }
  }
  void poke() {
    poked = true;
    if (quiet) eng.wake(quiet_tick);
  }
  std::uint64_t quiet_budget(Nanos p) const override {
    if (poked || !running || p != period) return 0;
    if (limit == Engine::kUnbounded) return Engine::kUnbounded;
    return limit > idle + 1 ? limit - idle - 1 : 0;
  }
  void account_quiet(std::uint64_t n, Nanos, Nanos) override {
    noops += n;
    idle += n;
  }
};

struct PollerRun {
  Poller::Log log;
  std::vector<std::uint64_t> noops;
  std::uint64_t logical = 0;
  std::uint64_t fired = 0;
};

// Random real events that poke, stop and restart pollers with different
// periods and phases on a 10 ns grid (so ticks coincide with each other and
// with events), driven by run_until slices with pokes between them.
PollerRun run_pollers(std::uint64_t seed, bool quiet) {
  std::mt19937_64 rng(seed);
  Engine eng;
  PollerRun out;
  std::vector<std::unique_ptr<Poller>> ps;
  const Nanos periods[] = {20, 20, 30, 40, 60, 60};
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t limit =
        i % 3 == 0 ? 5 + rng() % 20 : Engine::kUnbounded;
    ps.push_back(std::make_unique<Poller>(eng, quiet, i + 1, periods[i], limit,
                                          rng, out.log));
    Poller* p = ps.back().get();
    eng.schedule_at(static_cast<Nanos>(rng() % 6) * 10, [p] { p->tick(); });
  }
  std::function<void(int)> event = [&](int tag) {
    out.log.emplace_back(1000 + tag, eng.now());
    Poller& p = *ps[rng() % ps.size()];
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
        p.poke();
        break;
      case 3:
        p.running = false;
        break;
      case 4:
        if (!p.running) {
          p.running = true;  // a restart may race the old chain's last tick
          eng.schedule_after(0, [&p] { p.tick(); });
        }
        break;
      default:
        break;
    }
    for (std::uint64_t k = rng() % 3; k > 0; --k) {
      const int next = static_cast<int>(rng() % 1000);
      eng.schedule_after(static_cast<Nanos>(rng() % 30) * 10,
                         [&event, next] { event(next); });
    }
  };
  for (int i = 0; i < 40; ++i) {
    const int tag = static_cast<int>(rng() % 1000);
    eng.schedule_at(static_cast<Nanos>(rng() % 300) * 10,
                    [&event, tag] { event(tag); });
  }
  while (eng.now() < micros(40)) {
    eng.run_until(eng.now() + static_cast<Nanos>(rng() % 50) * 10);
    if (rng() % 4 == 0) ps[rng() % ps.size()]->poke();
    if (rng() % 16 == 0) {
      const int tag = static_cast<int>(rng() % 1000);
      eng.schedule_after(0, [&event, tag] { event(tag); });
    }
  }
  for (const auto& p : ps) out.noops.push_back(p->noops);
  out.logical = eng.events_processed();
  out.fired = eng.events_fired();
  return out;
}

TEST(QuietTrain, DifferentialAgainstPerTickLoop) {
  // Every real event, poked tick and park must fire in the same order at
  // the same time as when every tick fires, and every no-op tick must be
  // accounted: same per-poller counts, same logical event count.
  XRDMA_CASE_SEED(base);
  for (std::uint64_t k = 0; k < 30; ++k) {
    const std::uint64_t seed = base + k;
    SCOPED_TRACE(::testing::Message() << "run seed " << seed);
    const PollerRun ref = run_pollers(seed, false);
    const PollerRun got = run_pollers(seed, true);
    ASSERT_EQ(ref.log.size(), got.log.size());
    for (std::size_t i = 0; i < ref.log.size(); ++i) {
      ASSERT_EQ(ref.log[i], got.log[i]) << "entry " << i;
    }
    EXPECT_EQ(ref.noops, got.noops);
    EXPECT_EQ(ref.logical, got.logical);
    EXPECT_EQ(ref.fired, ref.logical);
    EXPECT_LT(got.fired, ref.fired);
  }
}

TEST(QuietTrain, RunReturnsWithOnlyUnboundedTrainsLeft) {
  Engine eng;
  std::mt19937_64 rng(1);
  Poller::Log log;
  Poller busy(eng, true, 1, 100, Engine::kUnbounded, rng, log);
  Poller hybrid(eng, true, 2, 100, 50, rng, log);
  hybrid.running = false;  // its last tick fires for real, then stops
  busy.next();
  hybrid.next();
  eng.schedule_at(micros(10), [] {});
  eng.run();  // a per-tick loop would spin here forever
  EXPECT_EQ(eng.now(), micros(10));
  // Ticks at 100 ns .. 9.9 us; the one at 10 us drew its seq after the
  // event's, so it is still pending.
  EXPECT_EQ(busy.noops, 99u);
  EXPECT_EQ(eng.events_fired(), 2u);
  EXPECT_EQ(eng.events_processed(), 101u);
  EXPECT_EQ(eng.pending(), 0u);
  // The train resumes under run_until and wakes like any event.
  eng.run_until(micros(20));
  EXPECT_EQ(busy.noops, 200u);  // through the tick at 20 us
  busy.poke();
  eng.run_until(micros(20) + 100);
  EXPECT_EQ(log, (Poller::Log{{1, micros(20) + 100}}));
}

TEST(QuietTrain, CancelUnregistersAndStepCatchesUp) {
  Engine eng;
  std::mt19937_64 rng(1);
  Poller::Log log;
  Poller p(eng, true, 1, 100, Engine::kUnbounded, rng, log);
  p.next();
  EXPECT_TRUE(p.quiet_tick.armed());
  eng.schedule_at(1000, [] {});
  ASSERT_TRUE(eng.step());  // ticks at 100..900, then the event
  EXPECT_EQ(p.noops, 9u);
  EXPECT_EQ(eng.events_processed(), 10u);
  EXPECT_TRUE(eng.cancel(p.quiet_tick));
  EXPECT_FALSE(eng.step());
  eng.run_until(micros(5));
  EXPECT_EQ(p.noops, 9u);
}

TEST(PeriodicTimer, FiresEveryPeriodUntilStopped) {
  Engine eng;
  int fires = 0;
  PeriodicTimer timer(eng, micros(10), [&] {
    if (++fires == 5) timer.stop();
  });
  timer.start();
  eng.run();
  EXPECT_EQ(fires, 5);
  EXPECT_EQ(eng.now(), micros(50));
}

TEST(PeriodicTimer, DestructionCancelsPending) {
  Engine eng;
  int fires = 0;
  {
    PeriodicTimer timer(eng, micros(10), [&] { ++fires; });
    timer.start();
  }
  eng.run();
  EXPECT_EQ(fires, 0);
}

TEST(DeadlineTimer, NotArmedInsideOwnCallback) {
  // Regression: fire() used to keep the event node alive while running the
  // callback, so armed() read true *inside the timer's own handler*. Any
  // handler that conditionally re-arms ("if (!armed()) arm_after(...)") —
  // the memory-retry and keepalive pattern — silently skipped the re-arm
  // and the timer went dead forever.
  Engine eng;
  int fires = 0;
  DeadlineTimer* self = nullptr;
  DeadlineTimer timer(eng, [&] {
    ++fires;
    EXPECT_FALSE(self->armed());
    if (fires < 3 && !self->armed()) self->arm_after(micros(10));
  });
  self = &timer;
  timer.arm_after(micros(10));
  eng.run();
  EXPECT_EQ(fires, 3);
}

TEST(DeadlineTimer, RearmPushesDeadlineBack) {
  Engine eng;
  Nanos fired_at = -1;
  DeadlineTimer timer(eng, [&] { fired_at = eng.now(); });
  timer.arm_after(micros(10));
  eng.schedule_at(micros(5), [&] { timer.arm_after(micros(10)); });
  eng.run();
  EXPECT_EQ(fired_at, micros(15));
}

TEST(Engine, DeterministicEventCount) {
  auto run_once = [] {
    Engine eng;
    std::uint64_t sum = 0;
    for (int i = 0; i < 100; ++i) {
      eng.schedule_at(micros(i % 7), [&eng, &sum, i] {
        sum += static_cast<std::uint64_t>(i) * eng.events_processed();
      });
    }
    eng.run();
    return sum;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace xrdma::sim
