// Engine and timer behaviour: ordering, cancellation,
// determinism — everything the upper layers assume about time.
#include <gtest/gtest.h>

#include <algorithm>
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
