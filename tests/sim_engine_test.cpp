// Engine and timer behaviour: ordering, cancellation,
// determinism — everything the upper layers assume about time.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "sim/timer.hpp"

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
