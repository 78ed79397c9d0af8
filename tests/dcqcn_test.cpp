// DCQCN rate controller unit tests — including a regression for the
// recovery deadlock where a flow at minimum rate never advanced its byte
// counter and therefore never left fast recovery.
#include <gtest/gtest.h>

#include <bit>
#include <optional>

#include "common/rng.hpp"
#include "rnic/dcqcn.hpp"

namespace xrdma::rnic {
namespace {

DcqcnConfig test_config() {
  DcqcnConfig cfg;
  return cfg;
}

TEST(Dcqcn, StartsAtLineRate) {
  Dcqcn d(test_config(), 25.0);
  EXPECT_DOUBLE_EQ(d.current_rate_gbps(), 25.0);
  EXPECT_TRUE(d.at_line_rate());
}

TEST(Dcqcn, DisabledPassesThrough) {
  DcqcnConfig cfg;
  cfg.enabled = false;
  Dcqcn d(cfg, 25.0);
  d.on_cnp(micros(10));
  EXPECT_DOUBLE_EQ(d.current_rate_gbps(), 25.0);
  EXPECT_EQ(d.pace(micros(20), 100000), micros(20));  // no pacing delay
}

TEST(Dcqcn, CnpCutsRateMultiplicatively) {
  Dcqcn d(test_config(), 25.0);
  d.on_cnp(micros(100));
  // alpha starts at 1: cut by alpha/2 = 50%.
  EXPECT_NEAR(d.current_rate_gbps(), 12.5, 0.01);
  EXPECT_FALSE(d.at_line_rate());
}

TEST(Dcqcn, CutsAreRateLimited) {
  Dcqcn d(test_config(), 25.0);
  d.on_cnp(micros(100));
  const double after_first = d.current_rate_gbps();
  d.on_cnp(micros(110));  // within the 50 us min interval: ignored
  EXPECT_DOUBLE_EQ(d.current_rate_gbps(), after_first);
  d.on_cnp(micros(160));  // past the interval: cuts again
  EXPECT_LT(d.current_rate_gbps(), after_first);
}

TEST(Dcqcn, NeverBelowMinRate) {
  DcqcnConfig cfg;
  Dcqcn d(cfg, 25.0);
  for (int i = 0; i < 100; ++i) {
    d.on_cnp(micros(100) + i * micros(60));
  }
  EXPECT_GE(d.current_rate_gbps(), cfg.min_rate_gbps);
}

TEST(Dcqcn, PaceSpacesPacketsAtCurrentRate) {
  Dcqcn d(test_config(), 25.0);
  d.on_cnp(micros(100));  // 12.5 Gbps
  const Nanos t1 = d.pace(micros(200), 12500);  // 12500B at 12.5G = 8 us
  EXPECT_EQ(t1, micros(200));
  const Nanos t2 = d.pace(micros(200), 12500);
  EXPECT_EQ(t2 - t1, micros(8));
}

TEST(Dcqcn, TimerDrivenRecoveryReachesLineRateWithoutTraffic) {
  // Regression: a throttled flow that sends (almost) nothing must still
  // recover through the timer-stage additive increase — with the broken
  // min() stage logic it stayed at the floor forever.
  DcqcnConfig cfg;
  Dcqcn d(cfg, 25.0);
  for (int i = 0; i < 20; ++i) d.on_cnp(micros(100) + i * micros(60));
  EXPECT_LT(d.current_rate_gbps(), 1.0);
  // Let the increase timer run for 100 ms of quiet.
  d.advance(millis(150));
  EXPECT_GT(d.current_rate_gbps(), 20.0);
}

TEST(Dcqcn, AlphaDecaysWithoutCnps) {
  DcqcnConfig cfg;
  Dcqcn d(cfg, 25.0);
  d.on_cnp(micros(100));
  const double a1 = d.alpha();
  EXPECT_GT(a1, 0.9);  // (1-g)*1 + g with g=1/16
  d.advance(millis(10));  // many alpha periods without CNPs
  EXPECT_LT(d.alpha(), 0.2);
}

TEST(Dcqcn, SecondCutShallowerAfterAlphaDecay) {
  DcqcnConfig cfg;
  Dcqcn d(cfg, 25.0);
  d.on_cnp(micros(100));
  const double r1 = d.current_rate_gbps();  // 50% cut (alpha=1)
  d.advance(millis(20));                    // alpha decays, rate recovers
  const double before_second = d.current_rate_gbps();
  d.on_cnp(millis(21));
  const double cut_fraction = 1.0 - d.current_rate_gbps() / before_second;
  EXPECT_LT(cut_fraction, 0.25);  // shallower than the first 50% cut
  EXPECT_NEAR(r1, 12.5, 0.1);
}

TEST(Dcqcn, ByteCounterAdvancesStagesUnderTraffic) {
  DcqcnConfig cfg;
  cfg.increase_bytes = 1 << 20;  // 1 MB stages for the test
  Dcqcn d(cfg, 25.0);
  d.on_cnp(micros(100));
  const double throttled = d.current_rate_gbps();
  // Push 32 MB through: byte-counter stages plus timer stages.
  Nanos t = micros(200);
  for (int i = 0; i < 8192; ++i) {
    t = d.pace(t, 4096) + transmission_time(4096, d.current_rate_gbps());
    d.advance(t);
  }
  EXPECT_GT(d.current_rate_gbps(), throttled * 1.5);
}

// The per-tick controller as it was before Dcqcn::advance became O(1): one
// loop iteration per elapsed alpha and increase tick, alpha decayed
// eagerly. Kept verbatim as the reference the fast path must match.
class PerTickDcqcn {
 public:
  PerTickDcqcn(const DcqcnConfig& cfg, double line_rate_gbps)
      : cfg_(cfg), line_rate_(line_rate_gbps), rc_(line_rate_gbps),
        rt_(line_rate_gbps) {}

  double current_rate_gbps() const {
    return cfg_.enabled ? rc_ : line_rate_;
  }

  Nanos pace(Nanos now, std::uint32_t bytes) {
    if (!cfg_.enabled) return now;
    const Nanos start = std::max(now, next_send_);
    next_send_ = start + transmission_time(bytes, current_rate_gbps());
    bytes_since_increase_ += bytes;
    return start;
  }

  Nanos ready_at() const { return cfg_.enabled ? next_send_ : 0; }

  void on_cnp(Nanos now) {
    if (!cfg_.enabled) return;
    cnp_since_alpha_update_ = true;
    last_event_ = now;
    if (now - last_cut_ < cfg_.rate_cut_min_interval) return;
    last_cut_ = now;
    rt_ = rc_;
    rc_ = std::max(cfg_.min_rate_gbps, rc_ * (1.0 - alpha_ / 2.0));
    alpha_ = (1.0 - cfg_.g) * alpha_ + cfg_.g;
    stage_timer_ = 0;
    stage_bytes_ = 0;
    bytes_since_increase_ = 0;
    last_increase_ = now;
  }

  void advance(Nanos now) {
    if (!cfg_.enabled) return;
    // Alpha decay: one decay per elapsed alpha_timer without a CNP.
    while (now - last_alpha_update_ >= cfg_.alpha_timer) {
      last_alpha_update_ += cfg_.alpha_timer;
      if (!cnp_since_alpha_update_) alpha_ *= (1.0 - cfg_.g);
      cnp_since_alpha_update_ = false;
    }
    // Increase stages from the timer.
    while (now - last_increase_ >= cfg_.increase_timer) {
      last_increase_ += cfg_.increase_timer;
      ++stage_timer_;
      apply_increase();
    }
    // Increase stages from the byte counter.
    while (bytes_since_increase_ >= cfg_.increase_bytes) {
      bytes_since_increase_ -= cfg_.increase_bytes;
      ++stage_bytes_;
      apply_increase();
    }
  }

  double alpha() const { return alpha_; }

 private:
  void apply_increase() {
    const int stage_min = std::min(stage_timer_, stage_bytes_);
    const int stage_max = std::max(stage_timer_, stage_bytes_);
    if (stage_min > cfg_.fast_recovery_stages) {
      rt_ = std::min(line_rate_, rt_ + cfg_.rhai_gbps);
    } else if (stage_max > cfg_.fast_recovery_stages) {
      rt_ = std::min(line_rate_, rt_ + cfg_.rai_gbps);
    }
    rc_ = std::min((rc_ + rt_) / 2.0, line_rate_);
  }

  DcqcnConfig cfg_;
  double line_rate_;
  double rc_;
  double rt_;
  double alpha_ = 1.0;
  Nanos next_send_ = 0;
  Nanos last_cut_ = -kNanosPerSec;
  Nanos last_alpha_update_ = 0;
  Nanos last_increase_ = 0;
  Nanos last_event_ = 0;
  bool cnp_since_alpha_update_ = false;
  int stage_timer_ = 0;
  int stage_bytes_ = 0;
  std::uint64_t bytes_since_increase_ = 0;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Seeded random schedules over both controllers: idle gaps from
// nanoseconds to seconds (also straight after a QP-reset rebuild, whose
// clocks restart at 0 while sim time does not), CNP bursts inside one
// tick, and paced sends large enough to drive the byte-counter stages.
// Odd seeds read alpha only now and then, so decays pile up unread across
// several advances before a read applies them.
TEST(Dcqcn, OneStepAdvanceMatchesPerTickLoop) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    DcqcnConfig cfg;
    if (seed % 4 == 0) cfg.increase_bytes = 1u << 20;
    std::optional<Dcqcn> fast(std::in_place, cfg, 25.0);
    std::optional<PerTickDcqcn> slow(std::in_place, cfg, 25.0);
    Nanos now = micros(1);
    for (int step = 0; step < 1500; ++step) {
      const std::uint64_t pick = rng.next_below(100);
      if (pick < 40) {
        fast->advance(now);
        slow->advance(now);
      } else if (pick < 55) {
        const int burst = static_cast<int>(rng.uniform(1, 4));
        for (int i = 0; i < burst; ++i) {
          now += rng.uniform(0, micros(20));
          fast->on_cnp(now);
          slow->on_cnp(now);
        }
      } else if (pick < 85) {
        const auto bytes = static_cast<std::uint32_t>(
            rng.chance(0.1) ? rng.uniform(1, 4u << 20) : rng.uniform(1, 65536));
        ASSERT_EQ(fast->pace(now, bytes), slow->pace(now, bytes));
        fast->advance(now);
        slow->advance(now);
      } else if (pick < 87) {
        // QP reset: the controller is rebuilt, sim time keeps going.
        fast.emplace(cfg, 25.0);
        slow.emplace(cfg, 25.0);
        now += rng.uniform(0, kNanosPerSec / 2);
        fast->advance(now);
        slow->advance(now);
      }
      // Time moves on: mostly sub-tick, sometimes many ticks, rarely
      // seconds.
      const std::uint64_t gap = rng.next_below(100);
      if (gap < 70) {
        now += rng.uniform(0, micros(60));
      } else if (gap < 99) {
        now += rng.uniform(0, millis(5));
      } else {
        now += rng.uniform(0, kNanosPerSec);
      }
      ASSERT_EQ(bits(fast->current_rate_gbps()),
                bits(slow->current_rate_gbps()))
          << "step " << step;
      ASSERT_EQ(fast->ready_at(), slow->ready_at()) << "step " << step;
      if (seed % 2 == 0 || rng.chance(0.05)) {
        ASSERT_EQ(bits(fast->alpha()), bits(slow->alpha())) << "step " << step;
      }
    }
    EXPECT_EQ(bits(fast->alpha()), bits(slow->alpha()));
  }
}

}  // namespace
}  // namespace xrdma::rnic
