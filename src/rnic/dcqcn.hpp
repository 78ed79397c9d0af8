// DCQCN rate controller, one instance per RC flow (QP).
//
// Implements the sender-side algorithm from Zhu et al., SIGCOMM'15 [11]:
// multiplicative decrease on CNP arrival with an EWMA'd alpha, then
// fast-recovery / additive-increase / hyper-increase stages driven by both
// a timer and a byte counter. The paper's built-in flow control (§V-C)
// exists precisely because this reactive loop responds too slowly under
// heavy incast — the Fig. 10 bench measures both together.
#pragma once

#include <algorithm>
#include <cstdint>

#include "rnic/config.hpp"

namespace xrdma::rnic {

class Dcqcn {
 public:
  Dcqcn(const DcqcnConfig& cfg, double line_rate_gbps)
      : cfg_(cfg), line_rate_(line_rate_gbps), rc_(line_rate_gbps),
        rt_(line_rate_gbps) {}

  double current_rate_gbps() const {
    return cfg_.enabled ? rc_ : line_rate_;
  }

  /// Time the next byte may leave, given `bytes` are about to be sent at
  /// `now`. Implements token pacing at the current rate.
  Nanos pace(Nanos now, std::uint32_t bytes) {
    if (!cfg_.enabled) return now;
    const Nanos start = std::max(now, next_send_);
    next_send_ = start + transmission_time(bytes, current_rate_gbps());
    bytes_since_increase_ += bytes;
    return start;
  }

  /// Earliest time a packet may start; callers wait until this before
  /// asking pace().
  Nanos ready_at() const { return cfg_.enabled ? next_send_ : 0; }

  void on_cnp(Nanos now) {
    if (!cfg_.enabled) return;
    cnp_since_alpha_update_ = true;
    last_event_ = now;
    if (now - last_cut_ < cfg_.rate_cut_min_interval) return;
    apply_decays();
    last_cut_ = now;
    rt_ = rc_;
    rc_ = std::max(cfg_.min_rate_gbps, rc_ * (1.0 - alpha_ / 2.0));
    alpha_ = (1.0 - cfg_.g) * alpha_ + cfg_.g;
    stage_timer_ = 0;
    stage_bytes_ = 0;
    bytes_since_increase_ = 0;
    last_increase_ = now;
  }

  /// Drive the alpha-decay and rate-increase state machines. The NIC calls
  /// this opportunistically (on sends and on a housekeeping timer); exact
  /// tick alignment is not required because elapsed time is measured.
  /// Costs O(1) per call once the flow is back at line rate, however long
  /// it sat idle: the result is the same as stepping every elapsed tick.
  void advance(Nanos now) {
    if (!cfg_.enabled) return;
    // Alpha decay: one decay per elapsed alpha_timer without a CNP (a CNP
    // since the last update spends the first tick). Counted here, applied
    // in order when alpha is next read.
    const Nanos alpha_gap = now - last_alpha_update_;
    if (alpha_gap >= cfg_.alpha_timer) {
      const Nanos ticks = alpha_gap / cfg_.alpha_timer;
      last_alpha_update_ += ticks * cfg_.alpha_timer;
      pending_decays_ += static_cast<std::uint64_t>(ticks) -
                         (cnp_since_alpha_update_ ? 1 : 0);
      cnp_since_alpha_update_ = false;
    }
    // Increase stages from the timer. With both rates at line rate
    // apply_increase is an exact fixed point, so the remaining ticks only
    // move the clock and the stage counter.
    while (now - last_increase_ >= cfg_.increase_timer) {
      if (rc_ == line_rate_ && rt_ == line_rate_) {
        const Nanos ticks = (now - last_increase_) / cfg_.increase_timer;
        last_increase_ += ticks * cfg_.increase_timer;
        stage_timer_ += static_cast<int>(ticks);
        break;
      }
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

  double alpha() const {
    apply_decays();
    return alpha_;
  }
  bool at_line_rate() const { return rc_ >= line_rate_ * 0.999; }

 private:
  // The same run of alpha *= (1 - g) the per-tick loop performs. Once a
  // multiplication leaves alpha unchanged (it underflowed to a fixed
  // point) every later one would too, so a long idle run stops early.
  void apply_decays() const {
    const double keep = 1.0 - cfg_.g;
    for (; pending_decays_ > 0; --pending_decays_) {
      const double next = alpha_ * keep;
      if (next == alpha_) break;
      alpha_ = next;
    }
    pending_decays_ = 0;
  }

  void apply_increase() {
    // Per the DCQCN spec: hyper increase needs BOTH counters past the
    // fast-recovery threshold (min), additive increase needs EITHER (max).
    // Using min for additive would strand a slow flow at its minimum rate:
    // it never moves enough bytes to advance the byte counter.
    const int stage_min = std::min(stage_timer_, stage_bytes_);
    const int stage_max = std::max(stage_timer_, stage_bytes_);
    if (stage_min > cfg_.fast_recovery_stages) {
      rt_ = std::min(line_rate_, rt_ + cfg_.rhai_gbps);
    } else if (stage_max > cfg_.fast_recovery_stages) {
      rt_ = std::min(line_rate_, rt_ + cfg_.rai_gbps);
    }
    // All phases converge the current rate toward the target.
    rc_ = std::min((rc_ + rt_) / 2.0, line_rate_);
  }

  DcqcnConfig cfg_;
  double line_rate_;
  double rc_;          // current rate (Gbps)
  double rt_;          // target rate
  mutable double alpha_ = 1.0;  // excludes pending_decays_
  mutable std::uint64_t pending_decays_ = 0;
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

}  // namespace xrdma::rnic
