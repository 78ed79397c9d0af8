#include "core/health.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace xrdma::core {

namespace {

// Upper-tail probability of the standard normal: P(Z > z).
double normal_tail(double z) { return 0.5 * std::erfc(z / std::sqrt(2.0)); }

// Inverse of normal_tail for p in (0, 0.5]: the z with P(Z > z) = p.
// Bisection keeps this dependency-free and bit-deterministic.
double normal_tail_inverse(double p) {
  if (p >= 0.5) return 0.0;
  double lo = 0.0, hi = 40.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (normal_tail(mid) > p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

constexpr double kPhiMax = 40.0;

}  // namespace

void HealthMonitor::rec_log(analysis::RecEvent ev, std::uint16_t code,
                            std::uint32_t peer, std::uint64_t a,
                            std::uint64_t b) {
  if (recorder_) recorder_->log(engine_.now(), ev, code, peer, a, b);
}

void HealthMonitor::grade_change(net::NodeId peer, PeerRecord& rec,
                                 PeerState next) {
  if (next == rec.state) return;
  rec_log(analysis::RecEvent::health_grade, static_cast<std::uint16_t>(next),
          static_cast<std::uint32_t>(peer),
          static_cast<std::uint64_t>(rec.state));
  rec.state = next;
}

void HealthMonitor::register_channel(net::NodeId peer) {
  PeerRecord& rec = record(peer);
  ++rec.channels;
  // A fresh establishment is proof the drain's restart completed: the peer
  // is back and gradeable again.
  if (rec.draining) {
    rec.draining = false;
    rec.drain_until = 0;
  }
}

void HealthMonitor::unregister_channel(net::NodeId peer,
                                       std::uint64_t channel_id) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  PeerRecord& rec = it->second;
  if (rec.channels > 0) --rec.channels;
  auto p = std::find(rec.probers.begin(), rec.probers.end(), channel_id);
  if (p != rec.probers.end()) rec.probers.erase(p);
}

void HealthMonitor::push_interval(PeerRecord& rec, double interval) {
  if (rec.interval_count == kIntervalWindow) {
    const double old = rec.intervals[rec.interval_next];
    rec.interval_sum -= old;
    rec.interval_sumsq -= old * old;
  } else {
    ++rec.interval_count;
  }
  rec.intervals[rec.interval_next] = interval;
  rec.interval_next = (rec.interval_next + 1) % kIntervalWindow;
  rec.interval_sum += interval;
  rec.interval_sumsq += interval * interval;
}

void HealthMonitor::note_proof_of_life(net::NodeId peer) {
  const Nanos now = engine_.now();
  PeerRecord& rec = record(peer);
  if (rec.last_proof > 0) {
    const Nanos delta = now - rec.last_proof;
    // Sample only probe-scale cadence: data bursts would drag the mean
    // toward zero, and the silence of a recovery window is not a live-peer
    // inter-arrival either.
    if (delta >= cfg_.keepalive_intv / 4 &&
        delta <= cfg_.keepalive_intv + cfg_.keepalive_timeout) {
      push_interval(rec, static_cast<double>(delta));
    }
  }
  rec.last_proof = now;
}

void HealthMonitor::note_probe_rtt(net::NodeId peer, Nanos rtt) {
  if (rtt < 0) return;
  PeerRecord& rec = record(peer);
  rec.rtt.record(rtt);
  const double r = static_cast<double>(rtt);
  if (rec.rtt_samples == 0) {
    rec.rtt_short = rec.rtt_long = r;
  } else {
    rec.rtt_short += (r - rec.rtt_short) / 4.0;
    rec.rtt_long += (r - rec.rtt_long) / 64.0;
  }
  ++rec.rtt_samples;
}

void HealthMonitor::note_retransmit(net::NodeId peer) {
  ++record(peer).retx_in_scan;
}

void HealthMonitor::note_crc_failure(net::NodeId peer) {
  ++record(peer).crc_in_scan;
}

void HealthMonitor::note_fault(net::NodeId peer) {
  const Nanos now = engine_.now();
  PeerRecord& rec = record(peer);
  // Faults caused by a peer tearing itself down on purpose are not flaps:
  // escalating the hold-down would punish the announced restart.
  if (rec.draining && now < rec.drain_until) return;
  if (rec.last_restore > 0 && now - rec.last_restore <= kFlapWindow) {
    // Restore-then-fail inside the flap window: escalate the hold-down.
    ++rec.flaps;
    ++stats_.flaps;
    rec.last_flap = now;
    rec_log(analysis::RecEvent::flap, 0, static_cast<std::uint32_t>(peer),
            rec.flaps);
    if (rec.holddown_level < 24) {
      ++rec.holddown_level;
      ++stats_.holddown_escalations;
    }
    const Nanos hd = std::min(kHolddownBase << (rec.holddown_level - 1),
                              kHolddownMax);
    rec.holddown_until = now + std::max<Nanos>(hd, 0);
    rec_log(analysis::RecEvent::holddown,
            static_cast<std::uint16_t>(rec.holddown_level),
            static_cast<std::uint32_t>(peer),
            static_cast<std::uint64_t>(std::max<Nanos>(hd, 0)));
  }
}

void HealthMonitor::note_peer_dead(net::NodeId peer,
                                   std::uint64_t channel_id) {
  PeerRecord& rec = record(peer);
  if (rec.draining && engine_.now() < rec.drain_until) {
    // The peer told us it is leaving: its silence is the restart it
    // announced, not a death. No dead grade, no breaker, no dump trigger —
    // just the count, so triage can see the suppression happened.
    ++stats_.drain_suppressions;
    return;
  }
  ++stats_.dead_declarations;
  rec.dead = true;
  rec_log(analysis::RecEvent::peer_dead,
          static_cast<std::uint16_t>(channel_id),
          static_cast<std::uint32_t>(peer));
  grade_change(peer, rec, PeerState::dead);
  if (cfg_.health_breaker && !rec.breaker_open) {
    rec.breaker_open = true;
    ++stats_.breaker_opens;
    rec_log(analysis::RecEvent::breaker_open, 0,
            static_cast<std::uint32_t>(peer));
    // Probers are designated first-come at the next attempt; the channel
    // that declared death is typically first to schedule one.
    rec.probers.clear();
    rec.halfopen_inflight = 0;
  }
  if (on_dead_) on_dead_();
}

bool HealthMonitor::note_restored(net::NodeId peer, bool from_fallback) {
  const Nanos now = engine_.now();
  PeerRecord& rec = record(peer);
  const bool closed = rec.breaker_open;
  if (rec.breaker_open) {
    rec.breaker_open = false;
    ++stats_.breaker_closes;
    rec_log(analysis::RecEvent::breaker_close, 0,
            static_cast<std::uint32_t>(peer),
            static_cast<std::uint64_t>(from_fallback));
  }
  rec.dead = false;
  rec.draining = false;
  rec.drain_until = 0;
  grade_change(peer, rec, PeerState::healthy);
  rec.probers.clear();
  rec.halfopen_inflight = 0;
  rec.last_proof = now;
  if (from_fallback) rec.last_restore = now;
  return closed;
}

void HealthMonitor::note_peer_draining(net::NodeId peer, Nanos retry_after) {
  const Nanos now = engine_.now();
  PeerRecord& rec = record(peer);
  const Nanos hint =
      retry_after > 0 ? retry_after : cfg_.lifecycle_retry_after;
  // Twice the announced window: the hint is the peer's optimistic restart
  // estimate, and a late reconnect should not flip it dead mid-handshake.
  rec.draining = true;
  rec.drain_until = now + 2 * std::max<Nanos>(hint, millis(1));
  ++stats_.draining_marks;
  grade_change(peer, rec, PeerState::draining);
}

bool HealthMonitor::peer_draining(net::NodeId peer) const {
  const PeerRecord* rec = find(peer);
  return rec && rec->draining && engine_.now() < rec->drain_until;
}

Nanos HealthMonitor::drain_remaining(net::NodeId peer) const {
  const PeerRecord* rec = find(peer);
  if (!rec || !rec->draining) return 0;
  const Nanos now = engine_.now();
  return rec->drain_until > now ? rec->drain_until - now : 0;
}

bool HealthMonitor::may_attempt(net::NodeId peer,
                                std::uint64_t channel_id) const {
  const PeerRecord* rec = find(peer);
  if (!rec || !rec->breaker_open) return true;
  if (rec->halfopen_inflight >= cfg_.health_halfopen_probes) return false;
  const bool designated = std::find(rec->probers.begin(), rec->probers.end(),
                                    channel_id) != rec->probers.end();
  return designated || rec->probers.size() < cfg_.health_halfopen_probes;
}

void HealthMonitor::note_attempt(net::NodeId peer, std::uint64_t channel_id) {
  PeerRecord& rec = record(peer);
  if (!rec.breaker_open) {
    ++stats_.connects_allowed;
    return;
  }
  if (!may_attempt(peer, channel_id)) {
    // A channel issued a CM connect past a closed gate: oracle 12.
    ++stats_.breaker_violations;
    return;
  }
  if (std::find(rec.probers.begin(), rec.probers.end(), channel_id) ==
      rec.probers.end()) {
    rec.probers.push_back(channel_id);
  }
  ++rec.halfopen_inflight;
  ++stats_.connects_allowed;
}

void HealthMonitor::note_attempt_done(net::NodeId peer, std::uint64_t) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  if (it->second.halfopen_inflight > 0) --it->second.halfopen_inflight;
}

void HealthMonitor::note_denied(net::NodeId peer) {
  ++stats_.connects_denied;
  (void)peer;
}

double HealthMonitor::interval_mean(const PeerRecord& rec) const {
  if (rec.interval_count == 0) return static_cast<double>(cfg_.keepalive_intv);
  return rec.interval_sum / static_cast<double>(rec.interval_count);
}

double HealthMonitor::interval_sigma(const PeerRecord& rec) const {
  const double mean = interval_mean(rec);
  double var = 0.0;
  if (rec.interval_count > 1) {
    const double n = static_cast<double>(rec.interval_count);
    var = std::max(0.0, rec.interval_sumsq / n - mean * mean);
  }
  // Floor σ the way production accrual detectors do (Akka uses min-σ
  // relative to the heartbeat): a jitter-free simulated cadence would
  // otherwise make φ a step function.
  return std::max({std::sqrt(var), mean / 8.0,
                   static_cast<double>(micros(50))});
}

double HealthMonitor::phi_of(const PeerRecord& rec, Nanos now) const {
  if (rec.last_proof == 0 || now <= rec.last_proof) return 0.0;
  const double t = static_cast<double>(now - rec.last_proof);
  // Grace of one keepalive interval on top of the observed mean
  // (acceptable_heartbeat_pause): proofs are only *generated* at that
  // cadence, so suspicion should not ramp inside a single interval.
  const double mu =
      interval_mean(rec) + static_cast<double>(cfg_.keepalive_intv);
  const double p = normal_tail((t - mu) / interval_sigma(rec));
  if (p <= 0.0) return kPhiMax;
  return std::min(kPhiMax, -std::log10(p));
}

Nanos HealthMonitor::bound_of(const PeerRecord& rec) const {
  if (!cfg_.health_adaptive || rec.interval_count < kMinSamples) {
    return cfg_.keepalive_timeout;
  }
  const double z =
      normal_tail_inverse(std::pow(10.0, -kPhiDead));
  const double bound = interval_mean(rec) +
                       static_cast<double>(cfg_.keepalive_intv) +
                       z * interval_sigma(rec);
  // Clamp so the worst-case declaration (bound + one re-arm period of
  // min(intv, timeout/2)) stays inside oracle 9's
  // keepalive_intv + 2*keepalive_timeout envelope.
  const Nanos lo = std::max<Nanos>(cfg_.keepalive_intv / 2, micros(100));
  const Nanos hi = std::max<Nanos>(lo, 3 * cfg_.keepalive_timeout / 2);
  return std::clamp(static_cast<Nanos>(bound), lo, hi);
}

Nanos HealthMonitor::silence_bound(net::NodeId peer) const {
  const PeerRecord* rec = find(peer);
  if (!rec) return cfg_.keepalive_timeout;
  return bound_of(*rec);
}

double HealthMonitor::phi(net::NodeId peer, Nanos now) const {
  const PeerRecord* rec = find(peer);
  return rec ? phi_of(*rec, now) : 0.0;
}

PeerState HealthMonitor::state(net::NodeId peer) const {
  const PeerRecord* rec = find(peer);
  return rec ? rec->state : PeerState::healthy;
}

std::uint32_t HealthMonitor::recovery_budget(net::NodeId peer,
                                             std::uint32_t max_attempts) const {
  const PeerRecord* rec = find(peer);
  // Draining is exempt from the halved-budget distrust rule: the ladder is
  // parked outright at the channel (drain × recovery audit), and whatever
  // budget survives must be whole when the peer comes back.
  if (rec && rec->state != PeerState::healthy &&
      rec->state != PeerState::draining) {
    return std::max<std::uint32_t>(1, max_attempts / 2);
  }
  return max_attempts;
}

Nanos HealthMonitor::probe_holddown(net::NodeId peer) const {
  const PeerRecord* rec = find(peer);
  if (!rec) return 0;
  const Nanos now = engine_.now();
  return rec->holddown_until > now ? rec->holddown_until - now : 0;
}

void HealthMonitor::evaluate(Nanos now) {
  for (auto& [peer, rec] : peers_) {
    if (rec.draining) {
      if (now >= rec.drain_until) {
        // The peer overstayed its announced restart window without
        // reconnecting: forgiveness expires and normal grading resumes.
        rec.draining = false;
        rec.drain_until = 0;
      } else {
        // The draining contract: no dead grade, no open breaker while the
        // window holds. A breach here is what X-Check oracle 13 reads.
        if (rec.dead || rec.breaker_open) ++stats_.drain_violations;
        grade_change(peer, rec, PeerState::draining);
        rec.retx_in_scan = 0;
        rec.crc_in_scan = 0;
        std::fill(std::begin(rec.crc_prev_scans), std::end(rec.crc_prev_scans),
                  0);
        rec.crc_storm = false;
        continue;
      }
    }
    // With the breaker disabled nothing re-admits a dead peer explicitly;
    // fresh proof of life does.
    if (rec.dead && !rec.breaker_open && rec.last_proof > 0 &&
        now - rec.last_proof < 2 * cfg_.keepalive_intv) {
      rec.dead = false;
    }
    PeerState next = PeerState::healthy;
    if (rec.dead || rec.breaker_open) {
      next = PeerState::dead;
    } else {
      const bool rtt_inflated =
          rec.rtt_samples >= 4 &&
          rec.rtt_short > kDegradedRttX * std::max(rec.rtt_long, 1000.0);
      const bool retx_storm = rec.retx_in_scan >= kRetxDegraded;
      // CRC failures are counted over the last kCrcWindowScans scans, not
      // one: go-back-N stalls the stream for a NAK round-trip after every
      // failure, so even a heavy storm arrives in bursts that straddle scan
      // boundaries. A storm is counted once, when it starts; the grade
      // holds while it lasts.
      std::uint64_t crc_window = rec.crc_in_scan;
      for (std::uint64_t n : rec.crc_prev_scans) crc_window += n;
      const bool crc_storm = crc_window >= kCrcDegraded;
      if (crc_storm && !rec.crc_storm) {
        ++stats_.crc_storms;
        rec_log(analysis::RecEvent::corruption_storm, 0,
                static_cast<std::uint32_t>(peer), crc_window);
      }
      rec.crc_storm = crc_storm;
      if (rtt_inflated || retx_storm || crc_storm) {
        next = PeerState::degraded;
      } else if (rec.last_proof > 0 &&
                 phi_of(rec, now) >= kPhiSuspect) {
        next = PeerState::suspect;
      }
    }
    if (next != rec.state) {
      if (next == PeerState::suspect) ++stats_.suspect_transitions;
      if (next == PeerState::degraded) ++stats_.degraded_transitions;
      grade_change(peer, rec, next);
    }
    rec.retx_in_scan = 0;
    std::copy_backward(std::begin(rec.crc_prev_scans),
                       std::end(rec.crc_prev_scans) - 1,
                       std::end(rec.crc_prev_scans));
    rec.crc_prev_scans[0] = rec.crc_in_scan;
    rec.crc_in_scan = 0;
    // A long quiet spell forgives past flapping.
    if (rec.holddown_level > 0 && rec.last_flap > 0 &&
        now - rec.last_flap > 4 * kFlapWindow &&
        now >= rec.holddown_until) {
      rec.holddown_level = 0;
      rec.holddown_until = 0;
    }
  }
}

const HealthMonitor::PeerRecord* HealthMonitor::find(net::NodeId peer) const {
  auto it = peers_.find(peer);
  return it == peers_.end() ? nullptr : &it->second;
}

PeerHealthView HealthMonitor::view_of(net::NodeId peer,
                                      const PeerRecord& rec) const {
  PeerHealthView v;
  v.peer = peer;
  v.state = rec.state;
  v.phi = phi_of(rec, engine_.now());
  v.silence_bound = bound_of(rec);
  v.rtt_p50 = rec.rtt.count() ? rec.rtt.percentile(50.0) : 0;
  v.rtt_p99 = rec.rtt.count() ? rec.rtt.percentile(99.0) : 0;
  v.probes = rec.rtt.count();
  v.flaps = rec.flaps;
  v.holddown_level = rec.holddown_level;
  v.holddown_until = rec.holddown_until;
  v.breaker_open = rec.breaker_open;
  v.channels = rec.channels;
  return v;
}

std::optional<PeerHealthView> HealthMonitor::view(net::NodeId peer) const {
  const PeerRecord* rec = find(peer);
  if (!rec) return std::nullopt;
  return view_of(peer, *rec);
}

std::vector<PeerHealthView> HealthMonitor::peers() const {
  std::vector<PeerHealthView> out;
  out.reserve(peers_.size());
  for (const auto& [peer, rec] : peers_) out.push_back(view_of(peer, rec));
  return out;
}

}  // namespace xrdma::core
