// X-Check runner: the property-based conformance harness (ROADMAP: "what
// FoundationDB-style simulation testing buys you once the whole middleware
// runs on a deterministic engine").
//
// One 64-bit seed expands into a Schedule — a randomized multi-node workload
// (mixed eager / rendezvous / RPC traffic straddling the 4 KB cutoff and the
// fragment boundaries, channel open/close churn) plus a randomized fault
// schedule (drops, delays, QP kills, CM refusals, host flaps) — which
// run_schedule() executes on the simulated testbed while checking these
// invariant oracles:
//
//   1. exactly-once in-order delivery per channel (content-verified)
//   2. seq-ack window conservation (SEQ/ACKED/WTA/RTA edge relations)
//   3. memcache / QP-cache balance at quiesce (nothing leaks)
//   4. the flow-control outstanding-WR cap is never exceeded
//   5. no RNR condition, ever (the paper's RNR-freedom guarantee)
//   6. trace-span completeness for sampled message ids
//   7. bounded tx queues honour their caps; aggregate accounting balances
//   8. memcache occupancy within budget; control-plane reserve never starves
//   9. control-plane progress (keepalive liveness) under any backlog
//  10. no message both rejected by backpressure and delivered
//  11. no false dead declaration while no host was ever silenced
//  12. breaker consistency: no CM connect slips past a closed breaker gate
//  13. drain courtesy: an announced drain is graded `draining`, never
//      suspect/dead, and trips no breaker for its whole window
//  14. retired (doorbell-batch conservation; WR chaining was removed)
//  15. end-to-end integrity: a flow whose channel negotiated kFeatE2eCrc
//      never surfaces a corrupted, reordered, duplicated or mis-sized
//      delivery, no matter how many frames the schedule corrupts — the
//      CRC32C TLV + integrity-NAK retransmit path must absorb them all.
//      Flows without the feature (v1 peers, e2e_crc off) keep the legacy
//      carve-out under corruption_shape: their anomalies are tolerated and
//      counted, not fatal.
//
// Lifecycle shapes (drain_cycles / mixed_versions) are driven by the
// harness itself — a drain is an administrative act, not a fault, so it
// must not disarm oracle 11.
//
// A failing run prints its seed, dumps the schedule to a replay file
// (re-runnable bit-for-bit with run_schedule(load_schedule(...))), and can
// be handed to shrink_schedule() for greedy delta-debugging down to a
// near-minimal repro.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/schedule.hpp"
#include "core/stats.hpp"

namespace xrdma::check {

struct RunOptions {
  /// Evaluate the continuous oracles (2, 4, 5) from the engine's post-event
  /// hook — at quiescent points between simulation events.
  bool continuous_checks = true;
  /// Observe after every Nth fired engine event (1 = every one; higher =
  /// cheaper). Quiet poll ticks change nothing the oracles read, so 1
  /// checks every state a run passes through.
  std::uint32_t probe_stride = 1;
  /// On failure, dump the schedule here for replay ("" = don't).
  std::string replay_path;
  /// On failure, flush each context's flight-recorder ring to
  /// `<dump_dir>/xcheck-seed<seed>.node<N>.xrd` ("" = don't). The triage
  /// workflow: load the dump with tools::xr_triage_file alongside the
  /// replay file.
  std::string dump_dir;
  /// Capture each context's encoded `.xrd` dump into RunReport::dumps,
  /// pass or fail — the same-seed bit-identical determinism test compares
  /// these across replays.
  bool capture_dumps = false;
  /// Print seed + violations to stderr on failure.
  bool verbose = true;
};

struct RunReport {
  std::uint64_t seed = 0;
  /// FNV-1a fold of everything observable: per-flow delivery streams, RPC
  /// and fault accounting, event count and end time. Two runs of the same
  /// schedule must produce the same digest — the determinism contract.
  std::uint64_t digest = 0;
  std::uint64_t violations = 0;
  std::vector<std::string> violation_samples;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_delivered = 0;
  std::uint64_t msgs_rejected = 0;  // would_block from the bounded tx queue
  std::uint64_t rpcs_issued = 0;
  std::uint64_t rpcs_completed = 0;
  std::uint64_t rpcs_failed = 0;  // timeouts / closed-channel aborts: legal
  std::uint64_t faults_injected = 0;
  // Plane exercise counters, summed over every context at quiesce: every
  // channel's ChannelStats, every HealthStats and every ContextStats
  // counter. Shape tests use them to prove a schedule actually drove its
  // plane (detector and breaker, drain cycles, inline sends, CRC failures
  // healed by integrity NAKs), not just that no oracle fired.
  core::ChannelStats chan;
  core::HealthStats health;
  core::ContextCounters ctx;
  // Delivery anomalies observed on flows WITHOUT negotiated CRC protection
  // under corruption_shape — the legacy expected-fail class, tolerated and
  // counted instead of failing the run.
  std::uint64_t unprotected_anomalies = 0;
  std::uint64_t span_posts = 0;
  std::uint64_t span_delivers = 0;
  std::uint64_t oracle_observations = 0;
  std::uint64_t events = 0;  // logical: fired plus quiet-train ticks
  std::uint64_t events_fired = 0;
  Nanos end_time = 0;
  /// Encoded per-context `.xrd` dumps (RunOptions::capture_dumps). Records
  /// carry only sim time and deterministic payloads, so two runs of one
  /// schedule must produce byte-identical entries here.
  std::vector<std::vector<std::uint8_t>> dumps;
  bool passed() const { return violations == 0; }
};

/// Execute one schedule and check every oracle. Deterministic: the same
/// schedule always yields the same report (including the digest).
RunReport run_schedule(const Schedule& s, const RunOptions& opt = {});

/// generate_schedule + run_schedule in one step.
RunReport check_seed(std::uint64_t seed, ScheduleParams params = {},
                     const RunOptions& opt = {});

struct ShrinkResult {
  Schedule minimized;
  std::size_t runs = 0;     // candidate executions spent
  std::size_t removed = 0;  // items deleted from the original
  bool still_fails = false; // the minimized schedule still reproduces
};

/// Greedy schedule shrinking (ddmin-lite): repeatedly delete chunks of
/// ops/faults, keeping any deletion that preserves the failure, halving the
/// chunk size when a sweep makes no progress. Runs at most `max_runs`
/// candidate executions.
ShrinkResult shrink_schedule(const Schedule& s, const RunOptions& opt = {},
                             std::size_t max_runs = 200);

/// The seed list for a smoke sweep. Honors two environment variables:
///   XCHECK_SEED        a number (run exactly that seed) or "random"
///                      (fresh base seed, printed for reproduction)
///   XCHECK_SMOKE_COUNT how many seeds (default `default_count`)
/// With neither set, returns `default_count` fixed golden-ratio seeds so
/// ctest runs are deterministic.
std::vector<std::uint64_t> smoke_seeds(std::uint32_t default_count = 20);

/// One-line human summary ("seed 42: PASS, 87 msgs, 14 faults, ...").
std::string describe(const RunReport& r);

}  // namespace xrdma::check
