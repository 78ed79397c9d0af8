// X-Check schedules: the concrete, replayable description of one
// property-based conformance run.
//
// A Schedule is everything the harness needs to reproduce a run bit for bit:
// the generation seed, the cluster/config knobs, a time-ordered list of
// workload operations (channel open/close churn, eager and rendezvous sends
// straddling the 4 KB cutoff and the fragment boundary, RPCs), and a
// time-ordered list of discrete fault injections (drops, delays, corruption,
// QP kills, CM refusals). Every op and fault is one removable item, which is
// what makes greedy schedule shrinking possible: deleting an item leaves a
// schedule that is still well-formed (ops against never-opened channel slots
// execute as no-ops).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/filter.hpp"
#include "common/time.hpp"

namespace xrdma::check {

enum class OpKind : std::uint8_t { open, close, send, call };

const char* to_string(OpKind kind);

/// One workload operation. Channels are addressed by (src, dst, slot):
/// node `src` dials node `dst`, and `slot` distinguishes parallel channels
/// between the same pair (reused after a close — generation churn).
struct Op {
  Nanos at = 0;
  OpKind kind = OpKind::send;
  std::uint8_t src = 0;
  std::uint8_t dst = 1;
  std::uint8_t slot = 0;
  std::uint32_t size = 0;   // payload bytes (send / call)
  std::uint64_t tag = 0;    // content pattern seed; also the message identity
};

/// One discrete fault injection. Message faults arm a one-shot (budget-1)
/// rule on `node`'s Filter at time `at`; qp_kill targets the channel at
/// (src, dst, slot); cm_* poison the next connect/resume from `node`.
struct FaultOp {
  Nanos at = 0;
  analysis::FaultKind kind = analysis::FaultKind::ingress_drop;
  std::uint8_t node = 0;
  std::uint8_t src = 0;
  std::uint8_t dst = 0;
  std::uint8_t slot = 0;
  Nanos delay = 0;  // *_delay kinds: max extra latency
};

struct ScheduleParams {
  std::uint32_t num_hosts = 3;
  std::uint32_t num_ops = 110;
  std::uint32_t num_faults = 14;
  std::uint32_t slots_per_pair = 2;
  Nanos horizon = millis(30);  // workload window; quiesce runs after it
  // Legacy corruption switch: with the harness's baseline config (e2e_crc
  // off, modeling v1/feature-off peers) corruption faults make runs
  // *expected to fail* — the oracle suite assumes the transport does not
  // corrupt (RC hardware CRC), so these injections validate detection +
  // shrinking. For corruption as a *survivable* fault class, use
  // corruption_shape below, which arms the integrity plane.
  bool with_corruption = false;
  // Config knobs the run is built with (the interesting protocol edges).
  std::uint32_t window_depth = 8;
  std::uint32_t max_outstanding_wrs = 8;
  std::uint32_t trace_sample_mask = 3;  // trace every 4th message
  std::uint32_t frag_size = 16 * 1024;  // small → more fragment boundaries
  // Overload-control knobs. tx_queue_cap bounds every channel's pending-tx
  // queue (messages; bytes capped at tx_queue_cap * 16 KB); 0 keeps the
  // legacy unbounded queue, so pre-existing replay files run unchanged.
  std::uint32_t tx_queue_cap = 0;
  // Incast shape: every send/call targets node 0 from a random other node —
  // the N→1 storm that drives the receiver into memory pressure.
  bool incast = false;
  // Shrink the memcaches to `mem_budget_mb` MB (256 KB MRs) and arm the
  // pressure ladder (soft 60%, hard 90%) so rendezvous NAKs, deferred
  // pulls and hard-pressure shedding are actually reachable. 0 = default
  // production-sized pools.
  std::uint32_t mem_budget_mb = 0;
  // Health-plane shapes (PR 5). flap: pick one victim host and toggle it
  // down/up this many times across the back 5/8 of the horizon (paired
  // host_down/host_up faults, 50% duty cycle) — exercises dead declaration,
  // the circuit breaker and flap hold-down. 0 = no host faults (the
  // pre-existing shapes), which also arms oracle 11's no-false-dead check.
  std::uint32_t flap_cycles = 0;
  // brownout: persistent bounded ingress+egress delay (max this many µs) on
  // every node for the whole run — latency inflation that must stay under
  // the detector's floor (oracle 11). 0 = off.
  std::uint32_t brownout_delay_us = 0;
  // Run with the φ-accrual adaptive silence bound instead of the fixed
  // keepalive_timeout.
  bool health_adaptive = false;
  // Lifecycle shapes (PR 7). drain_cycles: pick one victim host and run it
  // through this many drain → drained → restart cycles across the back 5/8
  // of the horizon. Drains are driven by the harness directly (begin_drain /
  // flag clear), NOT as FaultOps, so the silence oracle stays armed: a
  // draining peer must never be graded suspect/dead (oracle 13). 0 = off.
  std::uint32_t drain_cycles = 0;
  // mixed_versions: every even-numbered host runs with proto_version_max=1
  // (the "old build"), odd hosts negotiate down to v1 on mixed pairs —
  // rolling-upgrade conformance. Off = whole cluster at the current max.
  bool mixed_versions = false;
  // Batching shape. Nonzero skews the workload toward small eager sends
  // (straddling the inline boundary), randomizes inline_max per node (0,
  // 64 or 256) and injects qp_kill faults shortly after send bursts so
  // WRs die between framing and doorbell — delivery must stay exactly-once.
  // The value seeds the per-node draw so replay files pin it. 0 = off
  // (legacy replay files decode to 0).
  std::uint32_t batch_shape = 0;
  // Corruption shape (PR 10). Nonzero boosts the ingress/egress-corrupt
  // share of the fault draw AND randomizes per-node `e2e_crc` (~3/4 of
  // nodes on, seeded by the value, composing with mixed_versions), so CRC
  // and CRC-free channels coexist in one run. Flows whose channel
  // negotiated kFeatE2eCrc must survive corruption losslessly (oracle 15:
  // no corrupted delivery, exactly-once preserved); flows without the
  // feature keep the legacy expected-fail carve-out — the harness tolerates
  // (and counts) their delivery anomalies instead of failing the run.
  // 0 = off (legacy replay files decode to 0).
  std::uint32_t corruption_shape = 0;
};

struct Schedule {
  std::uint64_t seed = 0;
  ScheduleParams params;
  std::vector<Op> ops;        // sorted by .at
  std::vector<FaultOp> faults;  // sorted by .at
  std::size_t items() const { return ops.size() + faults.size(); }
};

/// Deterministic workload + fault-schedule generation: the same seed always
/// yields the same Schedule.
Schedule generate_schedule(std::uint64_t seed, ScheduleParams params = {});

/// Replay-file round trip. The format is line-oriented text (one op or
/// fault per line) so a minimized repro can be read, edited and committed.
std::string serialize_schedule(const Schedule& s);
bool deserialize_schedule(const std::string& text, Schedule& out);
bool save_schedule(const Schedule& s, const std::string& path);
bool load_schedule(const std::string& path, Schedule& out);

/// Copy of `s` with the listed item indices removed. Items are indexed
/// ops-first: [0, ops.size()) are ops, the rest faults. Out-of-range
/// indices are ignored.
Schedule without_items(const Schedule& s, const std::vector<std::size_t>& drop);

}  // namespace xrdma::check
