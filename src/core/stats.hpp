// Statistic component: the per-channel and per-context counters XR-Stat
// exposes (§VI-B) and the monitor aggregates.
#pragma once

#include <cstdint>

#include "common/histogram.hpp"
#include "common/time.hpp"

namespace xrdma::core {

struct ChannelStats {
  std::uint64_t msgs_tx = 0;
  std::uint64_t msgs_rx = 0;
  std::uint64_t bytes_tx = 0;  // payload bytes
  std::uint64_t bytes_rx = 0;
  std::uint64_t large_msgs_tx = 0;
  std::uint64_t large_msgs_rx = 0;
  std::uint64_t acks_tx = 0;  // standalone ACK messages
  std::uint64_t acks_rx = 0;
  std::uint64_t nops_tx = 0;
  std::uint64_t nops_rx = 0;
  std::uint64_t keepalive_probes = 0;
  std::uint64_t window_stalls = 0;  // send_msg had to queue (window full)
  std::uint64_t flowctl_queued = 0; // WRs deferred by the queuing policy
  std::uint64_t reads_issued = 0;   // rendezvous pull fragments
  std::uint64_t rpc_calls = 0;
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t bad_messages = 0;   // framing / protocol anomalies
  std::uint64_t filtered_drops = 0; // fault-injection ingress drops
  std::uint64_t egress_drops = 0;   // fault-injection egress drops
  std::uint64_t mock_tx = 0;        // messages sent over the TCP fallback
  std::uint64_t dup_msgs_rx = 0;    // recovery retransmits already delivered
  std::uint64_t recoveries_started = 0;
  std::uint64_t recovery_attempts = 0;   // CM resume handshakes issued
  std::uint64_t recoveries_completed = 0;
  std::uint64_t recovery_retransmits = 0;  // window entries re-sent on resume
  std::uint64_t fallback_switches = 0;  // escalations onto the TCP fallback
  std::uint64_t fallback_restores = 0;  // returns from TCP to RDMA
  std::uint64_t rpc_aborts = 0;  // RPCs completed channel_closed at close()
  // Overload control.
  std::uint64_t tx_would_block = 0;   // sends rejected at the queue cap
  std::uint64_t writable_signals = 0; // on_writable edge firings
  std::uint64_t naks_tx = 0;          // rendezvous pulls NAK'd (receiver)
  std::uint64_t naks_rx = 0;          // NAKs received (sender)
  std::uint64_t pulls_deferred = 0;   // pulls parked on memory pressure
  std::uint64_t tx_mem_deferrals = 0; // emits/retransmits parked on alloc fail
  std::uint64_t ctrl_alloc_failures = 0;  // control plane hit an empty pool
  std::uint64_t tx_shed = 0;          // sends shed under hard mem pressure
  // Health plane.
  std::uint64_t breaker_fastfails = 0;  // retry ladders skipped (breaker open)
  // Lifecycle plane.
  std::uint64_t hdr_version_reject = 0; // decode refused out-of-range version
  std::uint64_t hdr_tlv_skipped = 0;    // unknown header TLVs skipped by rule
  std::uint64_t drains_tx = 0;          // DRAIN announcements sent
  std::uint64_t drains_rx = 0;          // DRAIN announcements received
  std::uint64_t drain_recovery_parks = 0;  // retry ladders parked: peer drains
  // Batched hot path (doorbell coalescing + inline sends).
  std::uint64_t doorbells = 0;          // doorbell rings for this channel
  std::uint64_t doorbell_wrs = 0;       // WRs those doorbells carried
  std::uint64_t inline_sends = 0;       // eager sends carried in the WQE
  std::uint64_t eager_copies_avoided = 0;  // MemCache staging copies skipped
  // End-to-end integrity plane (e2e_crc).
  std::uint64_t crc_stamped_tx = 0;     // frames stamped with the CRC TLV
  std::uint64_t crc_failures_rx = 0;    // frames dropped on CRC mismatch
  std::uint64_t integrity_naks_tx = 0;  // integrity NAKs sent (receiver)
  std::uint64_t integrity_naks_rx = 0;  // integrity NAKs received (sender)
  std::uint64_t integrity_retransmits = 0;  // window entries re-sent on NAK
  std::uint64_t integrity_exhausted = 0;    // retry budgets exhausted
};

/// Context-wide health-plane counters (aggregated across peers by the
/// HealthMonitor; X-Check oracles 11/12 read these).
struct HealthStats {
  std::uint64_t dead_declarations = 0;  // peers declared dead (breaker opens)
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_closes = 0;
  std::uint64_t connects_allowed = 0;   // CM attempts admitted by the gate
  std::uint64_t connects_denied = 0;    // ladders cut short by an open breaker
  std::uint64_t breaker_violations = 0; // attempts issued past a closed gate
  std::uint64_t flaps = 0;              // restore-then-fail inside flap window
  std::uint64_t holddown_escalations = 0;
  std::uint64_t suspect_transitions = 0;
  std::uint64_t degraded_transitions = 0;
  // Lifecycle plane: peers graded draining instead of suspect/dead.
  std::uint64_t draining_marks = 0;     // note_peer_draining announcements
  std::uint64_t drain_suppressions = 0; // dead/suspect verdicts suppressed
  std::uint64_t drain_violations = 0;   // grades that broke the draining
                                        // contract (X-Check oracle 13)
  // Integrity plane: storms seen by the corruption-storm detector, one per
  // storm however many scans it lasts.
  std::uint64_t crc_storms = 0;
};

struct ContextStats {
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  std::uint64_t slow_polls = 0;  // poll gap exceeded polling_warn_cycle
  // Poll-gap watchdog trips. Tracks slow_polls today, but is the plane's
  // own alarm counter: the trips also land in the flight recorder and the
  // metrics registry (the satellite wiring slow polls used to lack).
  std::uint64_t watchdog_trips = 0;
  Nanos worst_poll_gap = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t parks = 0;       // hybrid poller switched to event mode
  std::uint64_t wakeups = 0;
  std::uint64_t channels_opened = 0;
  std::uint64_t channels_closed = 0;
  std::uint64_t channel_errors = 0;
  std::uint64_t channels_recovered = 0;  // recoveries brought back to service
  std::uint64_t pressure_soft_events = 0;  // ladder transitions into soft
  std::uint64_t pressure_hard_events = 0;  // ladder transitions into hard
  // Lifecycle plane.
  std::uint64_t drains_started = 0;    // active -> draining transitions
  std::uint64_t drains_completed = 0;  // draining -> drained transitions
  std::uint64_t lifecycle_rejects = 0; // connects/accepts refused while
                                       // draining (would_block surface)
  Histogram drain_latency;  // ns, begin_drain -> drained
  Histogram rpc_latency;  // ns, across all channels
  Histogram recovery_latency;  // ns, fault detection -> channel usable again
};

}  // namespace xrdma::core
