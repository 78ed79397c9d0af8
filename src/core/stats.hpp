// Statistic component: the per-channel and per-context counters XR-Stat
// exposes (§VI-B) and the monitor aggregates.
//
// Every std::uint64_t counter is declared once, in the X-macro list of its
// struct, as X(field, "plane.name"): the member's name and the registry
// name analysis::ContextMetrics exports it under. The members, the sums
// and the export loop all expand from these lists; add a counter here and
// it is exported, summed and listed in xr_stat_json with nothing else to
// edit.
#pragma once

#include <cstdint>

#include "common/histogram.hpp"
#include "common/time.hpp"

#define XRDMA_CHANNEL_COUNTERS(X)                                             \
  X(msgs_tx, "chan.msgs_tx")                                                  \
  X(msgs_rx, "chan.msgs_rx")                                                  \
  X(bytes_tx, "chan.bytes_tx") /* payload bytes */                            \
  X(bytes_rx, "chan.bytes_rx")                                                \
  X(large_msgs_tx, "chan.large_msgs_tx")                                      \
  X(large_msgs_rx, "chan.large_msgs_rx")                                      \
  X(acks_tx, "chan.acks_tx") /* standalone ACK messages */                    \
  X(acks_rx, "chan.acks_rx")                                                  \
  X(nops_tx, "chan.nops_tx")                                                  \
  X(nops_rx, "chan.nops_rx")                                                  \
  X(keepalive_probes, "chan.keepalive_probes")                                \
  X(window_stalls, "chan.window_stalls") /* send_msg queued: window full */   \
  X(flowctl_queued, "chan.flowctl_queued") /* WRs deferred by the policy */   \
  X(reads_issued, "chan.reads_issued")     /* rendezvous pull fragments */    \
  X(rpc_calls, "chan.rpc_calls")                                              \
  X(rpc_timeouts, "chan.rpc_timeouts")                                        \
  X(bad_messages, "chan.bad_messages")     /* framing/protocol anomalies */   \
  X(filtered_drops, "chan.filtered_drops") /* fault-injection ingress */      \
  X(egress_drops, "chan.egress_drops")     /* fault-injection egress */       \
  X(mock_tx, "chan.mock_tx") /* messages sent over the TCP fallback */        \
  X(dup_msgs_rx, "chan.dup_msgs_rx") /* retransmits already delivered */      \
  /* Recovery plane (retry ladder + TCP fallback). */                         \
  X(recoveries_started, "recovery.started")                                   \
  X(recovery_attempts, "recovery.attempts") /* CM resume handshakes */        \
  X(recoveries_completed, "recovery.completed")                               \
  X(recovery_retransmits, "recovery.retransmits") /* re-sent on resume */     \
  X(fallback_switches, "recovery.fallback_switches") /* onto TCP */           \
  X(fallback_restores, "recovery.fallback_restores") /* TCP -> RDMA */        \
  X(rpc_aborts, "chan.rpc_aborts") /* RPCs completed closed at close() */     \
  /* Overload plane (backpressure + shedding). */                             \
  X(tx_would_block, "overload.tx_would_block") /* rejected at queue cap */    \
  X(writable_signals, "overload.writable_signals") /* on_writable edges */    \
  X(naks_tx, "overload.naks_tx") /* rendezvous pulls NAK'd (receiver) */      \
  X(naks_rx, "overload.naks_rx") /* NAKs received (sender) */                 \
  X(pulls_deferred, "overload.pulls_deferred") /* parked on mem pressure */   \
  X(tx_mem_deferrals, "overload.tx_mem_deferrals") /* parked: alloc fail */   \
  X(ctrl_alloc_failures, "overload.ctrl_alloc_failures") /* empty pool */     \
  X(tx_shed, "overload.tx_shed") /* sends shed under hard mem pressure */     \
  /* Health plane. */                                                         \
  X(breaker_fastfails, "health.breaker_fastfails") /* ladders skipped */      \
  /* Lifecycle plane (graceful drain + protocol negotiation). */              \
  X(hdr_version_reject, "chan.hdr_version_reject") /* version refused */      \
  X(hdr_tlv_skipped, "chan.hdr_tlv_skipped") /* unknown TLVs skipped */       \
  X(drains_tx, "chan.drains_tx")             /* DRAIN announcements sent */   \
  X(drains_rx, "chan.drains_rx")             /* DRAIN announcements rcvd */   \
  X(drain_recovery_parks, "recovery.drain_parks") /* peer drains: parked */   \
  /* Batched hot path (doorbell coalescing + inline sends). */                \
  X(doorbells, "chan.doorbells")       /* doorbell rings for this channel */  \
  X(doorbell_wrs, "chan.doorbell_wrs") /* WRs those doorbells carried */      \
  X(inline_sends, "chan.inline_sends") /* eager sends carried in the WQE */   \
  X(eager_copies_avoided, "mem.eager_copies_avoided") /* staging skipped */   \
  /* End-to-end integrity plane (CRC32C TLV + integrity-NAK replay). */       \
  X(crc_stamped_tx, "integrity.crc_stamped_tx") /* stamped with the TLV */    \
  X(crc_failures_rx, "integrity.crc_failures_rx") /* dropped: mismatch */     \
  X(integrity_naks_tx, "integrity.naks_tx")       /* sent (receiver) */       \
  X(integrity_naks_rx, "integrity.naks_rx")       /* received (sender) */     \
  X(integrity_retransmits, "integrity.retransmits") /* re-sent on NAK */      \
  X(integrity_exhausted, "integrity.exhausted") /* retry budgets spent */

#define XRDMA_HEALTH_COUNTERS(X)                                              \
  X(dead_declarations, "health.dead_declarations") /* breaker opens */        \
  X(breaker_opens, "health.breaker_opens")                                    \
  X(breaker_closes, "health.breaker_closes")                                  \
  X(connects_allowed, "health.connects_allowed") /* admitted by the gate */   \
  X(connects_denied, "health.connects_denied") /* cut by an open breaker */   \
  X(breaker_violations, "health.breaker_violations") /* past a closed gate */ \
  X(flaps, "health.flaps") /* restore-then-fail inside the flap window */     \
  X(holddown_escalations, "health.holddown_escalations")                      \
  X(suspect_transitions, "health.suspect_transitions")                        \
  X(degraded_transitions, "health.degraded_transitions")                      \
  /* Lifecycle plane: peers graded draining instead of suspect/dead. */       \
  X(draining_marks, "health.draining_marks") /* note_peer_draining calls */   \
  X(drain_suppressions, "health.drain_suppressions") /* verdicts held */      \
  /* Grades that broke the draining contract (X-Check oracle 13). */          \
  X(drain_violations, "health.drain_violations")                              \
  /* Integrity plane: storms seen by the corruption-storm detector, one */    \
  /* per storm however many scans it lasts. */                                \
  X(crc_storms, "health.crc_storms")

#define XRDMA_CONTEXT_COUNTERS(X)                                             \
  X(polls, "ctx.polls")                                                       \
  X(empty_polls, "ctx.empty_polls")                                           \
  X(slow_polls, "ctx.slow_polls") /* gap exceeded polling_warn_cycle */       \
  /* Poll-gap watchdog trips: tracks slow_polls today, but is the plane's */  \
  /* own alarm counter (the trips also land in the flight recorder). */       \
  X(watchdog_trips, "ctx.watchdog_trips")                                     \
  X(events_processed, "ctx.events_processed")                                 \
  X(parks, "ctx.parks") /* hybrid poller switched to event mode */            \
  X(wakeups, "ctx.wakeups")                                                   \
  X(channels_opened, "ctx.channels_opened")                                   \
  X(channels_closed, "ctx.channels_closed")                                   \
  X(channel_errors, "ctx.channel_errors")                                     \
  X(channels_recovered, "ctx.channels_recovered") /* back in service */       \
  X(pressure_soft_events, "overload.pressure_soft_events") /* into soft */    \
  X(pressure_hard_events, "overload.pressure_hard_events") /* into hard */    \
  /* Lifecycle plane. */                                                      \
  X(drains_started, "ctx.drains_started")     /* active -> draining */        \
  X(drains_completed, "ctx.drains_completed") /* draining -> drained */       \
  /* Connects/accepts refused while draining (would_block surface). */        \
  X(lifecycle_rejects, "ctx.lifecycle_rejects")

#define XRDMA_COUNTER_MEMBER(field, name) std::uint64_t field = 0;
#define XRDMA_COUNTER_VISIT(field, name) f(name, s.field);
#define XRDMA_COUNTER_ADD(field, name) field += o.field;

// What every counter struct expands from its list: the members, a static
// for_each(s, f) calling f("plane.name", counter) for every counter of `s`
// in order, and a counter-by-counter +=.
#define XRDMA_COUNTER_STRUCT(Struct, LIST)                                    \
  LIST(XRDMA_COUNTER_MEMBER)                                                  \
  template <typename Self, typename F>                                        \
  static void for_each(Self& s, F&& f) {                                      \
    LIST(XRDMA_COUNTER_VISIT)                                                 \
  }                                                                           \
  Struct& operator+=(const Struct& o) {                                       \
    LIST(XRDMA_COUNTER_ADD)                                                   \
    return *this;                                                             \
  }

namespace xrdma::core {

struct ChannelStats {
  XRDMA_COUNTER_STRUCT(ChannelStats, XRDMA_CHANNEL_COUNTERS)
};

/// Context-wide health-plane counters (aggregated across peers by the
/// HealthMonitor; X-Check oracles 11/12 read these).
struct HealthStats {
  XRDMA_COUNTER_STRUCT(HealthStats, XRDMA_HEALTH_COUNTERS)
};

/// The counters of ContextStats alone: the part that sums across contexts.
struct ContextCounters {
  XRDMA_COUNTER_STRUCT(ContextCounters, XRDMA_CONTEXT_COUNTERS)
};

struct ContextStats : ContextCounters {
  Nanos worst_poll_gap = 0;
  Histogram drain_latency;  // ns, begin_drain -> drained
  Histogram rpc_latency;  // ns, across all channels
  Histogram recovery_latency;  // ns, fault detection -> channel usable again
};

}  // namespace xrdma::core
