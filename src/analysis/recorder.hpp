// X-Ray flight recorder (§VI): a per-context, fixed-size binary ring of
// control-plane events that is always on. Every channel state transition,
// recovery-ladder step, health grade change, breaker/hold-down event,
// overload decision, CM handshake outcome and a sampled slice of the
// message/WR lifecycle lands here as one 32-byte timestamped record.
//
// Contexts are single-threaded run-to-completion event loops, so the ring
// is lock-free by construction: a plain array and a monotonically rising
// head counter, no atomics, no allocation after construction. Appending is
// one predictable branch plus six stores — cheap enough to leave enabled
// in production, which is the whole point: when a channel dies or a peer
// is declared dead, the last few thousand decisions that led there are
// already in memory, waiting to be flushed.
//
// On a trigger (channel death, peer dead, oracle failure, watchdog trip,
// xr_adm dump) the ring plus a metrics snapshot is encoded into a
// self-describing `.xrd` dump: the file carries its own event-name table,
// so tools/xr_triage can decode dumps from builds with a different event
// enum. Records carry only simulated time and deterministic payloads, so
// same-seed replays produce bit-identical dumps — X-Check locks this in.
//
// This header is deliberately self-contained (no core/ includes): core
// headers include it to embed the recorder without cycles.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/enum_names.hpp"
#include "common/time.hpp"

namespace xrdma::core {
class Context;
}

namespace xrdma::analysis {

/// Event vocabulary, one X(id, "name") line per event. Stable small
/// integers: the position is the raw value written into dumps (alongside a
/// name table, so decoding survives renumbering, but keeping the list
/// append-only keeps old dumps trivially comparable). An event added here
/// reaches every dump's name table with nothing else to edit.
#define XRDMA_REC_EVENTS(X)                                                   \
  X(none, "none")                                                             \
  /* Channel lifecycle. code=new state, a=old state, b=errc cause. */         \
  X(chan_state, "chan_state")                                                 \
  /* Recovery ladder. */                                                      \
  X(recovery_start, "recovery_start")     /* code=errc fault, a=budget */     \
  X(recovery_attempt, "recovery_attempt") /* code=attempt number */           \
  X(recovery_resumed, "recovery_resumed") /* code=attempt, a=latency ns */    \
  X(fallback_switch, "fallback_switch")   /* ladder exhausted: to TCP */      \
  X(fallback_attach, "fallback_attach")   /* TCP mock attached */             \
  X(fallback_restore, "fallback_restore") /* back on RDMA */                  \
  X(breaker_fastfail, "breaker_fastfail") /* swallowed by open breaker */     \
  /* Health plane. chan field carries the peer id. */                         \
  X(health_grade, "health_grade") /* code=new PeerState, a=old */             \
  X(peer_dead, "peer_dead")       /* code=reporting channel id */             \
  X(breaker_open, "breaker_open")                                             \
  X(breaker_close, "breaker_close")                                           \
  X(flap, "flap")                 /* a=flap count */                          \
  X(holddown, "holddown")         /* code=new level, a=hold-down nanos */     \
  X(cm_connect, "cm_connect")     /* code=errc, chan=peer */                  \
  X(cm_resume, "cm_resume")       /* code=errc, chan=peer */                  \
  /* Overload plane. */                                                       \
  X(overload_shed, "overload_shed") /* hard pressure: refused at enqueue */   \
  X(overload_would_block, "overload_would_block") /* tx queue at cap */       \
  X(overload_nak_tx, "overload_nak_tx") /* receiver memory NAK, a=seq */      \
  X(overload_pull_defer, "overload_pull_defer") /* pull deferred, a=seq */    \
  X(overload_mem_defer, "overload_mem_defer") /* tx deferred: alloc fail */   \
  X(pressure, "pressure") /* code=new MemPressure, a=old */                   \
  /* Context plane. */                                                        \
  X(watchdog_trip, "watchdog_trip") /* poll-gap watchdog: a=gap, b=bound */   \
  X(msg_tx_sample, "msg_tx_sample") /* sampled send, a=seq, b=bytes */        \
  /* Sampled WR completion: code=WrKind, a=seq, b=errc status. */             \
  X(wr_sample, "wr_sample")                                                   \
  /* Memory cache. code distinguishes ctrl(0)/data(1) caches. */              \
  X(mem_grow, "mem_grow")     /* a=occupied bytes after */                    \
  X(mem_shrink, "mem_shrink") /* a=occupied bytes after */                    \
  X(mem_denial, "mem_denial") /* reserve denial, a=requested len */           \
  /* Dump bookkeeping. */                                                     \
  X(trigger, "trigger") /* dump trigger fired; code=TrigReason */             \
  /* Lifecycle plane (graceful drain + protocol negotiation). */              \
  X(lifecycle_state, "lifecycle_state") /* code=new Lifecycle, a=old */       \
  X(drain_rx, "drain_rx") /* chan=peer, a=retry-after ns, b=channel */        \
  X(hdr_version_reject, "hdr_version_reject") /* code=HdrDecode, a=len */     \
  /* code=effective version, a=features, b=peer's version range */            \
  X(proto_negotiated, "proto_negotiated")                                     \
  /* Reserved: chained doorbell (no longer logged; kept so older dumps */     \
  /* still decode). */                                                        \
  X(batch_flush, "batch_flush")                                               \
  /* End-to-end integrity plane (e2e_crc). a=seq. */                          \
  X(crc_fail_rx, "crc_fail_rx") /* dropped on CRC mismatch, b=payload */      \
  X(integrity_nak_tx, "integrity_nak_tx") /* receiver NAK'd a frame */        \
  X(integrity_nak_rx, "integrity_nak_rx") /* sender got an integrity NAK */   \
  X(integrity_retransmit, "integrity_retransmit") /* re-sent, code=retry */   \
  X(integrity_exhausted, "integrity_exhausted") /* code=retry budget */       \
  /* Storm detector graded a peer; chan=peer, a=CRC failures in the last */   \
  /* four scans. */                                                           \
  X(corruption_storm, "corruption_storm")

enum class RecEvent : std::uint16_t { XRDMA_REC_EVENTS(XRDMA_ENUM_ID) };
inline constexpr auto kRecEventNames =
    enum_names<RecEvent>({XRDMA_REC_EVENTS(XRDMA_ENUM_NAME)});

/// Why a dump was cut. Written as Rec::code of the `trigger` record and as
/// the dump's reason string.
#define XRDMA_TRIG_REASONS(X)                                                 \
  X(manual, "manual")                 /* xr_adm dump / explicit API call */   \
  X(channel_death, "channel_death")   /* a channel reached terminal error */  \
  X(peer_dead, "peer_dead")           /* health plane declared a peer dead */ \
  X(oracle_failure, "oracle_failure") /* X-Check invariant violated */        \
  X(watchdog, "watchdog")             /* poll-gap watchdog tripped */

enum class TrigReason : std::uint16_t { XRDMA_TRIG_REASONS(XRDMA_ENUM_ID) };
inline constexpr auto kTrigReasonNames =
    enum_names<TrigReason>({XRDMA_TRIG_REASONS(XRDMA_ENUM_NAME)});

/// One record: 32 bytes, no padding, no pointers, no wall-clock time.
struct Rec {
  Nanos t = 0;             // simulated time of the event
  std::uint16_t type = 0;  // RecEvent
  std::uint16_t code = 0;  // event-specific discriminator
  std::uint32_t chan = 0;  // channel id or peer id, event-specific
  std::uint64_t a = 0;     // event-specific payloads
  std::uint64_t b = 0;
};
static_assert(sizeof(Rec) == 32, "Rec must stay a packed 32-byte record");

class FlightRecorder {
 public:
  /// Capacity is rounded up to a power of two so the ring index is a mask.
  explicit FlightRecorder(std::uint32_t capacity = 4096);

  /// The hot-path append. One branch when disabled; overwrites the oldest
  /// record once the ring is full. Safe to call from inside a dump hook
  /// (a dump reads a copy, never the live ring storage).
  void log(Nanos t, RecEvent type, std::uint16_t code = 0,
           std::uint32_t chan = 0, std::uint64_t a = 0, std::uint64_t b = 0) {
    if (!enabled_) return;
    Rec& r = ring_[static_cast<std::size_t>(head_) & mask_];
    r.t = t;
    r.type = static_cast<std::uint16_t>(type);
    r.code = code;
    r.chan = chan;
    r.a = a;
    r.b = b;
    ++head_;
  }

  /// Sampling gate for per-message lifecycle events: true for one in
  /// (mask+1) ids. Disabled recorder samples nothing.
  bool sample(std::uint64_t id) const {
    return enabled_ && (id & sample_mask_) == 0;
  }

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// mask must be 2^k - 1; e.g. 63 samples one message in 64.
  void set_sample_mask(std::uint32_t mask) { sample_mask_ = mask; }
  std::uint32_t sample_mask() const { return sample_mask_; }

  std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(ring_.size());
  }
  /// Total records ever appended (wrap-aware callers compare with size()).
  std::uint64_t appended() const { return head_; }
  /// Records currently held (== capacity once wrapped).
  std::size_t size() const;
  /// Copy of the live ring, oldest record first.
  std::vector<Rec> records() const;
  void clear() { head_ = 0; }

 private:
  std::vector<Rec> ring_;
  std::size_t mask_;
  std::uint64_t head_ = 0;
  std::uint32_t sample_mask_ = 63;
  bool enabled_ = true;
};

/// A decoded (or to-be-encoded) dump: what the node knew when the trigger
/// fired. `metrics` is the scalar snapshot of the context's registry.
struct Dump {
  std::uint32_t version = 1;
  std::uint32_t node = 0;
  Nanos dumped_at = 0;
  std::string reason;
  std::vector<Rec> records;
  std::vector<std::pair<std::string, double>> metrics;
  /// Event-name table carried by the file; keyed by raw RecEvent value.
  std::vector<std::pair<std::uint16_t, std::string>> event_names;

  /// Name for a record's type: from the file's table when present (so
  /// foreign dumps stay readable), else this build's enum.
  std::string event_name(std::uint16_t type) const;
};

/// Self-describing binary encoding ("XRD1"). Deterministic: equal Dumps
/// encode to equal bytes.
std::vector<std::uint8_t> encode_xrd(const Dump& dump);
bool decode_xrd(const std::uint8_t* data, std::size_t len, Dump& out);

bool write_xrd_file(const std::string& path, const Dump& dump);
bool decode_xrd_file(const std::string& path, Dump& out);

/// Cut a dump from a live context: ring contents plus the scalar metrics
/// snapshot of its ContextMetrics registry, stamped with sim time.
Dump snapshot_dump(core::Context& ctx, const std::string& reason);

}  // namespace xrdma::analysis
