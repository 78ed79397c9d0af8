// X-Check invariant oracles.
//
// The harness checks ten invariants against every run:
//   1. exactly-once in-order delivery per channel  (harness delivery records)
//   2. seq-ack window conservation                 (LiveOracle, continuous)
//   3. memcache / QP-cache balance at quiesce      (harness quiesce checks)
//   4. flow-control cap never exceeded             (LiveOracle, continuous)
//   5. no RNR condition, ever                      (LiveOracle, continuous)
//   6. trace-span completeness for sampled ids     (SpanLedger at quiesce)
//   7. bounded tx queues stay bounded and the per-context aggregate
//      accounting balances                         (LiveOracle, continuous)
//   8. memcache occupancy within budget; the control-plane reserve never
//      lets a privileged allocation fail           (LiveOracle, continuous)
//   9. control-plane progress: an established RDMA channel always shows
//      recent proof of life (tx, rx, or keepalive) no matter how deep the
//      data-plane backlog is                       (LiveOracle, continuous)
//  10. no message both delivered and rejected by backpressure
//                                                  (harness quiesce checks)
//  11. no false dead declaration: the health plane never declares a peer
//      dead unless the schedule actually silenced a host (keepalive probes
//      are hardware-acked, so drops/delays/brownouts under the configured
//      bound cannot mute them)                     (LiveOracle, continuous)
//  12. breaker consistency: once a peer is dead, no channel issues a CM
//      connect attempt past the closed gate — only designated half-open
//      probers re-admit the peer                   (LiveOracle, continuous)
//  13. drain courtesy: a peer that announced a graceful drain is graded
//      `draining`, never suspect/dead, and no breaker opens against it
//      while its announced window lasts — leaving is not failing
//                                                  (LiveOracle, continuous)
//  14. retired (doorbell-batch conservation; the WR chaining it guarded
//      was removed — the number is not reused)
//
// Continuous oracles run from the engine's post-event hook, i.e. at every
// quiescent point between simulation events — the strongest observation
// schedule a deterministic discrete-event system offers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/span.hpp"
#include "rnic/rnic.hpp"

namespace xrdma::check {

/// Bounded violation sink: keeps the first kMaxKept messages verbatim and
/// counts the rest, so a badly broken run doesn't drown the report.
class ViolationLog {
 public:
  static constexpr std::size_t kMaxKept = 48;

  void add(Nanos at, std::string what);
  bool empty() const { return total_ == 0; }
  std::uint64_t total() const { return total_; }
  const std::vector<std::string>& entries() const { return entries_; }

 private:
  std::vector<std::string> entries_;
  std::uint64_t total_ = 0;
};

/// Oracle 6: records every span event from every context and, at quiesce,
/// demands that each sampled (traced) message that was delivered also has a
/// matching sender-side post — the paper's end-to-end tracing contract.
class SpanLedger : public core::SpanSink {
 public:
  /// Carve-out hook for corruption schedules: a deliver for which this
  /// predicate returns true is excluded from the completeness check (its
  /// trace id rode a path with no end-to-end CRC, so a corrupt fault may
  /// have rewritten the id in flight) and counted instead.
  using TolerateFn = std::function<bool(const core::SpanDeliverEvent&)>;

  void on_span_post(const core::SpanPostEvent& ev) override;
  void on_span_deliver(const core::SpanDeliverEvent& ev) override;

  void set_tolerate(TolerateFn fn) { tolerate_ = std::move(fn); }
  std::uint64_t tolerated_delivers() const { return tolerated_delivers_; }

  void check(ViolationLog& log, Nanos now) const;

  std::uint64_t posts() const { return total_posts_; }
  std::uint64_t delivers() const { return total_delivers_; }
  /// Folds order-independent totals into a run digest (ids themselves are
  /// salted per-process and therefore excluded).
  void fold(std::uint64_t& digest) const;

 private:
  std::map<std::uint64_t, std::uint32_t> posts_by_id_;
  std::map<std::uint64_t, std::uint32_t> delivers_by_id_;
  std::uint64_t total_posts_ = 0;
  std::uint64_t total_delivers_ = 0;
  TolerateFn tolerate_;
  std::uint64_t tolerated_delivers_ = 0;
};

/// Oracles 2, 4 and 5, evaluated between simulation events: seq-ack window
/// conservation and monotonicity per channel, the flow-control outstanding
/// WR cap per context, and the global no-RNR guarantee.
class LiveOracle {
 public:
  void attach(std::vector<core::Context*> contexts,
              std::vector<const rnic::Rnic*> nics, ViolationLog* log);

  /// Oracle 11 precondition: the schedule injects faults that can silence a
  /// peer at the transport level (host_down, or drops that can exhaust the
  /// NIC retransmit budget), so dead declarations are legitimate — on every
  /// node, since a silenced host cannot tell itself apart from a silenced
  /// world.
  void set_silence_faults_injected(bool injected) {
    silence_faults_injected_ = injected;
  }

  /// One observation pass. Cheap enough to run every few engine events.
  void observe(Nanos now);

  std::uint64_t observations() const { return observations_; }

 private:
  struct ChanMark {
    core::Seq acked = 0;
    core::Seq rta = 0;
  };

  void observe_channel(core::Channel& ch, Nanos now);

  std::vector<core::Context*> contexts_;
  std::vector<const rnic::Rnic*> nics_;
  ViolationLog* log_ = nullptr;
  // (node, channel id) -> high-water marks for monotonicity checks.
  std::map<std::pair<std::uint32_t, std::uint64_t>, ChanMark> marks_;
  bool rnr_reported_ = false;
  bool silence_faults_injected_ = false;
  bool false_dead_reported_ = false;
  bool breaker_violation_reported_ = false;
  bool drain_violation_reported_ = false;
  std::uint64_t observations_ = 0;
};

}  // namespace xrdma::check
