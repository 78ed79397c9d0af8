// Filter (§VI-C): the programmable fault-injection subsystem.
//
// The paper's Filter component sits in the message path and lets tests and
// operators inject the failures that production RDMA actually exhibits —
// lost and delayed packets, flipped bits, dying QPs, an unresponsive
// connection manager — so the self-healing machinery (QP resume,
// retransmit-from-window, TCP fallback) can be exercised deterministically
// in simulation.
//
// A Filter owns the three hook points of one Context:
//   - ingress  (Context::set_filter):        drop / delay / corrupt received
//     wire messages before the window sees them;
//   - egress   (Context::set_egress_filter): drop / delay / corrupt messages
//     between the send window and the QP;
//   - control  (CmService::set_fault_hook):  refuse or time out this node's
//     CM connect attempts (which is what turns QP resume into fallback
//     escalation).
// plus direct QP kills (modify-to-error, exactly what a NIC firmware fault
// or cable pull produces).
//
// Rules are declarative and seeded: the same seed replays the same fault
// schedule, so every soak run is reproducible.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/enum_names.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "sim/timer.hpp"

namespace xrdma::analysis {

/// Fault kinds. The names are the vocabulary of the X-Check replay-file
/// format, so a dumped fault schedule survives enum reordering.
#define XRDMA_FAULT_KINDS(X)                                                  \
  X(ingress_drop, "ingress_drop")                                             \
  X(ingress_delay, "ingress_delay")                                           \
  X(ingress_corrupt, "ingress_corrupt")                                       \
  X(egress_drop, "egress_drop")                                               \
  X(egress_delay, "egress_delay")                                             \
  X(egress_corrupt, "egress_corrupt")                                         \
  X(qp_kill, "qp_kill") /* accounting only (injected via kill_qp*) */         \
  X(cm_refuse, "cm_refuse")   /* CM answers REP(reject) */                    \
  X(cm_timeout, "cm_timeout") /* CM REQ unanswered (full timeout) */          \
  X(host_down, "host_down") /* accounting only (harness silences host) */     \
  X(host_up, "host_up")     /* accounting only (harness revives host) */

enum class FaultKind : std::uint8_t { XRDMA_FAULT_KINDS(XRDMA_ENUM_ID) };
inline constexpr auto kFaultKindNames =
    enum_names<FaultKind>({XRDMA_FAULT_KINDS(XRDMA_ENUM_NAME)});

struct FaultRule {
  FaultKind kind = FaultKind::ingress_drop;
  double probability = 1.0;     // per-message / per-connect chance
  std::uint64_t channel_id = 0; // 0 = any channel (ignored for cm_* kinds)
  std::int32_t budget = -1;     // max injections; -1 = unlimited
  Nanos delay = 0;              // *_delay: max extra latency, drawn uniform
                                // in [1,delay]; 0 means a 50us default
};

class Filter {
 public:
  /// Installs this filter on `ctx`'s ingress/egress hooks and on the CM
  /// fault hook (gated to connects originating from ctx's node). The
  /// destructor uninstalls everything.
  Filter(core::Context& ctx, std::uint64_t seed = 1);
  ~Filter();
  Filter(const Filter&) = delete;
  Filter& operator=(const Filter&) = delete;

  /// Returns a rule id usable with remove_rule.
  std::size_t add_rule(FaultRule rule);
  void remove_rule(std::size_t id);
  void clear();

  /// Immediate one-shot QP kill: drives the channel's QP to the error
  /// state, exactly as a NIC fault would.
  void kill_qp(core::Channel& ch);
  /// Deferred one-shot QP kill by channel id (skipped if the channel is no
  /// longer established by then).
  void kill_qp_after(std::uint64_t channel_id, Nanos delay);

  std::uint64_t injected(FaultKind kind) const {
    return injected_[static_cast<std::size_t>(kind)];
  }

 private:
  struct Slot {
    FaultRule rule;
    bool active = false;
  };

  core::Context::FilterDecision consult(bool egress, core::Channel& ch);
  bool rule_fires(Slot& slot, std::uint64_t channel_id);
  void note(FaultKind kind) { ++injected_[static_cast<std::size_t>(kind)]; }

  core::Context& ctx_;
  Rng rng_;
  std::vector<Slot> rules_;
  std::uint64_t injected_[kFaultKindNames.size] = {};
  std::vector<std::unique_ptr<sim::DeadlineTimer>> kill_timers_;
  // Per-channel release floors keep delay injection order-preserving: a
  // delayed message holds back everything behind it on the same channel
  // (go-back-N semantics — RC would treat an overtaken packet as lost).
  std::map<std::uint64_t, Nanos> ingress_floor_;
  std::map<std::uint64_t, Nanos> egress_floor_;
};

}  // namespace xrdma::analysis
