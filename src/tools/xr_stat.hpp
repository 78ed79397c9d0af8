// XR-Stat (§VI-B): netstat-style per-connection statistics, plus context
// and NIC counters (memory cache occupancy, CNP/PFC indexes).
#pragma once

#include <string>

#include "core/context.hpp"
#include "net/fabric.hpp"

namespace xrdma::analysis {
class MetricsRegistry;
class SpanCollector;
}

namespace xrdma::tools {

/// One row per channel: peer, state, traffic and protocol counters.
std::string xr_stat(core::Context& ctx);

/// Context-level summary: polling health, caches, QP cache, NIC counters.
std::string xr_stat_summary(core::Context& ctx);

/// Fabric-level health indexes the monitor watches: PFC pauses, queue
/// drops, ECN marks.
std::string xr_stat_fabric(const net::Fabric& fabric);

/// Registry view of a context (ContextMetrics names): the one source the
/// Monitor and XR-Perf also read.
std::string xr_stat_metrics(core::Context& ctx);

/// --json: the machine-readable form. One object with the node id, a
/// per-channel array and the full scalar metrics snapshot keyed by
/// registry name. Each channel object carries its peer, QP, state,
/// negotiated protocol, peer drain flag and window occupancy, then every
/// ChannelStats counter under its registry name ("chan.msgs_tx", ...) in
/// declaration order. Metrics keys are emitted sorted, numbers as JSON
/// numbers, so output is deterministic and diffable.
std::string xr_stat_json(core::Context& ctx);

/// --trace: per-stage latency-decomposition table (p50/p99 per stage,
/// published through a MetricsRegistry) for the collected spans.
std::string xr_stat_trace(const analysis::SpanCollector& spans);

}  // namespace xrdma::tools
