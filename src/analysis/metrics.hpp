// Metrics registry (§VI-B): one named store of counters, gauges and
// histograms that XR-Stat, XR-Perf, the Monitor and the trace exporters
// all read, instead of each tool taking its own ad-hoc copy of the stats
// structs.
//
// Counters and gauges are plain references into the registry — updating
// one is an increment/assignment, no lookup on the hot path once the
// handle is taken. snapshot()/delta_since() give the cheap
// snapshot-and-delta semantics the Monitor's periodic sampling and the
// benches' phase boundaries need.
//
// ContextMetrics bridges a core::Context into a registry, refreshing at
// most once per simulated timestamp so many samplers can share one bridge.
// Counter names are not written here: each ChannelStats, ContextStats and
// HealthStats counter is declared once, with its registry name, in the
// X-macro lists of core/stats.hpp, and refresh() exports every one of them
// (ChannelStats summed over the open channels). Only the derived gauges
// (chan.wrs_per_doorbell, established/inflight/queued, memory, per-peer
// health) and the histograms are named in refresh() itself.
//
// Naming convention (locked by analysis_exposition_test): every metric is
// `<plane>.<name>` with an optional `<plane>.peer.<node>.<name>` per-peer
// form. Planes: `chan` (data-path aggregates), `ctx` (poll loop + lifecycle),
// `recovery` (retry ladder + fallback), `overload` (backpressure + shedding),
// `mem` (MR pools), `health` (failure detector + breaker). Names are
// lowercase [a-z0-9_]; gauges carry a unit suffix (_us, _mb, _bytes) when
// the unit is not obvious.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/time.hpp"
#include "core/context.hpp"

namespace xrdma::analysis {

class MetricsRegistry {
 public:
  /// Monotonic event count. Returns a stable reference: callers may cache
  /// it and increment without further lookups.
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }
  /// Point-in-time value (occupancy, rate, temperature...).
  double& gauge(const std::string& name) { return gauges_[name]; }
  /// Value distribution (latencies, sizes).
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  bool has(const std::string& name) const;
  /// Scalar read by name: counter or gauge; 0 when absent.
  double value(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;
  std::vector<std::string> names() const;

  /// All scalars (counters + gauges) at one instant.
  struct Snapshot {
    std::map<std::string, double> values;
    double value(const std::string& name) const;
  };
  Snapshot snapshot() const;
  /// Per-name difference (now - prev); names absent from prev count from 0.
  Snapshot delta_since(const Snapshot& prev) const;

  /// Human-readable dump: scalars one per line, then histogram summaries.
  std::string render() const;
  void reset();

  /// Typed read-only views (the Prometheus exposition needs to tell
  /// counters from gauges to emit the right # TYPE line).
  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Bridges one Context's stats structs into a MetricsRegistry. refresh()
/// re-exports; it is idempotent within one simulated timestamp, so any
/// number of Monitor samplers / tools can call it per tick for free.
class ContextMetrics {
 public:
  explicit ContextMetrics(core::Context& ctx) : ctx_(ctx) {}

  /// Refresh and expose the registry (the common read path).
  MetricsRegistry& registry() {
    refresh();
    return reg_;
  }
  /// The registry without refreshing (for snapshot-and-delta callers that
  /// already refreshed this tick).
  MetricsRegistry& raw() { return reg_; }
  void refresh();

  core::Context& context() { return ctx_; }

 private:
  core::Context& ctx_;
  MetricsRegistry reg_;
  Nanos last_refresh_ = -1;
};

}  // namespace xrdma::analysis
