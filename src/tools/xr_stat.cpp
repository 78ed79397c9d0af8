#include "tools/xr_stat.hpp"

#include <sstream>

#include "analysis/metrics.hpp"
#include "analysis/trace.hpp"
#include "common/logging.hpp"

namespace xrdma::tools {

std::string xr_stat(core::Context& ctx) {
  std::ostringstream os;
  os << strfmt("%-6s %-6s %-12s %10s %10s %12s %12s %8s %8s %6s %6s %5s "
               "%5s %5s %5s %6s %5s %5s %5s %5s\n",
               "peer", "qp", "state", "msgs_tx", "msgs_rx", "bytes_tx",
               "bytes_rx", "inflight", "queued", "acks", "nops", "ka",
               "recov", "retx", "fallb", "wblock", "naks", "shed", "crcf",
               "inak");
  for (core::Channel* ch : ctx.channels()) {
    const auto& s = ch->stats();
    os << strfmt("%-6u %-6u %-12s %10llu %10llu %12llu %12llu %8zu %8zu "
                 "%6llu %6llu %5llu %5llu %5llu %5llu %6llu %5llu %5llu "
                 "%5llu %5llu\n",
                 ch->peer_node(), ch->qp_num(),
                 core::kChannelStateNames.name(ch->state()),
                 static_cast<unsigned long long>(s.msgs_tx),
                 static_cast<unsigned long long>(s.msgs_rx),
                 static_cast<unsigned long long>(s.bytes_tx),
                 static_cast<unsigned long long>(s.bytes_rx),
                 ch->inflight_msgs(), ch->queued_msgs(),
                 static_cast<unsigned long long>(s.acks_tx),
                 static_cast<unsigned long long>(s.nops_tx),
                 static_cast<unsigned long long>(s.keepalive_probes),
                 static_cast<unsigned long long>(s.recoveries_completed),
                 static_cast<unsigned long long>(s.recovery_retransmits),
                 static_cast<unsigned long long>(s.fallback_switches),
                 static_cast<unsigned long long>(s.tx_would_block),
                 static_cast<unsigned long long>(s.naks_tx + s.naks_rx),
                 static_cast<unsigned long long>(s.tx_shed),
                 static_cast<unsigned long long>(s.crc_failures_rx),
                 static_cast<unsigned long long>(s.integrity_naks_tx +
                                                 s.integrity_naks_rx));
  }
  return os.str();
}

std::string xr_stat_summary(core::Context& ctx) {
  std::ostringstream os;
  const auto& cs = ctx.stats();
  os << strfmt("node %u: channels=%zu opened=%llu closed=%llu errors=%llu "
               "recovered=%llu\n",
               ctx.node(), ctx.num_channels(),
               static_cast<unsigned long long>(cs.channels_opened),
               static_cast<unsigned long long>(cs.channels_closed),
               static_cast<unsigned long long>(cs.channel_errors),
               static_cast<unsigned long long>(cs.channels_recovered));
  if (cs.recovery_latency.count() > 0) {
    os << strfmt("  recovery_latency: %s\n",
                 cs.recovery_latency.summary().c_str());
  }
  os << strfmt("  polling: polls=%llu empty=%llu slow=%llu worst_gap=%s "
               "parks=%llu wakeups=%llu\n",
               static_cast<unsigned long long>(cs.polls),
               static_cast<unsigned long long>(cs.empty_polls),
               static_cast<unsigned long long>(cs.slow_polls),
               format_duration(cs.worst_poll_gap).c_str(),
               static_cast<unsigned long long>(cs.parks),
               static_cast<unsigned long long>(cs.wakeups));
  const auto& ctrl = ctx.ctrl_cache().stats();
  const auto& data = ctx.data_cache().stats();
  os << strfmt("  memcache: occupy=%.1fMB in_use=%.1fMB grows=%llu "
               "shrinks=%llu guard_violations=%llu\n",
               static_cast<double>(ctrl.occupied_bytes + data.occupied_bytes) /
                   1e6,
               static_cast<double>(ctrl.in_use_bytes + data.in_use_bytes) / 1e6,
               static_cast<unsigned long long>(ctrl.grow_events +
                                               data.grow_events),
               static_cast<unsigned long long>(ctrl.shrink_events +
                                               data.shrink_events),
               static_cast<unsigned long long>(ctrl.guard_violations +
                                               data.guard_violations));
  os << strfmt("  overload: pressure=%s queued_tx=%llu soft_events=%llu "
               "hard_events=%llu reserve_denials=%llu ctrl_starved=%llu\n",
               core::kMemPressureNames.name(ctx.mem_pressure()),
               static_cast<unsigned long long>(ctx.queued_tx_bytes()),
               static_cast<unsigned long long>(cs.pressure_soft_events),
               static_cast<unsigned long long>(cs.pressure_hard_events),
               static_cast<unsigned long long>(ctrl.reserve_denials +
                                               data.reserve_denials),
               static_cast<unsigned long long>(ctrl.privileged_alloc_fails));
  os << strfmt("  lifecycle: state=%s drains=%llu/%llu rejects=%llu\n",
               core::kLifecycleNames.name(ctx.lifecycle()),
               static_cast<unsigned long long>(cs.drains_completed),
               static_cast<unsigned long long>(cs.drains_started),
               static_cast<unsigned long long>(cs.lifecycle_rejects));
  const auto& hs = ctx.health().stats();
  os << strfmt("  health: dead=%llu breaker_open=%llu/closed=%llu "
               "denied=%llu flaps=%llu holddown_escal=%llu suspect=%llu "
               "degraded=%llu\n",
               static_cast<unsigned long long>(hs.dead_declarations),
               static_cast<unsigned long long>(hs.breaker_opens),
               static_cast<unsigned long long>(hs.breaker_closes),
               static_cast<unsigned long long>(hs.connects_denied),
               static_cast<unsigned long long>(hs.flaps),
               static_cast<unsigned long long>(hs.holddown_escalations),
               static_cast<unsigned long long>(hs.suspect_transitions),
               static_cast<unsigned long long>(hs.degraded_transitions));
  const core::ChannelStats ichan = ctx.channel_totals();
  os << strfmt("  integrity: stamped=%llu crc_fail=%llu naks=%llu/%llu "
               "retx=%llu exhausted=%llu storms=%llu\n",
               static_cast<unsigned long long>(ichan.crc_stamped_tx),
               static_cast<unsigned long long>(ichan.crc_failures_rx),
               static_cast<unsigned long long>(ichan.integrity_naks_tx),
               static_cast<unsigned long long>(ichan.integrity_naks_rx),
               static_cast<unsigned long long>(ichan.integrity_retransmits),
               static_cast<unsigned long long>(ichan.integrity_exhausted),
               static_cast<unsigned long long>(hs.crc_storms));
  os << strfmt("  qp_cache: size=%zu hits=%llu misses=%llu\n",
               ctx.qp_cache().size(),
               static_cast<unsigned long long>(ctx.qp_cache().hits()),
               static_cast<unsigned long long>(ctx.qp_cache().misses()));
  const auto& ns = ctx.nic().stats();
  os << strfmt("  rnic: tx_pkts=%llu rx_pkts=%llu rnr_naks=%llu rnr_events=%llu "
               "retrans=%llu timeouts=%llu cnp_tx=%llu cnp_rx=%llu "
               "qp_errors=%llu\n",
               static_cast<unsigned long long>(ns.tx_packets),
               static_cast<unsigned long long>(ns.rx_packets),
               static_cast<unsigned long long>(ns.rnr_naks_sent),
               static_cast<unsigned long long>(ns.rnr_events),
               static_cast<unsigned long long>(ns.retransmitted_packets),
               static_cast<unsigned long long>(ns.timeouts),
               static_cast<unsigned long long>(ns.cnps_sent),
               static_cast<unsigned long long>(ns.cnps_received),
               static_cast<unsigned long long>(ns.qp_errors));
  return os.str();
}

std::string xr_stat_metrics(core::Context& ctx) {
  analysis::ContextMetrics metrics(ctx);
  return strfmt("node %u metrics:\n", ctx.node()) + metrics.registry().render();
}

namespace {
// JSON number formatting: integers stay integers, doubles get %.9g (which
// never produces NaN/Inf from the registry's counters and gauges).
std::string json_number(double v) {
  if (v == static_cast<double>(static_cast<long long>(v))) {
    return strfmt("%lld", static_cast<long long>(v));
  }
  return strfmt("%.9g", v);
}
}  // namespace

std::string xr_stat_json(core::Context& ctx) {
  std::ostringstream os;
  os << strfmt("{\"node\":%u,\"channels\":[", ctx.node());
  bool first = true;
  for (core::Channel* ch : ctx.channels()) {
    os << (first ? "" : ",")
       << strfmt("{\"peer\":%u,\"qp\":%u,\"state\":\"%s\","
                 "\"proto_version\":%u,\"proto_features\":%u,"
                 "\"peer_draining\":%s,\"inflight\":%zu,\"queued\":%zu",
                 ch->peer_node(), ch->qp_num(),
                 core::kChannelStateNames.name(ch->state()),
                 static_cast<unsigned>(ch->proto_version()),
                 static_cast<unsigned>(ch->proto_features()),
                 ctx.health().peer_draining(ch->peer_node()) ? "true"
                                                             : "false",
                 ch->inflight_msgs(), ch->queued_msgs());
    core::ChannelStats::for_each(
        ch->stats(), [&os](const char* name, std::uint64_t v) {
          os << strfmt(",\"%s\":%llu", name,
                       static_cast<unsigned long long>(v));
        });
    os << "}";
    first = false;
  }
  os << strfmt("],\"lifecycle\":\"%s\",\"metrics\":{",
               core::kLifecycleNames.name(ctx.lifecycle()));
  analysis::ContextMetrics metrics(ctx);
  const auto snap = metrics.registry().snapshot();
  first = true;
  for (const auto& [name, value] : snap.values) {
    os << (first ? "" : ",") << "\"" << name
       << "\":" << json_number(value);
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string xr_stat_trace(const analysis::SpanCollector& spans) {
  return strfmt("latency decomposition (%zu/%zu chains complete):\n",
                spans.complete_chains(), spans.size()) +
         spans.decomposition_report();
}

std::string xr_stat_fabric(const net::Fabric& fabric) {
  const auto s = fabric.stats();
  return strfmt(
      "fabric: drops=%llu ecn_marks=%llu pfc_pause_frames=%llu "
      "host_tx_pause=%s\n",
      static_cast<unsigned long long>(s.drops),
      static_cast<unsigned long long>(s.ecn_marks),
      static_cast<unsigned long long>(s.pause_frames),
      format_duration(s.host_tx_pause_time).c_str());
}

}  // namespace xrdma::tools
