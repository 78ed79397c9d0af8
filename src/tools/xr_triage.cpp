#include "tools/xr_triage.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "core/context.hpp"

namespace xrdma::tools {

namespace {

using analysis::Rec;
using analysis::RecEvent;
using analysis::TrigReason;
using core::kChannelStateNames;
using core::kPeerStateNames;

const Rec* last_of(const std::vector<Rec>& recs, RecEvent type) {
  for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
    if (it->type == static_cast<std::uint16_t>(type)) return &*it;
  }
  return nullptr;
}

}  // namespace

std::string describe_record(const analysis::Dump& dump, const Rec& rec) {
  switch (static_cast<RecEvent>(rec.type)) {
    case RecEvent::chan_state:
      return strfmt("channel %u: %s -> %s%s", rec.chan,
                    kChannelStateNames.name(rec.a),
                    kChannelStateNames.name(rec.code),
                    rec.b ? strfmt(" (cause %s)", kErrcNames.name(rec.b))
                                .c_str()
                          : "");
    case RecEvent::recovery_start:
      return strfmt("channel %u: recovery started, fault=%s budget=%llu",
                    rec.chan, kErrcNames.name(rec.code),
                    static_cast<unsigned long long>(rec.a));
    case RecEvent::recovery_attempt:
      return strfmt("channel %u: resume attempt %llu", rec.chan,
                    static_cast<unsigned long long>(rec.a));
    case RecEvent::recovery_resumed:
      return strfmt("channel %u: recovered after %llu attempts in %s",
                    rec.chan, static_cast<unsigned long long>(rec.a),
                    format_duration(static_cast<Nanos>(rec.b)).c_str());
    case RecEvent::fallback_switch:
      return strfmt("channel %u: ladder exhausted, switching to TCP fallback",
                    rec.chan);
    case RecEvent::fallback_attach:
      return strfmt("channel %u: TCP fallback attached", rec.chan);
    case RecEvent::fallback_restore:
      return strfmt("channel %u: restored from TCP fallback to RDMA",
                    rec.chan);
    case RecEvent::breaker_fastfail:
      return strfmt("channel %u: retry skipped, breaker open", rec.chan);
    case RecEvent::health_grade:
      return strfmt("peer %u: health %s -> %s", rec.chan,
                    kPeerStateNames.name(rec.a),
                    kPeerStateNames.name(rec.code));
    case RecEvent::peer_dead:
      return strfmt("peer %u: DECLARED DEAD by channel %u", rec.chan,
                    rec.code);
    case RecEvent::breaker_open:
      return strfmt("peer %u: circuit breaker OPEN", rec.chan);
    case RecEvent::breaker_close:
      return strfmt("peer %u: circuit breaker closed%s", rec.chan,
                    rec.a ? " (restored from fallback)" : "");
    case RecEvent::flap:
      return strfmt("peer %u: flap #%llu (restore-then-fail)", rec.chan,
                    static_cast<unsigned long long>(rec.a));
    case RecEvent::holddown:
      return strfmt("peer %u: hold-down level %u for %s", rec.chan, rec.code,
                    format_duration(static_cast<Nanos>(rec.a)).c_str());
    case RecEvent::cm_connect:
      return strfmt("CM connect to peer %u: %s", rec.chan,
                    kErrcNames.name(rec.code));
    case RecEvent::cm_resume:
      return strfmt("CM resume to peer %u: %s (channel %llu)", rec.chan,
                    kErrcNames.name(rec.code),
                    static_cast<unsigned long long>(rec.a));
    case RecEvent::overload_shed:
      return strfmt("channel %u: send SHED under hard pressure (%llu bytes)",
                    rec.chan, static_cast<unsigned long long>(rec.a));
    case RecEvent::overload_would_block:
      return strfmt(
          "channel %u: send would_block (%llu bytes, %llu queued)", rec.chan,
          static_cast<unsigned long long>(rec.a),
          static_cast<unsigned long long>(rec.b));
    case RecEvent::overload_nak_tx:
      return strfmt("channel %u: NAK sent for seq %llu", rec.chan,
                    static_cast<unsigned long long>(rec.a));
    case RecEvent::overload_pull_defer:
      return strfmt("channel %u: rendezvous pull deferred, seq %llu",
                    rec.chan, static_cast<unsigned long long>(rec.a));
    case RecEvent::overload_mem_defer:
      return strfmt("channel %u: tx deferred on alloc failure (%llu queued)",
                    rec.chan, static_cast<unsigned long long>(rec.a));
    case RecEvent::pressure:
      return strfmt("memory pressure %s -> %s",
                    core::kMemPressureNames.name(rec.a),
                    core::kMemPressureNames.name(rec.code));
    case RecEvent::watchdog_trip:
      return strfmt("poll-gap watchdog TRIP: gap %s > threshold %s",
                    format_duration(static_cast<Nanos>(rec.a)).c_str(),
                    format_duration(static_cast<Nanos>(rec.b)).c_str());
    case RecEvent::msg_tx_sample:
      return strfmt("channel %u: tx sample seq %llu (%llu bytes)", rec.chan,
                    static_cast<unsigned long long>(rec.a),
                    static_cast<unsigned long long>(rec.b));
    case RecEvent::wr_sample:
      return strfmt("channel %u: wr completion sample kind=%s seq=%llu%s",
                    rec.chan, core::kWrKindNames.name(rec.code),
                    static_cast<unsigned long long>(rec.a),
                    rec.b ? strfmt(" STATUS %s", kErrcNames.name(rec.b)).c_str()
                          : "");
    case RecEvent::mem_grow:
      return strfmt("%s memcache: grew MR, occupied now %llu bytes",
                    rec.code ? "data" : "ctrl",
                    static_cast<unsigned long long>(rec.b));
    case RecEvent::mem_shrink:
      return strfmt("%s memcache: shrank MR, occupied now %llu bytes",
                    rec.code ? "data" : "ctrl",
                    static_cast<unsigned long long>(rec.b));
    case RecEvent::mem_denial:
      return strfmt("%s memcache: reserve DENIED %llu-byte alloc",
                    rec.code ? "data" : "ctrl",
                    static_cast<unsigned long long>(rec.b));
    case RecEvent::crc_fail_rx:
      return strfmt("channel %u: CRC MISMATCH on rx seq %llu (%llu payload "
                    "bytes) - frame dropped",
                    rec.chan, static_cast<unsigned long long>(rec.a),
                    static_cast<unsigned long long>(rec.b));
    case RecEvent::integrity_nak_tx:
      return strfmt("channel %u: integrity NAK sent, replay from seq %llu",
                    rec.chan, static_cast<unsigned long long>(rec.a));
    case RecEvent::integrity_nak_rx:
      return strfmt("channel %u: integrity NAK received for seq %llu",
                    rec.chan, static_cast<unsigned long long>(rec.a));
    case RecEvent::integrity_retransmit:
      return strfmt("channel %u: seq %llu re-sent on integrity NAK (retry "
                    "%u)",
                    rec.chan, static_cast<unsigned long long>(rec.a),
                    rec.code);
    case RecEvent::integrity_exhausted:
      return strfmt("channel %u: integrity retry budget (%u) EXHAUSTED at "
                    "seq %llu - surfacing integrity_error",
                    rec.chan, rec.code,
                    static_cast<unsigned long long>(rec.a));
    case RecEvent::corruption_storm:
      return strfmt("peer %u: CORRUPTION STORM - %llu CRC failures in one "
                    "health scan, grading degraded",
                    rec.chan, static_cast<unsigned long long>(rec.a));
    case RecEvent::trigger:
      return strfmt("** DUMP TRIGGER: %s **",
                    analysis::kTrigReasonNames.name(rec.code));
    case RecEvent::lifecycle_state:
      return strfmt("node lifecycle %s -> %s",
                    core::kLifecycleNames.name(rec.a),
                    core::kLifecycleNames.name(rec.code));
    case RecEvent::drain_rx:
      return strfmt("peer %u: announced DRAIN on channel %llu, retry after %s",
                    rec.chan, static_cast<unsigned long long>(rec.b),
                    format_duration(static_cast<Nanos>(rec.a)).c_str());
    case RecEvent::hdr_version_reject:
      return strfmt("channel %u: header REFUSED (%s, %llu bytes)", rec.chan,
                    core::kHdrDecodeNames.name(rec.code),
                    static_cast<unsigned long long>(rec.a));
    case RecEvent::proto_negotiated: {
      // b packs the peer's version range: min in bits 0-15, max in 16-31.
      const std::string range =
          strfmt("peer speaks v%llu..v%llu",
                 static_cast<unsigned long long>(rec.b & 0xffff),
                 static_cast<unsigned long long>((rec.b >> 16) & 0xffff));
      if (rec.code == 0) {
        return strfmt("peer %u: NO common wire version (%s)", rec.chan,
                      range.c_str());
      }
      return strfmt("peer %u: negotiated wire v%u, features 0x%llx (%s)",
                    rec.chan, rec.code, static_cast<unsigned long long>(rec.a),
                    range.c_str());
    }
    default:
      // Foreign event: fall back to the file's own name table.
      return strfmt("%s code=%u chan=%u a=%llu b=%llu",
                    dump.event_name(rec.type).c_str(), rec.code, rec.chan,
                    static_cast<unsigned long long>(rec.a),
                    static_cast<unsigned long long>(rec.b));
  }
}

TriageReport xr_triage(const analysis::Dump& dump,
                       const TriageOptions& opts) {
  TriageReport report;
  const std::vector<Rec>& recs = dump.records;

  // --- Verdict: the trigger record names the reason; walk back from it to
  // the causal event. ---
  const Rec* trig = last_of(recs, RecEvent::trigger);
  if (!trig) {
    report.verdict = strfmt("no trigger recorded (dump reason: %s)",
                            dump.reason.empty() ? "?" : dump.reason.c_str());
  } else {
    const auto reason = static_cast<TrigReason>(trig->code);
    switch (reason) {
      case TrigReason::channel_death: {
        const Rec* death = nullptr;
        for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
          if (it->type == static_cast<std::uint16_t>(RecEvent::chan_state) &&
              it->code == 4 /* error */) {
            death = &*it;
            break;
          }
        }
        report.verdict =
            death ? strfmt("channel %u died at %s: %s -> ERROR, cause %s",
                           death->chan,
                           format_duration(death->t).c_str(),
                           kChannelStateNames.name(death->a),
                           kErrcNames.name(death->b))
                  : "channel death trigger without a recorded transition";
        break;
      }
      case TrigReason::peer_dead: {
        const Rec* dead = last_of(recs, RecEvent::peer_dead);
        report.verdict =
            dead ? strfmt("peer %u declared dead at %s (reported by "
                          "channel %u)",
                          dead->chan, format_duration(dead->t).c_str(),
                          dead->code)
                 : "peer-dead trigger without a recorded declaration";
        break;
      }
      case TrigReason::watchdog: {
        const Rec* trip = last_of(recs, RecEvent::watchdog_trip);
        report.verdict =
            trip ? strfmt("poll-gap watchdog tripped at %s: gap %s exceeded "
                          "threshold %s",
                          format_duration(trip->t).c_str(),
                          format_duration(static_cast<Nanos>(trip->a))
                              .c_str(),
                          format_duration(static_cast<Nanos>(trip->b))
                              .c_str())
                 : "watchdog trigger without a recorded trip";
        break;
      }
      case TrigReason::oracle_failure:
        report.verdict = strfmt(
            "X-Check oracle failure at %s (reason: %s); inspect the tail "
            "of the timeline",
            format_duration(trig->t).c_str(), dump.reason.c_str());
        break;
      case TrigReason::manual:
        report.verdict = strfmt("manual dump at %s; no fault trigger",
                                format_duration(trig->t).c_str());
        break;
    }
  }

  // --- Timeline. ---
  std::size_t begin = 0;
  if (opts.tail > 0 && recs.size() > opts.tail) {
    begin = recs.size() - opts.tail;
  }
  for (std::size_t i = begin; i < recs.size(); ++i) {
    report.timeline += strfmt("[%12s] %s\n",
                              format_duration(recs[i].t).c_str(),
                              describe_record(dump, recs[i]).c_str());
  }

  // --- Trace-span correlation: chains posted inside the window. ---
  if (opts.spans && !recs.empty()) {
    const Nanos window_start = recs[begin].t;
    const Nanos window_end = dump.dumped_at;
    std::size_t listed = 0, matched = 0;
    for (const analysis::SpanChain& c : opts.spans->chains()) {
      if (!c.has_post || c.t_post < window_start || c.t_post > window_end) {
        continue;
      }
      ++matched;
      if (listed < 16) {
        report.spans += strfmt(
            "trace %016llx node %u -> %u %uB %s posted [%12s]%s\n",
            static_cast<unsigned long long>(c.trace_id), c.src, c.dst,
            c.req_bytes, c.is_rpc ? "rpc" : "msg",
            format_duration(c.t_post).c_str(),
            c.complete() ? "" : "  ** INCOMPLETE **");
        ++listed;
      }
    }
    if (matched > listed) {
      report.spans += strfmt("... and %zu more chains in the window\n",
                             matched - listed);
    }
  }

  // --- Metrics snapshot (non-zero scalars only). ---
  if (opts.show_metrics) {
    for (const auto& [name, value] : dump.metrics) {
      if (value == 0) continue;
      report.metrics += strfmt("%-36s %.6g\n", name.c_str(), value);
    }
  }
  return report;
}

std::string TriageReport::render() const {
  std::string out = strfmt("verdict: %s\n", verdict.c_str());
  out += "== timeline ==\n";
  out += timeline;
  if (!spans.empty()) {
    out += "== in-flight traces ==\n";
    out += spans;
  }
  if (!metrics.empty()) {
    out += "== metrics at dump ==\n";
    out += metrics;
  }
  return out;
}

Result<TriageReport> xr_triage_file(const std::string& path,
                                    const TriageOptions& opts) {
  analysis::Dump dump;
  if (!analysis::decode_xrd_file(path, dump)) return Errc::bad_message;
  return xr_triage(dump, opts);
}

}  // namespace xrdma::tools
