#include "core/config.hpp"

namespace xrdma::core {

namespace {
struct OnlineParam {
  std::function<std::int64_t(const Config&)> get;
  std::function<void(Config&, std::int64_t)> set;
};

const std::map<std::string, OnlineParam>& online_params() {
  static const std::map<std::string, OnlineParam> params = {
      {"keepalive_intv_ms",
       {[](const Config& c) { return c.keepalive_intv / kNanosPerMilli; },
        [](Config& c, std::int64_t v) { c.keepalive_intv = millis(v); }}},
      {"keepalive_timeout_ms",
       {[](const Config& c) { return c.keepalive_timeout / kNanosPerMilli; },
        [](Config& c, std::int64_t v) { c.keepalive_timeout = millis(v); }}},
      {"slow_threshold_us",
       {[](const Config& c) { return c.slow_threshold / kNanosPerMicro; },
        [](Config& c, std::int64_t v) { c.slow_threshold = micros(v); }}},
      {"polling_warn_cycle_us",
       {[](const Config& c) { return c.polling_warn_cycle / kNanosPerMicro; },
        [](Config& c, std::int64_t v) { c.polling_warn_cycle = micros(v); }}},
      {"trace_sample_mask",
       {[](const Config& c) { return std::int64_t{c.trace_sample_mask}; },
        [](Config& c, std::int64_t v) {
          c.trace_sample_mask = static_cast<std::uint32_t>(v);
        }}},
      {"reqrsp_mode",
       {[](const Config& c) { return std::int64_t{c.reqrsp_mode}; },
        [](Config& c, std::int64_t v) { c.reqrsp_mode = v != 0; }}},
      {"flowctl",
       {[](const Config& c) { return std::int64_t{c.flowctl}; },
        [](Config& c, std::int64_t v) { c.flowctl = v != 0; }}},
      {"frag_size",
       {[](const Config& c) { return std::int64_t{c.frag_size}; },
        [](Config& c, std::int64_t v) {
          c.frag_size = static_cast<std::uint32_t>(v);
        }}},
      {"max_outstanding_wrs",
       {[](const Config& c) { return std::int64_t{c.max_outstanding_wrs}; },
        [](Config& c, std::int64_t v) {
          c.max_outstanding_wrs = static_cast<std::uint32_t>(v);
        }}},
      {"recovery_max_attempts",
       {[](const Config& c) { return std::int64_t{c.recovery_max_attempts}; },
        [](Config& c, std::int64_t v) {
          c.recovery_max_attempts = static_cast<std::uint32_t>(v);
        }}},
      {"recovery_backoff_us",
       {[](const Config& c) { return c.recovery_backoff / kNanosPerMicro; },
        [](Config& c, std::int64_t v) { c.recovery_backoff = micros(v); }}},
      {"fallback_auto",
       {[](const Config& c) { return std::int64_t{c.fallback_auto}; },
        [](Config& c, std::int64_t v) { c.fallback_auto = v != 0; }}},
      {"tx_queue_max_msgs",
       {[](const Config& c) { return std::int64_t{c.tx_queue_max_msgs}; },
        [](Config& c, std::int64_t v) {
          c.tx_queue_max_msgs = static_cast<std::uint32_t>(v);
        }}},
      {"tx_queue_max_bytes",
       {[](const Config& c) {
          return static_cast<std::int64_t>(c.tx_queue_max_bytes);
        },
        [](Config& c, std::int64_t v) {
          c.tx_queue_max_bytes = static_cast<std::uint64_t>(v);
        }}},
      {"ctx_tx_max_bytes",
       {[](const Config& c) {
          return static_cast<std::int64_t>(c.ctx_tx_max_bytes);
        },
        [](Config& c, std::int64_t v) {
          c.ctx_tx_max_bytes = static_cast<std::uint64_t>(v);
        }}},
      {"tx_writable_pct",
       {[](const Config& c) { return std::int64_t{c.tx_writable_pct}; },
        [](Config& c, std::int64_t v) {
          c.tx_writable_pct = static_cast<std::uint32_t>(v);
        }}},
      {"mem_soft_pct",
       {[](const Config& c) { return std::int64_t{c.mem_soft_pct}; },
        [](Config& c, std::int64_t v) {
          c.mem_soft_pct = static_cast<std::uint32_t>(v);
        }}},
      {"mem_hard_pct",
       {[](const Config& c) { return std::int64_t{c.mem_hard_pct}; },
        [](Config& c, std::int64_t v) {
          c.mem_hard_pct = static_cast<std::uint32_t>(v);
        }}},
      {"mem_retry_interval_us",
       {[](const Config& c) { return c.mem_retry_interval / kNanosPerMicro; },
        [](Config& c, std::int64_t v) { c.mem_retry_interval = micros(v); }}},
      {"memcache_idle_shrink_ms",
       {[](const Config& c) { return c.memcache_idle_shrink / kNanosPerMilli; },
        [](Config& c, std::int64_t v) { c.memcache_idle_shrink = millis(v); }}},
      {"health_adaptive",
       {[](const Config& c) { return std::int64_t{c.health_adaptive}; },
        [](Config& c, std::int64_t v) { c.health_adaptive = v != 0; }}},
      {"health_phi_suspect",
       {[](const Config& c) { return std::int64_t{c.health_phi_suspect}; },
        [](Config& c, std::int64_t v) {
          c.health_phi_suspect = static_cast<std::uint32_t>(v);
        }}},
      {"health_phi_dead",
       {[](const Config& c) { return std::int64_t{c.health_phi_dead}; },
        [](Config& c, std::int64_t v) {
          c.health_phi_dead = static_cast<std::uint32_t>(v);
        }}},
      {"health_min_samples",
       {[](const Config& c) { return std::int64_t{c.health_min_samples}; },
        [](Config& c, std::int64_t v) {
          c.health_min_samples = static_cast<std::uint32_t>(v);
        }}},
      {"health_breaker",
       {[](const Config& c) { return std::int64_t{c.health_breaker}; },
        [](Config& c, std::int64_t v) { c.health_breaker = v != 0; }}},
      {"health_halfopen_probes",
       {[](const Config& c) { return std::int64_t{c.health_halfopen_probes}; },
        [](Config& c, std::int64_t v) {
          c.health_halfopen_probes = static_cast<std::uint32_t>(v);
        }}},
      {"health_flap_window_ms",
       {[](const Config& c) { return c.health_flap_window / kNanosPerMilli; },
        [](Config& c, std::int64_t v) { c.health_flap_window = millis(v); }}},
      {"health_holddown_base_ms",
       {[](const Config& c) { return c.health_holddown_base / kNanosPerMilli; },
        [](Config& c, std::int64_t v) { c.health_holddown_base = millis(v); }}},
      {"health_holddown_max_ms",
       {[](const Config& c) { return c.health_holddown_max / kNanosPerMilli; },
        [](Config& c, std::int64_t v) { c.health_holddown_max = millis(v); }}},
      {"health_degraded_rtt_x",
       {[](const Config& c) { return std::int64_t{c.health_degraded_rtt_x}; },
        [](Config& c, std::int64_t v) {
          c.health_degraded_rtt_x = static_cast<std::uint32_t>(v);
        }}},
      {"health_retx_degraded",
       {[](const Config& c) { return std::int64_t{c.health_retx_degraded}; },
        [](Config& c, std::int64_t v) {
          c.health_retx_degraded = static_cast<std::uint32_t>(v);
        }}},
      {"health_crc_degraded",
       {[](const Config& c) { return std::int64_t{c.health_crc_degraded}; },
        [](Config& c, std::int64_t v) {
          c.health_crc_degraded = static_cast<std::uint32_t>(v);
        }}},
      {"e2e_crc",
       {[](const Config& c) { return std::int64_t{c.e2e_crc}; },
        [](Config& c, std::int64_t v) { c.e2e_crc = v != 0; }}},
      {"integrity_retry_max",
       {[](const Config& c) { return std::int64_t{c.integrity_retry_max}; },
        [](Config& c, std::int64_t v) {
          c.integrity_retry_max = static_cast<std::uint32_t>(v);
        }}},
      {"lifecycle_drain",
       {[](const Config& c) { return std::int64_t{c.lifecycle_drain}; },
        [](Config& c, std::int64_t v) { c.lifecycle_drain = v != 0; }}},
      {"lifecycle_drain_timeout_ms",
       {[](const Config& c) {
          return c.lifecycle_drain_timeout / kNanosPerMilli;
        },
        [](Config& c, std::int64_t v) {
          c.lifecycle_drain_timeout = millis(v);
        }}},
      {"lifecycle_retry_after_ms",
       {[](const Config& c) { return c.lifecycle_retry_after / kNanosPerMilli; },
        [](Config& c, std::int64_t v) { c.lifecycle_retry_after = millis(v); }}},
      {"recorder_enabled",
       {[](const Config& c) { return std::int64_t{c.recorder_enabled}; },
        [](Config& c, std::int64_t v) { c.recorder_enabled = v != 0; }}},
      {"recorder_sample_mask",
       {[](const Config& c) { return std::int64_t{c.recorder_sample_mask}; },
        [](Config& c, std::int64_t v) {
          c.recorder_sample_mask = static_cast<std::uint32_t>(v);
        }}},
      {"inline_max",
       {[](const Config& c) { return std::int64_t{c.inline_max}; },
        [](Config& c, std::int64_t v) {
          c.inline_max = static_cast<std::uint32_t>(v);
        }}},
  };
  return params;
}

// Offline keys are recognized (so callers get a precise error) but refused.
const std::map<std::string, std::function<std::int64_t(const Config&)>>&
offline_params() {
  static const std::map<std::string, std::function<std::int64_t(const Config&)>>
      params = {
          {"use_srq", [](const Config& c) { return std::int64_t{c.use_srq}; }},
          {"cq_size", [](const Config& c) { return std::int64_t{c.cq_size}; }},
          {"srq_size", [](const Config& c) { return std::int64_t{c.srq_size}; }},
          {"fork_safe",
           [](const Config& c) { return std::int64_t{c.fork_safe}; }},
          {"ibqp_alloc_type",
           [](const Config& c) {
             return static_cast<std::int64_t>(c.ibqp_alloc_type);
           }},
          {"small_msg_size",
           [](const Config& c) { return std::int64_t{c.small_msg_size}; }},
          {"window_depth",
           [](const Config& c) { return std::int64_t{c.window_depth}; }},
          {"memcache_max_mrs",
           [](const Config& c) {
             return static_cast<std::int64_t>(c.memcache_max_mrs);
           }},
          {"memcache_ctrl_reserve",
           [](const Config& c) {
             return static_cast<std::int64_t>(c.memcache_ctrl_reserve);
           }},
          {"recorder_capacity",
           [](const Config& c) {
             return static_cast<std::int64_t>(c.recorder_capacity);
           }},
          {"proto_version_min",
           [](const Config& c) { return std::int64_t{c.proto_version_min}; }},
          {"proto_version_max",
           [](const Config& c) { return std::int64_t{c.proto_version_max}; }},
          {"proto_features",
           [](const Config& c) { return std::int64_t{c.proto_features}; }},
      };
  return params;
}
}  // namespace

ConfigRegistry::ConfigRegistry(Config& config) : config_(config) {}

Errc ConfigRegistry::set_flag(const std::string& name, std::int64_t value) {
  auto it = online_params().find(name);
  if (it != online_params().end()) {
    it->second.set(config_, value);
    return Errc::ok;
  }
  if (offline_params().count(name)) return Errc::invalid_argument;
  return Errc::not_found;
}

Result<std::int64_t> ConfigRegistry::get_flag(const std::string& name) const {
  if (auto it = online_params().find(name); it != online_params().end()) {
    return it->second.get(config_);
  }
  if (auto it = offline_params().find(name); it != offline_params().end()) {
    return it->second(config_);
  }
  return Errc::not_found;
}

std::map<std::string, std::int64_t> ConfigRegistry::snapshot() const {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, param] : online_params()) {
    out[name] = param.get(config_);
  }
  for (const auto& [name, get] : offline_params()) {
    out[name] = get(config_);
  }
  return out;
}

}  // namespace xrdma::core
