#include "core/config.hpp"

#include <algorithm>
#include <iterator>
#include <string_view>
#include <type_traits>

namespace xrdma::core {

namespace {
// One row per Table III key: the Config member behind it, read and written
// in the key's unit (`scale` ns per unit for the _ms/_us keys, 1 for raw
// values). Offline keys are recognized (so callers get a precise error)
// but set_flag refuses them.
struct Param {
  std::string_view key;
  bool online;
  std::int64_t (*get)(const Config&);
  void (*set)(Config&, std::int64_t);
};

template <auto member, std::int64_t scale = 1>
constexpr Param param(std::string_view key, bool online) {
  using T = std::remove_cvref_t<decltype(Config{}.*member)>;
  return {key, online,
          [](const Config& c) {
            return static_cast<std::int64_t>(c.*member) / scale;
          },
          [](Config& c, std::int64_t v) {
            c.*member = static_cast<T>(v * scale);
          }};
}

constexpr bool kOn = true, kOff = false;
constexpr std::int64_t kMs = kNanosPerMilli, kUs = kNanosPerMicro;

// Sorted by key (checked below) for the binary search in find().
constexpr Param kParams[] = {
    param<&Config::cq_size>("cq_size", kOff),
    param<&Config::ctx_tx_max_bytes>("ctx_tx_max_bytes", kOn),
    param<&Config::e2e_crc>("e2e_crc", kOn),
    param<&Config::fallback_auto>("fallback_auto", kOn),
    param<&Config::flowctl>("flowctl", kOn),
    param<&Config::fork_safe>("fork_safe", kOff),
    param<&Config::frag_size>("frag_size", kOn),
    param<&Config::health_adaptive>("health_adaptive", kOn),
    param<&Config::health_breaker>("health_breaker", kOn),
    param<&Config::health_halfopen_probes>("health_halfopen_probes", kOn),
    param<&Config::ibqp_alloc_type>("ibqp_alloc_type", kOff),
    param<&Config::inline_max>("inline_max", kOn),
    param<&Config::integrity_retry_max>("integrity_retry_max", kOn),
    param<&Config::keepalive_intv, kMs>("keepalive_intv_ms", kOn),
    param<&Config::keepalive_timeout, kMs>("keepalive_timeout_ms", kOn),
    param<&Config::lifecycle_drain>("lifecycle_drain", kOn),
    param<&Config::lifecycle_drain_timeout, kMs>("lifecycle_drain_timeout_ms",
                                                 kOn),
    param<&Config::lifecycle_retry_after, kMs>("lifecycle_retry_after_ms", kOn),
    param<&Config::max_outstanding_wrs>("max_outstanding_wrs", kOn),
    param<&Config::mem_hard_pct>("mem_hard_pct", kOn),
    param<&Config::mem_soft_pct>("mem_soft_pct", kOn),
    param<&Config::memcache_ctrl_reserve>("memcache_ctrl_reserve", kOff),
    param<&Config::memcache_max_mrs>("memcache_max_mrs", kOff),
    param<&Config::polling_warn_cycle, kUs>("polling_warn_cycle_us", kOn),
    param<&Config::proto_features>("proto_features", kOff),
    param<&Config::proto_version_max>("proto_version_max", kOff),
    param<&Config::proto_version_min>("proto_version_min", kOff),
    param<&Config::recorder_enabled>("recorder_enabled", kOn),
    param<&Config::recorder_sample_mask>("recorder_sample_mask", kOn),
    param<&Config::recovery_backoff, kUs>("recovery_backoff_us", kOn),
    param<&Config::recovery_max_attempts>("recovery_max_attempts", kOn),
    param<&Config::reqrsp_mode>("reqrsp_mode", kOn),
    param<&Config::slow_threshold, kUs>("slow_threshold_us", kOn),
    param<&Config::small_msg_size>("small_msg_size", kOff),
    param<&Config::srq_size>("srq_size", kOff),
    param<&Config::trace_sample_mask>("trace_sample_mask", kOn),
    param<&Config::tx_queue_max_bytes>("tx_queue_max_bytes", kOn),
    param<&Config::tx_queue_max_msgs>("tx_queue_max_msgs", kOn),
    param<&Config::use_srq>("use_srq", kOff),
    param<&Config::window_depth>("window_depth", kOff),
};
static_assert(std::ranges::is_sorted(kParams, {}, &Param::key));

const Param* find(std::string_view key) {
  const auto* it = std::ranges::lower_bound(kParams, key, {}, &Param::key);
  return it != std::end(kParams) && it->key == key ? it : nullptr;
}
}  // namespace

ConfigRegistry::ConfigRegistry(Config& config) : config_(config) {}

Errc ConfigRegistry::set_flag(const std::string& name, std::int64_t value) {
  const Param* p = find(name);
  if (!p) return Errc::not_found;
  if (!p->online) return Errc::invalid_argument;
  p->set(config_, value);
  return Errc::ok;
}

Result<std::int64_t> ConfigRegistry::get_flag(const std::string& name) const {
  if (const Param* p = find(name)) return p->get(config_);
  return Errc::not_found;
}

std::map<std::string, std::int64_t> ConfigRegistry::snapshot() const {
  std::map<std::string, std::int64_t> out;
  for (const Param& p : kParams) out[std::string(p.key)] = p.get(config_);
  return out;
}

}  // namespace xrdma::core
