// Error codes shared across the stack, plus a tiny Result<T>.
//
// The verbs layer mirrors ibverbs' work-completion status values where a
// direct analogue exists (RNR, remote access, retry exceeded, ...), and the
// middleware layers reuse the same enum so errors propagate without
// translation tables.
#pragma once

#include <cassert>
#include <string_view>
#include <utility>
#include <variant>

#include "common/enum_names.hpp"

namespace xrdma {

#define XRDMA_ERRCS(X)                                                        \
  X(ok, "ok")                                                                 \
  /* Generic. */                                                              \
  X(invalid_argument, "invalid_argument")                                     \
  X(not_found, "not_found")                                                   \
  X(already_exists, "already_exists")                                         \
  X(resource_exhausted, "resource_exhausted")                                 \
  X(unavailable, "unavailable")                                               \
  X(timed_out, "timed_out")                                                   \
  X(cancelled, "cancelled")                                                   \
  X(internal, "internal")                                                     \
  /* Verbs / RNIC analogues of ibv_wc_status (IBV_WC_*). */                   \
  X(local_length_error, "local_length_error")         /* LOC_LEN_ERR */       \
  X(local_protection_error, "local_protection_error") /* LOC_PROT_ERR */      \
  X(wr_flush_error, "wr_flush_error")                 /* WR_FLUSH_ERR */      \
  X(remote_access_error, "remote_access_error")       /* REM_ACCESS_ERR */    \
  X(remote_invalid_request, "remote_invalid_request") /* REM_INV_REQ_ERR */   \
  X(rnr_retry_exceeded, "rnr_retry_exceeded")         /* RNR_RETRY_EXC_ERR */ \
  X(transport_retry_exceeded, "transport_retry_exceeded") /* RETRY_EXC_ERR */ \
  X(remote_operation_error, "remote_operation_error") /* REM_OP_ERR */        \
  /* Connection management. */                                                \
  X(connection_refused, "connection_refused")                                 \
  X(connection_reset, "connection_reset")                                     \
  X(peer_dead, "peer_dead") /* raised by keepalive */                         \
  /* Middleware. */                                                           \
  X(window_full, "window_full") /* seq-ack window has no free slot */         \
  X(channel_closed, "channel_closed")                                         \
  X(payload_too_large, "payload_too_large")                                   \
  X(bad_message, "bad_message") /* framing / header validation failed */      \
  X(would_block, "would_block") /* tx queue full; wait for on_writable */     \
  X(overloaded, "overloaded") /* server shed the request; back off, retry */  \
  X(integrity_error, "integrity_error") /* e2e CRC retries exhausted */

enum class Errc { XRDMA_ERRCS(XRDMA_ENUM_ID) };

inline constexpr auto kErrcNames =
    enum_names<Errc>({XRDMA_ERRCS(XRDMA_ENUM_NAME)});

inline std::string_view errc_name(Errc e) { return kErrcNames.name(e); }

/// Minimal expected-like result carrier. Success stores T, failure an Errc.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Errc e) : v_(e) { assert(e != Errc::ok); }

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  Errc error() const { return ok() ? Errc::ok : std::get<Errc>(v_); }

  T& value() & {
    assert(ok());
    return std::get<T>(v_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(v_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(v_));
  }

  T value_or(T fallback) const {
    return ok() ? std::get<T>(v_) : std::move(fallback);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Errc> v_;
};

}  // namespace xrdma
