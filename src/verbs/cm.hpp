// rdma_cm-style connection management with an explicit control-plane cost
// model.
//
// The paper (§III issue 3, §VII-C) measures RDMA connection establishment
// at 3946 us — dominated by QP creation and the RESET->INIT->RTR->RTS
// transitions — versus ~100 us for TCP, and shows the QP cache cutting it
// to 2451 us by skipping creation. Those costs live here as CmCosts; the
// data plane is untouched by them.
//
// CM messages travel out-of-band (production bootstraps connections over a
// management network), modelled as fixed msg_delay hops.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "sim/engine.hpp"
#include "verbs/verbs.hpp"

namespace xrdma::verbs::cm {

struct CmCosts {
  Nanos qp_create = micros(1495);   // saved entirely by the QP cache
  Nanos modify_init = micros(300);
  Nanos modify_rtr = micros(1200);
  Nanos modify_rts = micros(701);
  Nanos accept_cost = micros(200);  // server-side processing
  Nanos msg_delay = micros(25);     // REQ / REP out-of-band hop
  Nanos connect_timeout = millis(5);  // REQ unanswered (peer host down)

  Nanos total_with_create() const {
    return qp_create + modify_init + modify_rtr + modify_rts + accept_cost +
           2 * msg_delay;
  }
  Nanos total_reused() const { return total_with_create() - qp_create; }
};

/// A connected endpoint as produced by CM: an RTS queue pair plus the
/// peer's handshake payload.
struct Established {
  Qp qp;
  net::NodeId peer_node = net::kInvalidNode;
  Buffer private_data;  // what the peer sent in REQ/REP
};

using ConnectCallback = std::function<void(Result<Established>)>;

/// Server-side resource recipe: how to build the QP for an incoming
/// connection, and the private data to return in the REP.
struct AcceptSpec {
  CqId send_cq = rnic::kInvalidId;
  CqId recv_cq = rnic::kInvalidId;
  QpCaps caps;
  SrqId srq = rnic::kInvalidId;
  std::uint8_t retry_count = 7;
  std::uint8_t rnr_retry = 3;
};

class CmService;

class Listener {
 public:
  /// `on_accept` fires for each established server-side connection.
  /// `make_spec` is consulted per connection (may vary CQs across them);
  /// `make_private_data` supplies the REP payload given the REQ payload.
  Listener(CmService& svc, rnic::Rnic& nic, std::uint16_t port,
           std::function<AcceptSpec()> make_spec,
           std::function<Buffer(const Buffer& req)> make_private_data,
           std::function<void(Established)> on_accept);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  net::NodeId node() const;
  std::uint16_t port() const { return port_; }
  /// Optionally supply cached (RESET) QPs for accepts, mirroring the
  /// client-side reuse path.
  void set_qp_supplier(std::function<std::optional<QpNum>()> supplier) {
    qp_supplier_ = std::move(supplier);
  }
  /// Optional admission gate, consulted when accept processing starts.
  /// Returning an error refuses the connection with a prompt REP(reject)
  /// carrying that code — the lifecycle plane uses this so a draining
  /// node bounces new channels at the CM instead of accepting a QP it is
  /// about to tear down.
  void set_admission_gate(std::function<std::optional<Errc>()> gate) {
    admission_gate_ = std::move(gate);
  }

 private:
  friend class CmService;
  CmService& svc_;
  rnic::Rnic& nic_;
  std::uint16_t port_;
  std::function<AcceptSpec()> make_spec_;
  std::function<Buffer(const Buffer&)> make_private_data_;
  std::function<void(Established)> on_accept_;
  std::function<std::optional<QpNum>()> qp_supplier_;
  std::function<std::optional<Errc>()> admission_gate_;
};

struct ConnectOptions {
  CqId send_cq = rnic::kInvalidId;
  CqId recv_cq = rnic::kInvalidId;
  QpCaps caps;
  SrqId srq = rnic::kInvalidId;
  std::uint8_t retry_count = 7;
  std::uint8_t rnr_retry = 3;
  Buffer private_data;
  /// A cached QP in RESET state to reuse instead of creating one — the
  /// QP-cache fast path. Must belong to the connecting RNIC. On a failed
  /// connect a reused QP is returned to RESET (never destroyed), so the
  /// caller can put it back into its cache.
  std::optional<QpNum> reuse_qp;
};

/// The out-of-band CM "network": one per simulation, created by the
/// testbed. Tracks listeners across all hosts.
class CmService {
 public:
  explicit CmService(sim::Engine& engine, CmCosts costs = {})
      : engine_(engine), costs_(costs) {}

  const CmCosts& costs() const { return costs_; }
  sim::Engine& engine() { return engine_; }

  void connect(rnic::Rnic& nic, net::NodeId dst, std::uint16_t port,
               ConnectOptions opts, ConnectCallback cb);

  /// Fault injection (Filter, §VI-C): consulted per connect attempt.
  /// Returning an error fails the attempt — Errc::timed_out models an
  /// unanswered REQ (charged connect_timeout); anything else is a prompt
  /// REP(reject).
  using FaultHook = std::function<std::optional<Errc>(
      net::NodeId src, net::NodeId dst, std::uint16_t port)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

 private:
  friend class Listener;
  void add_listener(Listener* l);
  void remove_listener(Listener* l);

  sim::Engine& engine_;
  CmCosts costs_;
  std::map<std::pair<net::NodeId, std::uint16_t>, Listener*> listeners_;
  FaultHook fault_hook_;
};

}  // namespace xrdma::verbs::cm
