#include "verbs/cm.hpp"

namespace xrdma::verbs::cm {

namespace {
/// A failed connect abandons the client QP: a caller-supplied (cached) QP
/// goes back to RESET so it can be re-cached; a QP we created is destroyed.
void abandon_qp(rnic::Rnic& nic, bool reused, QpNum qpn) {
  if (qpn == rnic::kInvalidId) return;
  if (reused) {
    QpAttr attr;
    attr.state = QpState::reset;
    nic.modify_qp(qpn, attr);
  } else {
    nic.destroy_qp(qpn);
  }
}
}  // namespace

Listener::Listener(CmService& svc, rnic::Rnic& nic, std::uint16_t port,
                   std::function<AcceptSpec()> make_spec,
                   std::function<Buffer(const Buffer&)> make_private_data,
                   std::function<void(Established)> on_accept)
    : svc_(svc),
      nic_(nic),
      port_(port),
      make_spec_(std::move(make_spec)),
      make_private_data_(std::move(make_private_data)),
      on_accept_(std::move(on_accept)) {
  svc_.add_listener(this);
}

Listener::~Listener() { svc_.remove_listener(this); }

net::NodeId Listener::node() const { return nic_.node(); }

void CmService::add_listener(Listener* l) {
  listeners_[{l->node(), l->port()}] = l;
}

void CmService::remove_listener(Listener* l) {
  auto it = listeners_.find({l->node(), l->port()});
  if (it != listeners_.end() && it->second == l) listeners_.erase(it);
}

void CmService::connect(rnic::Rnic& nic, net::NodeId dst, std::uint16_t port,
                        ConnectOptions opts, ConnectCallback cb) {
  // Phase 1 (client): QP creation — skipped entirely when a cached QP is
  // supplied — followed by the RESET->INIT transition.
  const bool reusing = opts.reuse_qp.has_value();
  Nanos client_prep = costs_.modify_init + (reusing ? 0 : costs_.qp_create);

  auto shared = std::make_shared<ConnectOptions>(std::move(opts));
  engine_.schedule_after(client_prep, [this, &nic, dst, port, shared,
                                       cb = std::move(cb)]() mutable {
    QpNum client_qpn;
    if (shared->reuse_qp) {
      client_qpn = *shared->reuse_qp;
      if (nic.qp_state(client_qpn) != QpState::reset) {
        cb(Errc::invalid_argument);
        return;
      }
    } else {
      client_qpn = nic.create_qp(shared->send_cq, shared->recv_cq,
                                 shared->caps, shared->srq);
    }
    QpAttr init;
    init.state = QpState::init;
    nic.modify_qp(client_qpn, init);
    const bool reused = shared->reuse_qp.has_value();

    // Injected control-plane faults (Filter, §VI-C): a refused attempt
    // costs the REQ/REP round trip, an unanswered one the full timeout.
    if (fault_hook_) {
      if (auto injected = fault_hook_(nic.node(), dst, port)) {
        const Errc rc = *injected;
        const Nanos penalty = rc == Errc::timed_out ? costs_.connect_timeout
                                                    : 2 * costs_.msg_delay;
        engine_.schedule_after(penalty, [&nic, reused, client_qpn, rc,
                                         cb = std::move(cb)] {
          abandon_qp(nic, reused, client_qpn);
          cb(rc);
        });
        return;
      }
    }

    // Phase 2: REQ hop to the listener.
    engine_.schedule_after(costs_.msg_delay, [this, &nic, dst, port, shared,
                                              client_qpn, reused,
                                              cb = std::move(cb)]() mutable {
      auto it = listeners_.find({dst, port});
      if (it == listeners_.end()) {
        // REP(reject) hop back.
        engine_.schedule_after(costs_.msg_delay, [&nic, reused, client_qpn,
                                                  cb = std::move(cb)] {
          abandon_qp(nic, reused, client_qpn);
          cb(Errc::connection_refused);
        });
        return;
      }
      Listener* listener = it->second;
      if (!listener->nic_.alive()) {
        // The listener's host is down: the REQ goes unanswered and the
        // connect times out instead of being rejected.
        engine_.schedule_after(costs_.connect_timeout, [&nic, reused,
                                                        client_qpn,
                                                        cb = std::move(cb)] {
          abandon_qp(nic, reused, client_qpn);
          cb(Errc::timed_out);
        });
        return;
      }

      // Phase 3 (server): accept processing, QP setup to RTS.
      engine_.schedule_after(
          costs_.accept_cost,
          [this, &nic, shared, client_qpn, listener,
           cb = std::move(cb)]() mutable {
            if (listener->admission_gate_) {
              if (auto refused = listener->admission_gate_()) {
                // The listener declines (e.g. graceful drain): REP(reject)
                // hop back so the connector learns promptly instead of
                // holding a half-open QP toward a node that is leaving.
                const Errc rc = *refused;
                const bool reused = shared->reuse_qp.has_value();
                engine_.schedule_after(
                    costs_.msg_delay,
                    [&nic, reused, client_qpn, rc, cb = std::move(cb)] {
                      abandon_qp(nic, reused, client_qpn);
                      cb(rc);
                    });
                return;
              }
            }
            const AcceptSpec spec = listener->make_spec_();
            rnic::Rnic& snic = listener->nic_;
            QpNum server_qpn = rnic::kInvalidId;
            if (listener->qp_supplier_) {
              if (auto cached = listener->qp_supplier_();
                  cached && snic.qp_state(*cached) == QpState::reset) {
                server_qpn = *cached;
              }
            }
            if (server_qpn == rnic::kInvalidId) {
              server_qpn = snic.create_qp(spec.send_cq, spec.recv_cq,
                                          spec.caps, spec.srq);
            }
            QpAttr attr;
            attr.state = QpState::init;
            snic.modify_qp(server_qpn, attr);
            attr.state = QpState::rtr;
            attr.dest_node = nic.node();
            attr.dest_qp = client_qpn;
            attr.retry_count = spec.retry_count;
            attr.rnr_retry = spec.rnr_retry;
            snic.modify_qp(server_qpn, attr);
            attr.state = QpState::rts;
            snic.modify_qp(server_qpn, attr);

            Buffer rep_data = listener->make_private_data_
                                  ? listener->make_private_data_(shared->private_data)
                                  : Buffer{};

            // Server-side established notification fires once the client
            // has also reached RTS (post-RTU in real rdma_cm); we model it
            // at REP delivery time plus the client transitions.
            const Nanos client_finish =
                costs_.msg_delay + costs_.modify_rtr + costs_.modify_rts;
            engine_.schedule_after(
                client_finish,
                [this, &nic, shared, client_qpn, listener, server_qpn,
                 rep_data, cb = std::move(cb)]() mutable {
                  // Client transitions RTR -> RTS.
                  QpAttr cattr;
                  cattr.state = QpState::rtr;
                  cattr.dest_node = listener->nic_.node();
                  cattr.dest_qp = server_qpn;
                  cattr.retry_count = shared->retry_count;
                  cattr.rnr_retry = shared->rnr_retry;
                  nic.modify_qp(client_qpn, cattr);
                  cattr.state = QpState::rts;
                  nic.modify_qp(client_qpn, cattr);

                  Established server_side;
                  server_side.qp = Qp(&listener->nic_, server_qpn);
                  server_side.peer_node = nic.node();
                  server_side.private_data = shared->private_data;
                  listener->on_accept_(std::move(server_side));

                  Established client_side;
                  client_side.qp = Qp(&nic, client_qpn);
                  client_side.peer_node = listener->nic_.node();
                  client_side.private_data = rep_data;
                  cb(std::move(client_side));
                });
          });
    });
  });
}

}  // namespace xrdma::verbs::cm
