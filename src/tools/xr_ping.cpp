#include "tools/xr_ping.hpp"

#include <cstdio>
#include <memory>
#include <set>
#include <sstream>

#include "analysis/metrics.hpp"
#include "common/logging.hpp"
#include "core/health.hpp"

namespace xrdma::tools {

int PingMatrix::unreachable_count() const {
  int c = 0;
  for (const auto& row : rtt) {
    for (const Nanos v : row) {
      if (v < 0) ++c;
    }
  }
  return c;
}

std::string PingMatrix::render() const {
  std::ostringstream os;
  os << "      ";
  for (int j = 0; j < n; ++j) os << strfmt("%8d", j);
  os << "\n";
  for (int i = 0; i < n; ++i) {
    os << strfmt("%4d  ", i);
    for (int j = 0; j < n; ++j) {
      const Nanos v = rtt[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      if (i == j) {
        os << strfmt("%8s", "-");
      } else if (v < 0) {
        os << strfmt("%8s", "FAIL");
      } else {
        os << strfmt("%7.1fu", to_micros(v));
      }
    }
    os << "\n";
  }
  return os.str();
}

namespace {
struct MeshState {
  PingMatrix matrix;
  int outstanding = 0;
  std::function<void(PingMatrix)> done;

  void finish_one() {
    if (--outstanding == 0 && done) done(std::move(matrix));
  }
};
}  // namespace

void xr_ping_mesh(std::vector<core::Context*> contexts, XrPingOptions opts,
                  std::function<void(PingMatrix)> done) {
  const int n = static_cast<int>(contexts.size());
  auto state = std::make_shared<MeshState>();
  state->matrix.n = n;
  state->matrix.rtt.assign(static_cast<std::size_t>(n),
                           std::vector<Nanos>(static_cast<std::size_t>(n), -1));
  state->done = std::move(done);
  state->outstanding = n * (n - 1);
  if (state->outstanding == 0) {
    state->done(std::move(state->matrix));
    return;
  }

  // Responders: echo ping requests.
  for (core::Context* ctx : contexts) {
    ctx->listen(opts.port, [](core::Channel& ch) {
      ch.set_on_msg([](core::Channel& c, core::Msg&& m) {
        if (m.is_rpc_req) c.reply(m.rpc_id, Buffer::make(8));
      });
    });
  }

  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) {
        state->matrix.rtt[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = 0;
        continue;
      }
      core::Context* src = contexts[static_cast<std::size_t>(i)];
      const net::NodeId dst = contexts[static_cast<std::size_t>(j)]->node();
      src->connect(dst, opts.port, [state, src, i, j, opts](
                                       Result<core::Channel*> r) {
        if (!r.ok()) {
          state->finish_one();
          return;
        }
        core::Channel* ch = r.value();
        const Nanos start = src->engine().now();
        ch->call(
            Buffer::make(8),
            [state, src, ch, i, j, start](Result<core::Msg> resp) {
              if (resp.ok()) {
                state->matrix.rtt[static_cast<std::size_t>(i)]
                                 [static_cast<std::size_t>(j)] =
                    src->engine().now() - start;
              }
              ch->close();
              state->finish_one();
            },
            opts.timeout);
      });
    }
  }
}

std::string xr_ping_health(analysis::ContextMetrics& metrics) {
  analysis::MetricsRegistry& reg = metrics.registry();
  // Discover the peer set from the registry's own namespace so the table
  // can be rendered from any snapshot, not just a live Context.
  std::set<unsigned> peers;
  for (const std::string& name : reg.names()) {
    unsigned peer = 0;
    if (std::sscanf(name.c_str(), "health.peer.%u.", &peer) == 1) {
      peers.insert(peer);
    }
  }
  std::ostringstream os;
  os << strfmt("node %u peer health:\n", metrics.context().node());
  os << strfmt("%-6s %-9s %8s %10s %11s %11s %6s %9s %5s\n", "peer", "state",
               "phi", "bound_us", "rtt_p50_us", "rtt_p99_us", "flaps",
               "holddown", "chans");
  for (const unsigned peer : peers) {
    const std::string p = strfmt("health.peer.%u.", peer);
    const auto state =
        static_cast<core::PeerState>(static_cast<int>(reg.value(p + "state")));
    os << strfmt("%-6u %-9s %8.2f %10.1f %11.1f %11.1f %6.0f %9.0f %5.0f\n",
                 peer, core::kPeerStateNames.name(state), reg.value(p + "phi"),
                 reg.value(p + "bound_us"), reg.value(p + "rtt_p50_us"),
                 reg.value(p + "rtt_p99_us"), reg.value(p + "flaps"),
                 reg.value(p + "holddown_level"), reg.value(p + "channels"));
  }
  os << strfmt("  peers=%.0f dead=%.0f draining=%.0f breakers_open=%.0f "
               "denied=%.0f flaps=%.0f\n",
               reg.value("health.peers"), reg.value("health.peers_dead"),
               reg.value("health.peers_draining"),
               reg.value("health.breakers_open"),
               reg.value("health.connects_denied"),
               reg.value("health.flaps"));
  return os.str();
}

}  // namespace xrdma::tools
