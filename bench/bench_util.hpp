// Shared fixtures for the figure/table benches.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "testbed/cluster.hpp"
#include "tools/xr_perf.hpp"

namespace xrdma::bench {

/// Two connected X-RDMA contexts on a two-host rack, busy-polling from
/// before the handshake (a context that starts polling late misses its
/// keepalives and runs a spurious recovery).
struct XrPair {
  testbed::Cluster cluster;
  core::Context server;
  core::Context client;
  core::Channel* client_ch = nullptr;
  core::Channel* server_ch = nullptr;

  explicit XrPair(core::Config cfg = {}, testbed::ClusterConfig ccfg = {})
      : cluster(ccfg),
        server(cluster.rnic(1), cluster.cm(), busy(cfg)),
        client(cluster.rnic(0), cluster.cm(), busy(cfg)) {
    server.start_polling_loop();
    client.start_polling_loop();
    server.listen(7000, [this](core::Channel& ch) { server_ch = &ch; });
    client.connect(1, 7000,
                   [this](Result<core::Channel*> r) { client_ch = r.value(); });
    cluster.engine().run_for(millis(30));
  }

  static core::Config busy(core::Config cfg) {
    cfg.poll_mode = core::PollMode::busy;
    return cfg;
  }

  void run(Nanos d) { cluster.engine().run_for(d); }

  /// Run in steps until `pred` holds (or `limit` elapses).
  template <typename Pred>
  bool run_until(Pred pred, Nanos limit, Nanos step = millis(1)) {
    const Nanos end = cluster.engine().now() + limit;
    while (!pred() && cluster.engine().now() < end) run(step);
    return pred();
  }
};

/// Mean RPC echo RTT over `count` sequential ping-pongs.
inline Nanos xrdma_echo_rtt(core::Config cfg, std::uint32_t size,
                            int count = 30) {
  XrPair pair(cfg);
  if (!pair.client_ch || !pair.server_ch) return -1;
  tools::perf_echo_responder(*pair.server_ch);
  tools::PerfOptions opts;
  opts.total_msgs = static_cast<std::uint64_t>(count);
  opts.msg_size = size;
  opts.rpc_timeout = millis(500);
  tools::PerfReport report;
  bool done = false;
  tools::xr_perf(*pair.client_ch, opts, [&](tools::PerfReport r) {
    report = std::move(r);
    done = true;
  });
  pair.run_until([&] { return done; }, seconds(2));
  if (!done || report.completed == 0) return -1;
  return static_cast<Nanos>(report.latency.mean());
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

}  // namespace xrdma::bench
