// X-DB-style transaction workload (§II-C): MySQL front-ends in containers
// issuing transactions whose storage traffic rides X-RDMA.
//
// A transaction here is a read-modify-write against a DB server: one read
// RPC fetching a page-sized response, followed by a log write RPC. The
// driver runs closed-loop with a configurable multiprogramming level and
// reports per-transaction latency — the anti-jitter series of Fig. 12b.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "testbed/cluster.hpp"

namespace xrdma::apps {

struct XdbConfig {
  std::uint16_t port = 8200;
  std::uint32_t page_size = 16 * 1024;   // read response (InnoDB page)
  std::uint32_t log_write_size = 4096;   // redo log append
  int concurrency = 8;                   // in-flight transactions
  core::Config xrdma;
};

/// DB server: answers page reads (large responses, Read-replace-Write
/// path) and log writes (small).
class XdbServer {
 public:
  XdbServer(testbed::Cluster& cluster, net::NodeId node, XdbConfig cfg);
  core::Context& ctx() { return ctx_; }
  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }

 private:
  XdbConfig cfg_;
  core::Context ctx_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

/// Front-end driver: runs transactions against one server.
class XdbClient {
 public:
  XdbClient(testbed::Cluster& cluster, net::NodeId node, net::NodeId server,
            XdbConfig cfg);

  void start(std::function<void()> ready);
  void stop() { running_ = false; }

  std::uint64_t committed() const { return committed_; }
  std::uint64_t aborted() const { return aborted_; }
  const Histogram& txn_latency() const { return latency_; }
  core::Context& ctx() { return ctx_; }

 private:
  void run_txn();

  XdbConfig cfg_;
  core::Context ctx_;
  net::NodeId server_;
  core::Channel* channel_ = nullptr;
  bool running_ = false;
  std::uint64_t committed_ = 0;
  std::uint64_t aborted_ = 0;
  Histogram latency_;
};

}  // namespace xrdma::apps
