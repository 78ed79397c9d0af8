// RNIC model parameters.
//
// Latency constants are calibrated so a 64 B RC ping-pong through one ToR
// lands near the paper's measurements (~5.2 us RTT for raw verbs, Fig. 7);
// EXPERIMENTS.md records the calibration.
#pragma once

#include <cstdint>

#include "common/time.hpp"

namespace xrdma::rnic {

struct DcqcnConfig {
  bool enabled = true;
  // Rate decrease.
  double g = 1.0 / 16.0;          // alpha EWMA gain
  Nanos alpha_timer = micros(55); // alpha decay period without CNPs
  Nanos rate_cut_min_interval = micros(50);  // at most one cut per window
  // Rate increase.
  Nanos increase_timer = micros(55);
  std::uint64_t increase_bytes = 10u << 20;  // byte-counter stage
  int fast_recovery_stages = 5;
  double rai_gbps = 0.04;    // additive increase 40 Mbps
  double rhai_gbps = 0.2;    // hyper increase 200 Mbps
  double min_rate_gbps = 0.1;
  // CNP generation (receiver side).
  Nanos cnp_min_interval = micros(50);
};

struct RnicConfig {
  // Packetization.
  std::uint32_t mtu = 4096;          // payload bytes per packet
  std::uint32_t header_bytes = 64;   // per-packet wire overhead (RoCEv2-ish)
  std::uint32_t ack_bytes = 64;

  // Processing latency model. The tx cost of a post is a doorbell ring
  // (MMIO write + scheduling) plus the WQE fetch: 600 ns together, the
  // calibration constant.
  Nanos doorbell_overhead = nanos(250);  // MMIO doorbell + QP scheduling
  Nanos wqe_fetch_overhead = nanos(350); // per-WQE fetch + DMA setup
  Nanos rx_overhead = nanos(600);        // packet steering + DMA + CQE write
  // Control packets (acks, CNPs) and read requests are served in
  // the NIC pipeline without host-path DMA + CQE cost.
  Nanos rx_control_overhead = nanos(250);
  Nanos dma_latency = nanos(300);        // PCIe round trip folded per message
  Nanos qp_cache_miss_penalty = nanos(150);
  std::uint32_t qp_cache_entries = 1024; // on-NIC QP context SRAM (§VII-F)
  // IBV_SEND_INLINE ceiling: payload carried in the WQE itself, skipping
  // the payload DMA fetch. Sized to fit a wire header + 256 B eager data.
  std::uint32_t max_inline_data = 512;

  // Reliability.
  // IB transport timers are long (hundreds of ms); congested fabrics must
  // not trip retries. 8 ms keeps crash detection fast enough for tests.
  Nanos retransmit_timeout = millis(8);
  Nanos rnr_backoff = micros(100);
  std::uint32_t ack_coalesce = 16;   // ack every N packets (plus msg tails)

  DcqcnConfig dcqcn;

  double line_rate_gbps = 25.0;  // must match the host link
};

}  // namespace xrdma::rnic
