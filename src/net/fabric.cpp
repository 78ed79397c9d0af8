#include "net/fabric.hpp"

#include <cassert>

namespace xrdma::net {

namespace {
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

struct Fabric::Device {
  enum class Kind { host, tor, leaf, spine };
  Kind kind;
  int id = 0;   // host id, or index within tier
  int pod = 0;
  std::vector<int> host_ports;  // tor only: ports to hosts, by host-in-tor
  std::vector<int> down_ports;  // leaf: to tors (by tor-in-pod); spine: to leaves (global leaf index)
  std::vector<int> up_ports;    // tor: to leaves (by leaf-in-pod); leaf: to spines
  int host_port = -1;           // host only
};

struct Fabric::Port {
  struct Queued {
    Packet pkt;
    int ingress;  // ingress port index in the same device, or -1 at a host
  };

  Device* device = nullptr;
  int index = -1;
  int peer = -1;
  double gbps = 0;
  Nanos delay = 0;

  std::deque<Queued> q[kNumClasses];
  std::uint64_t qbytes[kNumClasses] = {0, 0};
  bool transmitting = false;
  bool paused[kNumClasses] = {false, false};
  Nanos paused_since = 0;

  // PFC bookkeeping for packets *received* on this port and still buffered
  // in this device (lossless class only).
  std::uint64_t ingress_lossless_bytes = 0;
  bool pause_requested = false;

  PortStats stats;
};

Fabric::Fabric(sim::Engine& engine, ClosConfig config)
    : engine_(engine), config_(config), rng_(config.seed ^ 0xfab41cULL) {
  const int hosts = config_.num_hosts();
  const int tors = config_.pods * config_.tors_per_pod;
  const int leaves = config_.pods * config_.leaves_per_pod;

  // Hosts.
  for (int h = 0; h < hosts; ++h) {
    auto dev = std::make_unique<Device>();
    dev->kind = Device::Kind::host;
    dev->id = h;
    dev->pod = (h / config_.hosts_per_tor) / config_.tors_per_pod;
    dev->host_port = new_port(dev.get(), config_.host_link_gbps, config_.link_delay);
    devices_.push_back(std::move(dev));
  }
  // ToRs.
  std::vector<Device*> tor_devs;
  for (int t = 0; t < tors; ++t) {
    auto dev = std::make_unique<Device>();
    dev->kind = Device::Kind::tor;
    dev->id = t;
    dev->pod = t / config_.tors_per_pod;
    tor_devs.push_back(dev.get());
    devices_.push_back(std::move(dev));
  }
  // Leaves.
  std::vector<Device*> leaf_devs;
  for (int l = 0; l < leaves; ++l) {
    auto dev = std::make_unique<Device>();
    dev->kind = Device::Kind::leaf;
    dev->id = l;
    dev->pod = l / config_.leaves_per_pod;
    leaf_devs.push_back(dev.get());
    devices_.push_back(std::move(dev));
  }
  // Spines.
  std::vector<Device*> spine_devs;
  for (int s = 0; s < config_.spines; ++s) {
    auto dev = std::make_unique<Device>();
    dev->kind = Device::Kind::spine;
    dev->id = s;
    spine_devs.push_back(dev.get());
    devices_.push_back(std::move(dev));
  }

  // Host <-> ToR links.
  for (int h = 0; h < hosts; ++h) {
    Device* host = devices_[static_cast<std::size_t>(h)].get();
    Device* tor = tor_devs[static_cast<std::size_t>(h / config_.hosts_per_tor)];
    const int tp = new_port(tor, config_.host_link_gbps, config_.link_delay);
    tor->host_ports.push_back(tp);
    connect(host->host_port, tp, config_.host_link_gbps, config_.link_delay);
  }
  // ToR <-> leaf links (full bipartite within each pod).
  for (Device* tor : tor_devs) {
    for (int l = 0; l < config_.leaves_per_pod; ++l) {
      Device* leaf = leaf_devs[static_cast<std::size_t>(
          tor->pod * config_.leaves_per_pod + l)];
      const int up = new_port(tor, config_.tor_leaf_gbps, config_.link_delay);
      const int down = new_port(leaf, config_.tor_leaf_gbps, config_.link_delay);
      tor->up_ports.push_back(up);
      // down_ports indexed by tor-in-pod: ToRs are iterated in order.
      leaf->down_ports.push_back(down);
      connect(up, down, config_.tor_leaf_gbps, config_.link_delay);
    }
  }
  // Leaf <-> spine links (full bipartite).
  for (Device* leaf : leaf_devs) {
    for (Device* spine : spine_devs) {
      const int up = new_port(leaf, config_.leaf_spine_gbps, config_.link_delay);
      const int down = new_port(spine, config_.leaf_spine_gbps, config_.link_delay);
      leaf->up_ports.push_back(up);
      spine->down_ports.push_back(down);  // global leaf order
      connect(up, down, config_.leaf_spine_gbps, config_.link_delay);
    }
  }

  endpoints_.resize(static_cast<std::size_t>(hosts));
  for (int h = 0; h < hosts; ++h) {
    endpoints_[static_cast<std::size_t>(h)].fabric_ = this;
    endpoints_[static_cast<std::size_t>(h)].node_ = static_cast<NodeId>(h);
    endpoints_[static_cast<std::size_t>(h)].port_ =
        devices_[static_cast<std::size_t>(h)]->host_port;
  }
}

Fabric::~Fabric() = default;

int Fabric::new_port(Device* dev, double gbps, Nanos delay) {
  auto port = std::make_unique<Port>();
  port->device = dev;
  port->index = static_cast<int>(ports_.size());
  port->gbps = gbps;
  port->delay = delay;
  ports_.push_back(std::move(port));
  return static_cast<int>(ports_.size()) - 1;
}

void Fabric::connect(int a, int b, double /*gbps*/, Nanos /*delay*/) {
  ports_[static_cast<std::size_t>(a)]->peer = b;
  ports_[static_cast<std::size_t>(b)]->peer = a;
}

Endpoint& Fabric::endpoint(NodeId host) {
  return endpoints_.at(host);
}

void Endpoint::send(Packet&& p) {
  if (p.sent_at == 0) p.sent_at = fabric_->engine_.now();
  fabric_->enqueue(port_, std::move(p), /*ingress=*/-1);
}

std::uint64_t Endpoint::tx_queue_bytes(TrafficClass c) const {
  return fabric_->ports_[static_cast<std::size_t>(port_)]
      ->qbytes[static_cast<int>(c)];
}

bool Endpoint::tx_paused(TrafficClass c) const {
  return fabric_->ports_[static_cast<std::size_t>(port_)]
      ->paused[static_cast<int>(c)];
}

void Fabric::enqueue(int port_index, Packet&& pkt, int ingress_port) {
  Port& port = *ports_[static_cast<std::size_t>(port_index)];
  const int c = static_cast<int>(pkt.tclass);

  // Tail drop past the per-class buffer limit. With PFC correctly tuned the
  // lossless class should never hit this; when it does, the drop counter is
  // exactly what the monitoring system (§VI-B) watches.
  if (port.qbytes[c] + pkt.wire_bytes > config_.buffer_bytes) {
    ++port.stats.drops;
    return;
  }

  // RED/ECN marking on the lossless class at switch egress.
  if (port.device->kind != Device::Kind::host && pkt.ecn_capable &&
      pkt.tclass == TrafficClass::lossless) {
    const std::uint64_t depth = port.qbytes[c];
    if (depth >= config_.ecn_kmax) {
      pkt.ecn_ce = true;
    } else if (depth > config_.ecn_kmin) {
      const double p = config_.ecn_pmax *
                       static_cast<double>(depth - config_.ecn_kmin) /
                       static_cast<double>(config_.ecn_kmax - config_.ecn_kmin);
      if (rng_.chance(p)) pkt.ecn_ce = true;
    }
    if (pkt.ecn_ce) ++port.stats.ecn_marks;
  }

  port.qbytes[c] += pkt.wire_bytes;
  if (port.qbytes[c] > port.stats.max_queue_bytes) {
    port.stats.max_queue_bytes = port.qbytes[c];
  }
  if (ingress_port >= 0 && pkt.tclass == TrafficClass::lossless) {
    account_ingress(ingress_port, pkt.tclass,
                    static_cast<std::int64_t>(pkt.wire_bytes));
  }
  port.q[c].push_back(Port::Queued{std::move(pkt), ingress_port});
  maybe_start_tx(port_index);
}

void Fabric::maybe_start_tx(int port_index) {
  Port& port = *ports_[static_cast<std::size_t>(port_index)];
  if (port.transmitting) return;

  // Lossless (RoCE) has priority; PFC can pause it while lossy continues.
  int cls = -1;
  for (int c = 0; c < kNumClasses; ++c) {
    if (!port.q[c].empty() && !port.paused[c]) {
      cls = c;
      break;
    }
  }
  if (cls < 0) return;

  Port::Queued qd = std::move(port.q[cls].front());
  port.q[cls].pop_front();
  port.qbytes[cls] -= qd.pkt.wire_bytes;
  port.transmitting = true;

  const Nanos tx = transmission_time(qd.pkt.wire_bytes, port.gbps);
  ++port.stats.tx_packets;
  port.stats.tx_bytes += qd.pkt.wire_bytes;

  engine_.schedule_after(
      tx, [this, port_index, qd = std::move(qd)]() mutable {
        Port& p = *ports_[static_cast<std::size_t>(port_index)];
        p.transmitting = false;
        if (qd.ingress >= 0 && qd.pkt.tclass == TrafficClass::lossless) {
          account_ingress(qd.ingress, qd.pkt.tclass,
                          -static_cast<std::int64_t>(qd.pkt.wire_bytes));
        }
        deliver(port_index, std::move(qd.pkt));
        maybe_start_tx(port_index);
      });
}

void Fabric::deliver(int port_index, Packet&& pkt) {
  Port& port = *ports_[static_cast<std::size_t>(port_index)];
  assert(port.peer >= 0);
  Port& peer = *ports_[static_cast<std::size_t>(port.peer)];
  Nanos delay = port.delay;
  if (peer.device->kind != Device::Kind::host) delay += config_.switch_latency;
  Device* dev = peer.device;
  const int in_port = peer.index;
  engine_.schedule_after(delay, [this, dev, in_port, pkt = std::move(pkt)]() mutable {
    receive(dev, in_port, std::move(pkt));
  });
}

void Fabric::receive(Device* dev, int in_port, Packet&& pkt) {
  if (dev->kind == Device::Kind::host) {
    Endpoint& ep = endpoints_[static_cast<std::size_t>(dev->id)];
    if (ep.rx_) ep.rx_(std::move(pkt));
    return;
  }
  const int egress = route(*dev, pkt);
  enqueue(egress, std::move(pkt), in_port);
}

int Fabric::route(const Device& sw, const Packet& pkt) {
  const int dst = static_cast<int>(pkt.dst);
  const int dst_tor = dst / config_.hosts_per_tor;
  const int dst_pod = dst_tor / config_.tors_per_pod;
  const int host_in_tor = dst % config_.hosts_per_tor;
  const int tor_in_pod = dst_tor % config_.tors_per_pod;
  const std::uint64_t h = mix64(pkt.flow ^ (static_cast<std::uint64_t>(pkt.src) << 32) ^
                                pkt.dst ^ 0x5eedULL);

  switch (sw.kind) {
    case Device::Kind::tor: {
      const int my_tor = sw.id;
      if (dst_tor == my_tor) {
        return sw.host_ports[static_cast<std::size_t>(host_in_tor)];
      }
      assert(!sw.up_ports.empty() && "cross-rack traffic needs a leaf tier");
      return sw.up_ports[h % sw.up_ports.size()];
    }
    case Device::Kind::leaf: {
      if (dst_pod == sw.pod) {
        return sw.down_ports[static_cast<std::size_t>(tor_in_pod)];
      }
      assert(!sw.up_ports.empty() && "cross-pod traffic needs a spine tier");
      return sw.up_ports[h % sw.up_ports.size()];
    }
    case Device::Kind::spine: {
      // Pick any leaf in the destination pod (ECMP).
      const int leaf_in_pod =
          static_cast<int>(h % static_cast<std::uint64_t>(config_.leaves_per_pod));
      return sw.down_ports[static_cast<std::size_t>(
          dst_pod * config_.leaves_per_pod + leaf_in_pod)];
    }
    case Device::Kind::host:
      break;
  }
  assert(false && "host is not a switch");
  return -1;
}

void Fabric::account_ingress(int ingress_port, TrafficClass c, std::int64_t delta) {
  if (c != TrafficClass::lossless) return;
  Port& port = *ports_[static_cast<std::size_t>(ingress_port)];
  port.ingress_lossless_bytes =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(port.ingress_lossless_bytes) + delta);

  // The ingress port tells its upstream peer to stop sending lossless
  // traffic when buffered bytes cross XOFF, and to resume below XON.
  if (!port.pause_requested && port.ingress_lossless_bytes > config_.pfc_xoff) {
    port.pause_requested = true;
    ++port.stats.pause_frames_sent;
    const int peer = port.peer;
    engine_.schedule_after(port.delay, [this, peer] {
      set_pause(peer, TrafficClass::lossless, true);
    });
  } else if (port.pause_requested && port.ingress_lossless_bytes < config_.pfc_xon) {
    port.pause_requested = false;
    const int peer = port.peer;
    engine_.schedule_after(port.delay, [this, peer] {
      set_pause(peer, TrafficClass::lossless, false);
    });
  }
}

void Fabric::set_pause(int port_index, TrafficClass c, bool paused) {
  Port& port = *ports_[static_cast<std::size_t>(port_index)];
  const int ci = static_cast<int>(c);
  if (port.paused[ci] == paused) return;
  port.paused[ci] = paused;
  if (paused) {
    port.paused_since = engine_.now();
  } else {
    port.stats.paused_time += engine_.now() - port.paused_since;
    maybe_start_tx(port_index);
    if (port.device->kind == Device::Kind::host) {
      Endpoint& ep = endpoints_[static_cast<std::size_t>(port.device->id)];
      if (ep.tx_unpaused_) ep.tx_unpaused_();
    }
  }
}

FabricStats Fabric::stats() const {
  FabricStats s;
  for (const auto& port : ports_) {
    s.drops += port->stats.drops;
    s.ecn_marks += port->stats.ecn_marks;
    s.pause_frames += port->stats.pause_frames_sent;
    if (port->device->kind == Device::Kind::host) {
      s.host_tx_pause_time += port->stats.paused_time;
      if (port->paused[static_cast<int>(TrafficClass::lossless)]) {
        s.host_tx_pause_time += engine_.now() - port->paused_since;
      }
    }
  }
  return s;
}

const PortStats& Fabric::host_ingress_port_stats(NodeId host) const {
  const Device* tor = nullptr;
  const int tor_index = static_cast<int>(host) / config_.hosts_per_tor;
  for (const auto& dev : devices_) {
    if (dev->kind == Device::Kind::tor && dev->id == tor_index) {
      tor = dev.get();
      break;
    }
  }
  assert(tor != nullptr);
  const int port = tor->host_ports[static_cast<std::size_t>(
      static_cast<int>(host) % config_.hosts_per_tor)];
  return ports_[static_cast<std::size_t>(port)]->stats;
}

}  // namespace xrdma::net
