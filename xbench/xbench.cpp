// xbench: the repository's benchmark.
//
// One process, one single-threaded simulation engine: three client contexts
// and one server context on a four-host rack, driven by seeded inputs. Each
// run repeats the same seeded round (set-up, then a fixed measured phase)
// until --seconds have passed. Sim-clock metrics come from the first round,
// and every later round must reproduce them bit for bit; host-clock metrics
// are medians over the rounds, each scaled by a machine-speed probe run
// between slices of the round (probe.hpp). With --trace 1 the rounds
// alternate untraced and traced, and the per-layer numbers come from the
// traced ones.
//
// Usage: xbench --workload rpc_small|storage_rw|conn_churn --seed N
//               --seconds S --trace 0|1 [--tiny] [--spans DIR]

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "testbed/cluster.hpp"
#include "probe.hpp"
#include "trace.hpp"

namespace xbench {

using namespace xrdma;

constexpr int kClients = 3;
constexpr int kChansPerClient = 4;
constexpr int kNodes = kClients + 1;
constexpr net::NodeId kServer = kClients;
constexpr std::uint16_t kPort = 7000;
constexpr Nanos kRpcTimeout = millis(500);
constexpr Nanos kStep = millis(1);
constexpr Nanos kDrainLimit = seconds(2);  // sim time allowed past the last op
// The measured phase runs the speed probe after a slice once this much CPU
// time has passed since the last probe: a few percent of the phase.
constexpr double kProbeEveryS = 20e-3;
constexpr std::uint32_t kAckBytes = 64;
// rpc_small's latency limit for sim_kops_at_slo: about 4x the unloaded p99.
constexpr Nanos kSlo = micros(25);
// ...with no growing backlog: at most this many RPCs outstanding when one
// arrives (about five per channel).
constexpr std::size_t kMaxBacklog = 64;

// The request's first bytes say what the server must answer; the rest of
// every payload is fill_pattern bytes keyed by the op, checked on arrival.
enum OpKind : std::uint32_t { kEcho = 1, kWrite = 2, kRead = 3 };
struct ReqHdr {
  std::uint64_t key = 0;
  std::uint32_t kind = 0;
  std::uint32_t resp_len = 0;
};
constexpr std::uint32_t kHdrBytes = sizeof(ReqHdr);
constexpr std::uint64_t kAckSalt = 0x61636b0000000000ull;
constexpr std::uint64_t kReadSalt = 0x7265616400000000ull;
constexpr std::uint64_t kWarmSalt = 0x5741524dull;  // warm-up inputs

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Buffer make_pattern(std::uint32_t size, std::uint64_t seed) {
  Buffer b = Buffer::make(size);
  fill_pattern(b, seed);
  return b;
}

Buffer make_request(const ReqHdr& h, std::uint32_t size) {
  Buffer b = make_pattern(size, h.key);
  std::memcpy(b.data(), &h, kHdrBytes);
  return b;
}

/// Reads the header, puts the pattern bytes it covered back, and checks the
/// whole payload against the op's pattern.
bool open_request(Buffer& b, ReqHdr& h) {
  if (b.size() < kHdrBytes || !b.data()) return false;
  std::memcpy(&h, b.data(), kHdrBytes);
  static Buffer head = Buffer::make(kHdrBytes);
  fill_pattern(head, h.key);
  std::memcpy(b.data(), head.data(), kHdrBytes);
  return check_pattern(b, h.key);
}

// ---------------------------------------------------------------------------
// Counters read from the public stats structs, summed over every context,
// channel and RNIC. A round's layer counts are the deltas across its
// measured phase.

enum Ctr : int {
  kEvents,
  kPolls,
  kEmptyPolls,
  kMsgsTx,
  kBytesTx,
  kAcksTx,
  kNopsTx,
  kWindowStalls,
  kFlowctlQueued,
  kReadsIssued,
  kChDoorbells,
  kChDoorbellWrs,
  kInlineSends,
  kCrcStamped,
  kRecoveries,
  kRetransmits,
  kRpcTimeouts,
  kBadFrames,
  kNicTxPackets,
  kNicDoorbells,
  kNicWrs,
  kNicInlineWrs,
  kRnrNaks,
  kCnps,
  kEcnMarks,
  kPauseFrames,
  kDrops,
  kHostTxPauseNs,
  kMemAllocs,
  kMemGrows,
  kQpHits,
  kQpMisses,
  kSuspectGrades,
  kNumCtr,
};
using Counters = std::array<std::uint64_t, kNumCtr>;

// ---------------------------------------------------------------------------
// Workloads.

enum class Shape { open_loop, closed_loop, churn };

struct Spec {
  Shape shape;
  std::size_t warm_ops;
  std::size_t ops;
  double rate_kops;      // open loop: offered rate
  int slots_per_chan;    // closed loop: ops outstanding per channel
  int max_inflight;      // churn: connects in flight
};

Spec spec_for(const std::string& workload, bool tiny) {
  if (workload == "rpc_small")
    return {Shape::open_loop, 240, tiny ? 400u : 12000u, 200.0, 0, 0};
  if (workload == "storage_rw")
    return {Shape::closed_loop, 48, tiny ? 48u : 4800u, 0, 2, 0};
  if (workload == "conn_churn")
    return {Shape::churn, 48, tiny ? 48u : 1000u, 0, 0, 16};
  return {Shape::open_loop, 0, 0, 0, 0, 0};
}

// rpc_small's fixed ladder of offered rates for sim_kops_at_slo.
constexpr std::array<double, 12> kLadderKops = {
    200, 400, 800, 1200, 1600, 2000, 2400, 2800, 3200, 3600, 4000, 4800};

struct Op {
  Nanos due = 0;  // open loop: offset from the phase start
  std::uint64_t key = 0;
  std::uint32_t kind = kEcho;
  std::uint32_t size = 0;  // request bytes
  std::uint32_t resp = 0;  // expected response bytes
  int chan = 0;            // open loop: channel index
};

std::vector<Op> make_ops(const Spec& s, std::uint64_t seed, std::size_t n) {
  Rng rng(mix(seed));
  std::vector<Op> ops(n);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Op& op = ops[i];
    op.key = mix(seed ^ mix(i + 1)) | 1;
    switch (s.shape) {
      case Shape::open_loop:
        t += rng.exponential(1e6 / s.rate_kops);
        op.due = static_cast<Nanos>(t);
        op.chan = static_cast<int>(rng.next_below(kClients * kChansPerClient));
        op.size = static_cast<std::uint32_t>(rng.uniform(64, 512));
        op.resp = op.size;
        break;
      case Shape::closed_loop: {
        // An exact 50/50 mix of reads and writes over the three sizes, in
        // seeded order (shuffled below): the seed moves the interleaving,
        // not the mix.
        static constexpr std::uint32_t kSizes[] = {64 << 10, 128 << 10,
                                                   256 << 10};
        const std::uint32_t bytes = kSizes[(i / 2) % 3];
        if (i % 2 == 0) {
          op.kind = kRead;
          op.size = 64;
          op.resp = bytes;
        } else {
          op.kind = kWrite;
          op.size = bytes;
          op.resp = kAckBytes;
        }
        break;
      }
      case Shape::churn:
        // Sizes vary so the first-response latency depends on the inputs;
        // the CM handshake alone costs the same on every connect.
        op.size = static_cast<std::uint32_t>(rng.uniform(64, 512));
        op.resp = op.size;
        break;
    }
  }
  if (s.shape == Shape::closed_loop) {
    for (std::size_t i = n; i > 1; --i)
      std::swap(ops[i - 1], ops[rng.next_below(i)]);
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Host clock of the measured phase: the speed probe, run between engine
// slices, and the CPU time it took away from the phase.

class HostMeter {
 public:
  void reset() {
    probe_s_ = 0;
    spent_s_ = 0;
    probes_ = 0;
    last_ = cpu_seconds();
  }
  /// Runs the probe now.
  void probe() {
    const double c0 = cpu_seconds();
    probe_s_ += probe_.run();
    ++probes_;
    last_ = cpu_seconds();
    spent_s_ += last_ - c0;
  }
  /// After an engine slice: runs the probe if it is due.
  void tick() {
    if (cpu_seconds() - last_ >= kProbeEveryS) probe();
  }
  /// CPU seconds spent in the probe, its clock reads included.
  double spent_s() const { return spent_s_; }
  /// Mean CPU seconds of one probe run.
  double probe_mean_s() const { return probe_s_ / probes_; }
  /// Factor that turns this round's host times into times on a host where
  /// the probe takes kRefProbeS.
  double scale() const { return kRefProbeS / probe_mean_s(); }

 private:
  SpeedProbe probe_;
  double probe_s_ = 0;
  double spent_s_ = 0;
  int probes_ = 0;
  double last_ = 0;
};

// ---------------------------------------------------------------------------
// Fixture: the cluster, its four contexts and the load generator.

testbed::ClusterConfig cluster_config(std::uint64_t seed) {
  testbed::ClusterConfig cfg = testbed::ClusterConfig::rack(kNodes);
  cfg.fabric.seed = mix(seed);
  return cfg;
}

class Fixture {
 public:
  Fixture(const Spec& spec, std::uint64_t seed, Tracer& tracer)
      : spec_(spec), cluster_(cluster_config(seed)),
        tracer_(tracer) {
    for (int n = 0; n < kNodes; ++n) {
      auto& ctx = ctx_[static_cast<std::size_t>(n)];
      // Default config: hybrid polling, as deployed.
      ctx = std::make_unique<core::Context>(
          cluster_.rnic(static_cast<net::NodeId>(n)), cluster_.cm());
      // The default epoch mixes in a process-global instance counter, so
      // later rounds in this process would diverge from the first.
      ctx->set_trace_epoch(mix(seed ^ (0x100u + static_cast<unsigned>(n))));
      // Poll before the handshake: a context that starts polling late
      // misses its keepalives and runs a spurious recovery.
      ctx->start_polling_loop();
    }
    ctx(kServer).listen(kPort, [this](core::Channel& ch) {
      ch.set_on_msg([this](core::Channel& c, core::Msg&& m) {
        serve(c, std::move(m));
      });
    });
  }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  core::Context& ctx(int n) { return *ctx_[static_cast<std::size_t>(n)]; }
  sim::Engine& engine() { return cluster_.engine(); }
  std::uint64_t failures() const { return failed_; }
  /// Probe machine speed between engine slices (nullptr: don't).
  void set_meter(HostMeter* m) { meter_ = m; }

  /// Connect the 12 long-lived channels (rpc_small, storage_rw).
  bool connect_all() {
    chans_.assign(kClients * kChansPerClient, nullptr);
    connecting_ = chans_.size();
    for (int c = 0; c < kClients; ++c) {
      for (int j = 0; j < kChansPerClient; ++j) {
        const std::size_t idx = static_cast<std::size_t>(c * kChansPerClient + j);
        const std::uint64_t op = idx + 1;
        Scope s(tracer_, SpanKind::connect, op);
        ctx(c).connect(kServer, kPort,
                       [this, idx, op](Result<core::Channel*> r) {
                         Scope cb(tracer_, SpanKind::connect_cb, op);
                         --connecting_;
                         if (!r.ok()) return fail("connect failed");
                         chans_[idx] = r.value();
                       });
      }
    }
    const Nanos end = engine().now() + kDrainLimit;
    while (connecting_ > 0 && engine().now() < end)
      run_until(engine().now() + kStep);
    return connecting_ == 0 && failed_ == 0;
  }

  /// Run one phase over `ops` to completion. Returns false if any op was
  /// still outstanding at the limit (it then counts as failed).
  bool run_phase(std::vector<Op> ops) {
    ops_ = std::move(ops);
    start_.assign(ops_.size(), 0);
    done_.assign(ops_.size(), 0);
    lat_.clear();
    read_lat_.clear();
    write_lat_.clear();
    completed_ = 0;
    next_ = 0;
    max_backlog_ = 0;
    payload_bytes_ = 0;
    phase_start_ = engine().now();
    last_done_ = phase_start_;
    Nanos horizon = phase_start_;
    switch (spec_.shape) {
      case Shape::open_loop:
        if (!ops_.empty()) {
          horizon += ops_.back().due;
          engine().schedule_at(phase_start_ + ops_.front().due,
                               [this] { arrive(0); });
        }
        break;
      case Shape::closed_loop:
        for (std::size_t ch = 0; ch < chans_.size(); ++ch)
          for (int s = 0; s < spec_.slots_per_chan; ++s) issue_closed(ch);
        break;
      case Shape::churn:
        for (int s = 0; s < spec_.max_inflight; ++s) churn_next(s % kClients);
        break;
    }
    // In slices, so the speed probe can run between them.
    while (engine().now() < horizon)
      run_until(std::min(horizon, engine().now() + kStep));
    const Nanos end = horizon + kDrainLimit;
    while (completed_ < ops_.size() && engine().now() < end)
      run_until(engine().now() + kStep);
    if (completed_ < ops_.size()) {
      failed_ += ops_.size() - completed_;
      return false;
    }
    return true;
  }

  /// Open loop: highest outstanding count seen when an op arrived.
  std::size_t max_backlog() const { return max_backlog_; }
  Nanos phase_span() const { return last_done_ - phase_start_; }
  std::uint64_t payload_bytes() const { return payload_bytes_; }
  const std::vector<Nanos>& latencies() const { return lat_; }
  const std::vector<Nanos>& read_latencies() const { return read_lat_; }
  const std::vector<Nanos>& write_latencies() const { return write_lat_; }

  Counters counters() {
    Counters c{};
    c[kEvents] = engine().events_processed();
    for (int n = 0; n < kNodes; ++n) {
      core::Context& x = ctx(n);
      c[kPolls] += x.stats().polls;
      c[kEmptyPolls] += x.stats().empty_polls;
      for (core::MemCache* m : {&x.ctrl_cache(), &x.data_cache()}) {
        c[kMemAllocs] += m->stats().alloc_calls;
        c[kMemGrows] += m->stats().grow_events;
      }
      c[kQpHits] += x.qp_cache().hits();
      c[kQpMisses] += x.qp_cache().misses();
      const core::HealthStats& h = x.health().stats();
      c[kSuspectGrades] += h.suspect_transitions + h.dead_declarations +
                           h.degraded_transitions;
      for (core::Channel* ch : x.channels()) {
        const core::ChannelStats& s = ch->stats();
        c[kMsgsTx] += s.msgs_tx;
        c[kBytesTx] += s.bytes_tx;
        c[kAcksTx] += s.acks_tx;
        c[kNopsTx] += s.nops_tx;
        c[kWindowStalls] += s.window_stalls;
        c[kFlowctlQueued] += s.flowctl_queued;
        c[kReadsIssued] += s.reads_issued;
        c[kChDoorbells] += s.doorbells;
        c[kChDoorbellWrs] += s.doorbell_wrs;
        c[kInlineSends] += s.inline_sends;
        c[kCrcStamped] += s.crc_stamped_tx;
        c[kRecoveries] += s.recoveries_started;
        c[kRetransmits] += s.recovery_retransmits + s.integrity_retransmits;
        c[kRpcTimeouts] += s.rpc_timeouts;
        c[kBadFrames] += s.bad_messages + s.crc_failures_rx;
      }
      const rnic::RnicStats& r = x.nic().stats();
      c[kNicTxPackets] += r.tx_packets;
      c[kNicDoorbells] += r.doorbells;
      c[kNicWrs] += r.wrs_posted;
      c[kNicInlineWrs] += r.inline_wrs;
      c[kRnrNaks] += r.rnr_naks_sent;
      c[kCnps] += r.cnps_sent;
    }
    const net::FabricStats f = cluster_.fabric().stats();
    c[kEcnMarks] = f.ecn_marks;
    c[kPauseFrames] = f.pause_frames;
    c[kDrops] = f.drops;
    c[kHostTxPauseNs] = static_cast<std::uint64_t>(f.host_tx_pause_time);
    return c;
  }

  std::uint64_t server_port_max_queue() {
    return cluster_.fabric().host_ingress_port_stats(kServer).max_queue_bytes;
  }

  // --- Traced rounds: the engine's post-event hook ------------------------
  /// Time every engine event from the hook (host ns since the previous
  /// event or run_until entry), track the deepest event queue, and sample
  /// the bytes the memory caches hand out.
  void trace_events(bool on) {
    if (!on) {
      engine().set_post_event_hook(nullptr);
      return;
    }
    engine().set_post_event_hook([this] {
      const std::int64_t t = host_ns();
      event_ns_.record(t - last_mark_);
      last_mark_ = t;
      pending_max_ = std::max<std::uint64_t>(pending_max_, engine().pending());
      std::uint64_t in_use = 0;
      for (auto& x : ctx_) {
        in_use += x->ctrl_cache().stats().in_use_bytes +
                  x->data_cache().stats().in_use_bytes;
      }
      mem_peak_ = std::max(mem_peak_, in_use);
    });
  }
  void reset_event_trace() {
    event_ns_.reset();
    pending_max_ = 0;
    mem_peak_ = 0;
  }
  const Histogram& event_ns() const { return event_ns_; }
  std::uint64_t pending_max() const { return pending_max_; }
  std::uint64_t mem_peak() const { return mem_peak_; }

 private:
  void run_until(Nanos t) {
    {
      Scope s(tracer_, SpanKind::run_until);
      last_mark_ = host_ns();
      engine().run_until(t);
    }
    if (meter_) meter_->tick();
  }

  void fail(const char* why) {
    if (failed_++ < 5) std::fprintf(stderr, "xbench: %s\n", why);
  }

  // --- Server -------------------------------------------------------------
  void serve(core::Channel& ch, core::Msg&& m) {
    Scope app(tracer_, SpanKind::app);
    ReqHdr h;
    if (!m.is_rpc_req || !open_request(m.payload, h))
      return fail("request failed its content check");
    if (!served_.insert(h.key).second) return fail("request delivered twice");
    Buffer rsp;
    switch (h.kind) {
      case kEcho: rsp = std::move(m.payload); break;
      case kWrite: rsp = make_pattern(kAckBytes, h.key ^ kAckSalt); break;
      case kRead: rsp = make_pattern(h.resp_len, h.key ^ kReadSalt); break;
      default: return fail("unknown op kind");
    }
    Errc rc;
    {
      Scope s(tracer_, SpanKind::reply, h.key);
      rc = ch.reply(m.rpc_id, std::move(rsp));
    }
    if (rc != Errc::ok) fail("reply refused");
  }

  // --- Client -------------------------------------------------------------
  /// Send op `i` as an RPC on `ch`; `then` runs after its completion.
  void issue(std::size_t i, core::Channel* ch, std::function<void()> then) {
    const Op& op = ops_[i];
    Buffer req;
    {
      Scope app(tracer_, SpanKind::app, op.key);
      req = make_request({op.key, op.kind, op.resp}, op.size);
    }
    Errc rc;
    {
      Scope s(tracer_, SpanKind::call, op.key);
      rc = ch->call(
          std::move(req),
          [this, i, then = std::move(then)](Result<core::Msg> r) {
            complete(i, std::move(r));
            if (then) then();
          },
          kRpcTimeout);
    }
    if (rc != Errc::ok) {
      fail("call refused");
      finish(i);
    }
  }

  /// Marks op `i` finished; false if it already was (exactly-once check).
  bool finish(std::size_t i) {
    if (done_[i]) {
      fail("op completed twice");
      return false;
    }
    done_[i] = 1;
    ++completed_;
    last_done_ = engine().now();
    return true;
  }

  void complete(std::size_t i, Result<core::Msg> r) {
    Scope app(tracer_, SpanKind::app, ops_[i].key);
    if (!finish(i)) return;
    if (!r.ok()) return fail("rpc failed");
    const Op& op = ops_[i];
    const Buffer& p = r.value().payload;
    const std::uint64_t pattern = op.kind == kEcho    ? op.key
                                  : op.kind == kWrite ? op.key ^ kAckSalt
                                                      : op.key ^ kReadSalt;
    if (p.size() != op.resp || !check_pattern(p, pattern))
      return fail("response failed its content check");
    const Nanos lat = engine().now() - start_[i];
    lat_.push_back(lat);
    if (op.kind == kRead) read_lat_.push_back(lat);
    if (op.kind == kWrite) write_lat_.push_back(lat);
    payload_bytes_ += op.size + op.resp;
  }

  void arrive(std::size_t i) {
    Scope app(tracer_, SpanKind::app, ops_[i].key);
    // Timed from when it was due, which is now: the engine fires on time.
    start_[i] = engine().now();
    max_backlog_ = std::max<std::size_t>(max_backlog_, i - completed_);
    issue(i, chans_[static_cast<std::size_t>(ops_[i].chan)], nullptr);
    if (i + 1 < ops_.size()) {
      engine().schedule_at(phase_start_ + ops_[i + 1].due,
                           [this, i] { arrive(i + 1); });
    }
  }

  void issue_closed(std::size_t ch) {
    if (next_ >= ops_.size()) return;
    const std::size_t i = next_++;
    start_[i] = engine().now();
    issue(i, chans_[ch], [this, ch] { issue_closed(ch); });
  }

  void churn_next(int client) {
    if (next_ >= ops_.size()) return;
    const std::size_t i = next_++;
    const std::uint64_t key = ops_[i].key;
    start_[i] = engine().now();
    Scope s(tracer_, SpanKind::connect, key);
    ctx(client).connect(
        kServer, kPort, [this, i, key, client](Result<core::Channel*> r) {
          Scope cb(tracer_, SpanKind::connect_cb, key);
          if (!r.ok()) {
            fail("connect failed");
            finish(i);
            churn_next(client);
            return;
          }
          // Timed from the connect to the first response on the new
          // channel.
          core::Channel* ch = r.value();
          issue(i, ch, [this, ch, client] {
            // Close outside the channel's own completion path.
            engine().schedule_after(0, [this, ch, client] {
              {
                Scope c(tracer_, SpanKind::close);
                ch->close();
              }
              churn_next(client);
            });
          });
        });
  }

  Spec spec_;
  testbed::Cluster cluster_;  // declared first: outlives the contexts
  std::array<std::unique_ptr<core::Context>, kNodes> ctx_;
  std::vector<core::Channel*> chans_;
  std::size_t connecting_ = 0;
  Tracer& tracer_;
  HostMeter* meter_ = nullptr;

  std::vector<Op> ops_;
  std::vector<Nanos> start_;
  std::vector<std::uint8_t> done_;
  std::vector<Nanos> lat_, read_lat_, write_lat_;
  std::size_t completed_ = 0;
  std::size_t next_ = 0;
  std::size_t max_backlog_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t failed_ = 0;
  Nanos phase_start_ = 0;
  Nanos last_done_ = 0;
  std::unordered_set<std::uint64_t> served_;

  std::int64_t last_mark_ = 0;
  Histogram event_ns_;
  std::uint64_t pending_max_ = 0;
  std::uint64_t mem_peak_ = 0;
};

// ---------------------------------------------------------------------------
// One round: set-up plus the measured phase.

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double peak_rss_now_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024;
}

double wall_seconds() { return 1e-9 * static_cast<double>(host_ns()); }

double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, k == 0 ? 0 : k - 1)];
}

double pct_us(const std::vector<Nanos>& lat, double q) {
  return nearest_rank(std::vector<double>(lat.begin(), lat.end()), q) / 1e3;
}

double median(std::vector<double> v) { return nearest_rank(std::move(v), 0.5); }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};
using Metrics = std::vector<Metric>;

struct Round {
  // Sim clock: must be bit-identical across rounds of one seed.
  std::vector<Nanos> lat, read_lat, write_lat;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t payload_bytes = 0;
  Nanos span = 0;
  Counters delta{};
  std::uint64_t port_max_queue = 0;
  // Host clock: raw, and scaled by the round's speed probe.
  double cpu_raw_us_per_op = 0;
  double probe_us = 0;
  double setup_s = 0;
  double cpu_us_per_op = 0;
  // Traced rounds only: host-clock layer numbers, in a fixed order.
  bool traced = false;
  Metrics layer;

  bool same_sim(const Round& o) const {
    return lat == o.lat && read_lat == o.read_lat &&
           write_lat == o.write_lat && ops == o.ops &&
           payload_bytes == o.payload_bytes && span == o.span &&
           delta == o.delta && port_max_queue == o.port_max_queue;
  }
};

/// Host-clock numbers from the spans of a traced round.
void span_metrics(const Tracer& t, std::size_t measured_from, double ops,
                  Metrics& out) {
  const auto& spans = t.spans();
  const auto self = t.self_times();
  std::array<std::vector<double>, static_cast<int>(SpanKind::count)> dur;
  double run_self = 0, app_self = 0;
  std::map<std::uint64_t, double> connect_ns;  // per connect: call + callback
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto ns = static_cast<double>(s.end - s.start);
    // Connects count from set-up too: rpc_small and storage_rw make theirs
    // only there. The callback's own RPC is not connect cost.
    if (s.kind == SpanKind::connect) connect_ns[s.op] += ns;
    if (s.kind == SpanKind::connect_cb)
      connect_ns[s.op] += static_cast<double>(self[i]);
    if (i < measured_from) continue;
    dur[static_cast<int>(s.kind)].push_back(ns);
    if (s.kind == SpanKind::run_until) run_self += static_cast<double>(self[i]);
    if (s.kind == SpanKind::app) app_self += static_cast<double>(self[i]);
  }
  const auto d = [&](SpanKind k) { return dur[static_cast<int>(k)]; };
  double connect_sum = 0;
  for (const auto& [op, ns] : connect_ns) connect_sum += ns;
  const double connects = static_cast<double>(connect_ns.size());
  out.push_back({"core.call_ns_p50", nearest_rank(d(SpanKind::call), 0.5), "ns"});
  out.push_back({"core.call_ns_p99", nearest_rank(d(SpanKind::call), 0.99), "ns"});
  out.push_back({"core.reply_ns_p50", nearest_rank(d(SpanKind::reply), 0.5), "ns"});
  out.push_back({"core.reply_ns_p99", nearest_rank(d(SpanKind::reply), 0.99), "ns"});
  out.push_back({"core.close_ns", nearest_rank(d(SpanKind::close), 0.5), "ns"});
  out.push_back({"sim.run_self_ns_per_op", run_self / ops, "ns"});
  out.push_back({"app.handler_ns", app_self / ops, "ns"});
  out.push_back({"verbs.connect_host_us",
                 connects > 0 ? connect_sum / 1e3 / connects : 0, "us"});
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

/// Layer counts of a round, as ratios per op or per message.
void counter_metrics(const Round& r, Metrics& out) {
  const auto c = [&](Ctr k) { return static_cast<double>(r.delta[k]); };
  const double ops = static_cast<double>(r.ops);
  out.insert(out.end(), {
      {"sim.events_per_op", c(kEvents) / ops, "count/op"},
      {"core.polls_per_op", c(kPolls) / ops, "count/op"},
      {"core.poll_empty_frac", ratio(c(kEmptyPolls), c(kPolls)), "frac"},
      {"core.wrs_per_doorbell", ratio(c(kChDoorbellWrs), c(kChDoorbells)), "count"},
      {"core.inline_frac", ratio(c(kInlineSends), c(kMsgsTx)), "frac"},
      {"core.acks_per_msg", ratio(c(kAcksTx), c(kMsgsTx)), "count/msg"},
      {"core.nops_per_msg", ratio(c(kNopsTx), c(kMsgsTx)), "count/msg"},
      {"core.window_stalls_per_op", c(kWindowStalls) / ops, "count/op"},
      {"core.flowctl_queued_per_op", c(kFlowctlQueued) / ops, "count/op"},
      {"core.reads_per_op", c(kReadsIssued) / ops, "count/op"},
      {"core.memcache.allocs_per_op", c(kMemAllocs) / ops, "count/op"},
      {"core.memcache.grow_events", c(kMemGrows), "count"},
      {"core.qp_cache.hit_ratio", ratio(c(kQpHits), c(kQpHits) + c(kQpMisses)), "frac"},
      {"core.recoveries", c(kRecoveries), "count"},
      {"core.retransmits", c(kRetransmits), "count"},
      {"core.health.suspect_grades", c(kSuspectGrades), "count"},
      {"rnic.doorbells_per_op", c(kNicDoorbells) / ops, "count/op"},
      {"rnic.wqes_per_op", c(kNicWrs) / ops, "count/op"},
      {"rnic.dma_wrs_per_op", (c(kNicWrs) - c(kNicInlineWrs)) / ops, "count/op"},
      {"rnic.tx_packets_per_op", c(kNicTxPackets) / ops, "count/op"},
      {"rnic.cnps", c(kCnps), "count"},
      {"rnic.rnr_naks", c(kRnrNaks), "count"},
      {"net.ecn_marks", c(kEcnMarks), "count"},
      {"net.pause_frames", c(kPauseFrames), "count"},
      {"net.drops", c(kDrops), "count"},
      {"net.host_tx_pause_ms", c(kHostTxPauseNs) / 1e6, "ms"},
      {"net.server_port_max_queue_kb", static_cast<double>(r.port_max_queue) / 1024, "KB"},
      // Every stamped frame's header, plus the payload bytes the payload
      // CRC covers.
      {"common.crc_bytes_per_op",
       (c(kCrcStamped) * core::WireHeader::kBareSize + c(kBytesTx)) / ops, "B/op"},
  });
}

Round run_round(const Spec& spec, std::uint64_t seed, bool traced,
                Tracer& tracer, HostMeter& meter) {
  Round r;
  r.traced = traced;
  tracer.reset(traced);
  const double w0 = wall_seconds();
  Fixture f(spec, seed, tracer);
  f.trace_events(traced);
  bool ok = spec.shape == Shape::churn || f.connect_all();
  ok = ok && f.run_phase(make_ops(spec, seed ^ kWarmSalt, spec.warm_ops));
  const double setup_raw_s = wall_seconds() - w0;

  const std::vector<Op> ops = make_ops(spec, seed, spec.ops);
  r.ops = ops.size();
  const std::size_t measured_from = tracer.spans().size();
  f.reset_event_trace();
  const Counters before = f.counters();
  meter.reset();
  meter.probe();  // every round has at least one reading
  f.set_meter(&meter);
  const double c0 = cpu_seconds(), p0 = meter.spent_s();
  if (ok) f.run_phase(ops);
  const double phase_s = cpu_seconds() - c0 - (meter.spent_s() - p0);
  f.set_meter(nullptr);
  r.cpu_raw_us_per_op = phase_s * 1e6 / static_cast<double>(r.ops);
  r.probe_us = meter.probe_mean_s() * 1e6;
  r.setup_s = setup_raw_s * meter.scale();
  r.cpu_us_per_op = r.cpu_raw_us_per_op * meter.scale();
  const Counters after = f.counters();
  f.trace_events(false);
  for (int k = 0; k < kNumCtr; ++k) r.delta[k] = after[k] - before[k];
  r.port_max_queue = f.server_port_max_queue();

  r.lat = f.latencies();
  r.read_lat = f.read_latencies();
  r.write_lat = f.write_latencies();
  r.payload_bytes = f.payload_bytes();
  r.span = f.phase_span();
  // Fault-free runs: any recovery, retransmit, RNR NAK, suspect grade,
  // timeout or bad frame since the cluster was built is a correctness
  // failure.
  r.failed = f.failures();
  for (Ctr k : {kRecoveries, kRetransmits, kRnrNaks, kSuspectGrades,
                kRpcTimeouts, kBadFrames})
    r.failed += after[k];
  if (!ok && r.failed == 0) r.failed = r.ops;

  if (traced) {
    span_metrics(tracer, measured_from, static_cast<double>(r.ops), r.layer);
    r.layer.insert(r.layer.end(), {
        {"sim.host_ns_per_event", f.event_ns().mean(), "ns"},
        {"sim.host_ns_per_event_p99",
         static_cast<double>(f.event_ns().percentile(99)), "ns"},
        {"sim.pending_max", static_cast<double>(f.pending_max()), "count"},
        {"core.memcache.peak_in_use_mb",
         static_cast<double>(f.mem_peak()) / (1 << 20), "MB"},
    });
  }
  return r;
}

/// rpc_small: the highest ladder rate whose p99 meets the limit with no
/// growing backlog. The ladder stops at the first rate that misses.
double kops_at_slo(const Spec& base, std::uint64_t seed, bool tiny,
                   std::uint64_t& attempted, std::uint64_t& failed) {
  Tracer off;
  double highest = 0;
  for (double kops : kLadderKops) {
    Spec s = base;
    s.rate_kops = kops;
    const std::size_t n = tiny ? 300 : 4000;
    Fixture f(s, seed, off);
    bool ok = f.connect_all() &&
              f.run_phase(make_ops(s, seed ^ kWarmSalt, s.warm_ops));
    ok = ok && f.run_phase(make_ops(s, seed, n));
    attempted += n;
    failed += f.failures();
    const double p99 = pct_us(f.latencies(), 0.99);
    const bool met = ok && p99 <= to_micros(kSlo) && f.max_backlog() <= kMaxBacklog;
    std::printf("  ladder %6.0f kops: p99 %s us, max backlog %zu, %s\n", kops,
                num(p99).c_str(), f.max_backlog(), met ? "meets" : "misses");
    if (!met) break;
    highest = kops;
    if (tiny && highest >= kLadderKops[1]) break;
  }
  return highest;
}

void print(const Metrics& ms) {
  for (const Metric& m : ms)
    std::printf("  %-34s %22s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit);
}

int main_impl(int argc, char** argv) {
  std::string workload, spans_dir;
  std::uint64_t seed = 1;
  double run_s = 10;
  int trace = 0;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) workload = argv[++i];
    else if (a == "--seed" && has) seed = std::stoull(argv[++i]);
    else if (a == "--seconds" && has) run_s = std::stod(argv[++i]);
    else if (a == "--trace" && has) trace = std::stoi(argv[++i]);
    else if (a == "--spans" && has) spans_dir = argv[++i];
    else if (a == "--tiny") tiny = true;
    else {
      std::fprintf(stderr, "xbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  const Spec spec = spec_for(workload, tiny);
  if (spec.ops == 0) {
    std::fprintf(stderr, "xbench: unknown workload '%s'\n", workload.c_str());
    return 2;
  }

  // Untraced runs: every round measures. Traced runs alternate untraced and
  // traced rounds so the tracing overhead is a self-relative ratio.
  Tracer tracer;
  HostMeter meter;
  std::vector<Round> rounds;
  const std::size_t min_rounds = trace ? 4 : 3;
  double peak_rss_mb = 0;
  const double t0 = wall_seconds();
  while (rounds.size() < min_rounds || wall_seconds() - t0 < run_s) {
    const bool traced = trace != 0 && rounds.size() % 2 == 1;
    rounds.push_back(run_round(spec, seed, traced, tracer, meter));
    // Peak memory of one set-up and measured phase; later rounds would add
    // the allocator's leftovers from rebuilding the cluster.
    if (rounds.size() == 1) peak_rss_mb = peak_rss_now_mb();
    if (traced && !spans_dir.empty()) {
      tracer.write_tsv(spans_dir + "/spans_" + workload + "_" +
                       std::to_string(seed) + ".tsv");
    }
  }

  const Round& first = rounds.front();
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> setup, cpu, cpu_traced, cpu_raw, probe;
  for (const Round& r : rounds) {
    attempted += r.ops;
    failed += r.failed;
    if (!r.same_sim(first)) {
      std::fprintf(stderr, "xbench: round diverged from the first round\n");
      failed += r.ops;
    }
    (r.traced ? cpu_traced : cpu).push_back(r.cpu_us_per_op);
    if (r.traced) continue;
    setup.push_back(r.setup_s);
    cpu_raw.push_back(r.cpu_raw_us_per_op);
    probe.push_back(r.probe_us);
  }
  std::printf("xbench workload=%s seed=%llu rounds=%zu ops/round=%llu\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              rounds.size(), static_cast<unsigned long long>(first.ops));
  std::printf("  host cpu us/op by round, raw/probe us/scaled:");
  for (const Round& r : rounds) {
    std::printf(" %.1f/%.0f/%.1f%s", r.cpu_raw_us_per_op, r.probe_us,
                r.cpu_us_per_op, r.traced ? "t" : "");
  }
  std::printf("\n");
  const bool rpc = workload == "rpc_small", storage = workload == "storage_rw",
             churn = workload == "conn_churn";
  const double at_slo =
      rpc ? kops_at_slo(spec, seed, tiny, attempted, failed) : 0;

  const double span_s = static_cast<double>(first.span) / 1e9;
  // Host times are medians of the rounds' probe-scaled times.
  const Metrics e2e = {
      {"setup_s", median(setup), "s"},
      {"host_cpu_us_per_op", median(cpu), "us"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"sim_p50_us", pct_us(first.lat, 0.5), "us"},
      {"sim_p99_us", pct_us(first.lat, 0.99), "us"},
      {"sim_goodput_gbps",
       static_cast<double>(first.payload_bytes) * 8 / span_s / 1e9, "Gbps"},
  };
  // End-to-end metrics that only some workloads have, printed where they
  // apply. BENCHMARK.json lists them as per-layer (ungated) because every
  // workload must print every gated metric; elsewhere they read 0.
  struct Own {
    Metric m;
    bool applies;
  };
  const Own own[] = {
      {{"sim_kops_at_slo", at_slo, "kops"}, rpc},
      {{"sim_read_p99_us", pct_us(first.read_lat, 0.99), "us"}, storage},
      {{"sim_write_p99_us", pct_us(first.write_lat, 0.99), "us"}, storage},
      {{"sim_connects_per_s",
        churn ? static_cast<double>(first.ops) / span_s : 0, "1/s"},
       churn},
      {{"fail_frac", static_cast<double>(failed) / static_cast<double>(attempted),
        "frac"},
       true},
  };
  print(e2e);
  for (const Own& o : own)
    if (o.applies) print({o.m});

  // The last line's JSON carries the end-to-end metrics (--trace 0) or the
  // per-layer ones (--trace 1).
  Metrics out = e2e;
  if (trace != 0) {
    // Counts from the first round (every round has the same ones); host
    // numbers as medians over the traced rounds (marked t above).
    out.clear();
    counter_metrics(first, out);
    const Round& traced = rounds[1];
    for (std::size_t j = 0; j < traced.layer.size(); ++j) {
      std::vector<double> v;
      for (const Round& r : rounds)
        if (r.traced) v.push_back(r.layer[j].value);
      out.push_back({traced.layer[j].name, median(v), traced.layer[j].unit});
    }
    out.insert(out.end(), {
        {"trace_overhead_pct", (median(cpu_traced) / median(cpu) - 1) * 100, "%"},
        {"host.raw_cpu_us_per_op", median(cpu_raw), "us"},
        {"host.probe_us", median(probe), "us"},
    });
    print(out);
    for (const Own& o : own) out.push_back(o.m);
  }

  const bool correct = failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + num(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace xbench

int main(int argc, char** argv) { return xbench::main_impl(argc, argv); }
