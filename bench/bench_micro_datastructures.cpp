// Microbenchmarks (google-benchmark) for the hot-path data structures: the
// event engine, deadline-timer re-arm and idle busy polling, CRC32C, the
// seq-ack window, the memory-cache allocator and a channel's bounce ring,
// the DCQCN catch-up of a recycled QP, histogram recording, and wire
// header encode/decode. These bound the simulator's own throughput
// (events/sec) and the middleware's per-message CPU work.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/crc32c.hpp"
#include "common/histogram.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "core/memcache.hpp"
#include "core/msg.hpp"
#include "core/context.hpp"
#include "core/window.hpp"
#include "rnic/dcqcn.hpp"
#include "sim/engine.hpp"
#include "sim/timer.hpp"
#include "testbed/cluster.hpp"

namespace {

using namespace xrdma;

void BM_EngineScheduleFire(benchmark::State& state) {
  sim::Engine eng;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    eng.schedule_after(100, [&sink] { ++sink; });
    eng.step();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EngineScheduleFire);

void BM_EngineDeepQueue(benchmark::State& state) {
  // Scheduling into a heap that already holds `depth` pending events.
  const int depth = static_cast<int>(state.range(0));
  sim::Engine eng;
  std::uint64_t sink = 0;
  for (int i = 0; i < depth; ++i) {
    eng.schedule_after(seconds(1) + i, [&sink] { ++sink; });
  }
  for (auto _ : state) {
    eng.schedule_after(100, [&sink] { ++sink; });
    eng.step();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EngineDeepQueue)->Arg(1000)->Arg(100000);

void BM_DeadlineTimerRearm(benchmark::State& state) {
  // Pushing back a pending deadline (keepalive deferral on every send)
  // with `depth` other events
  // pending. The deadline alternates between the front and the back of
  // the queue, so every re-arm crosses the whole heap: the worst case.
  const int depth = static_cast<int>(state.range(0));
  sim::Engine eng;
  for (int i = 0; i < depth; ++i) eng.schedule_after(seconds(1) + i, [] {});
  sim::DeadlineTimer timer(eng, [] {});
  bool far = false;
  for (auto _ : state) {
    timer.arm_after(far ? seconds(2) : millis(1));
    far = !far;
  }
  state.counters["pending"] = static_cast<double>(eng.pending());
}
BENCHMARK(BM_DeadlineTimerRearm)->Arg(1000)->Arg(100000);

void BM_IdleBusyPoll(benchmark::State& state) {
  // Two busy-polling contexts with nothing to do, 1 ms of simulated time
  // per iteration: 20k empty polls, accounted as quiet-train ticks rather
  // than fired one engine event each.
  testbed::Cluster cluster;
  core::Config cfg;
  cfg.poll_mode = core::PollMode::busy;
  core::Context a(cluster.rnic(0), cluster.cm(), cfg);
  core::Context b(cluster.rnic(1), cluster.cm(), cfg);
  a.start_polling_loop();
  b.start_polling_loop();
  sim::Engine& eng = cluster.engine();
  const std::uint64_t fired0 = eng.events_fired();
  const std::uint64_t polls0 = a.stats().polls + b.stats().polls;
  for (auto _ : state) eng.run_for(millis(1));
  state.counters["events_fired"] = benchmark::Counter(
      static_cast<double>(eng.events_fired() - fired0),
      benchmark::Counter::kAvgIterations);
  state.counters["polls"] = benchmark::Counter(
      static_cast<double>(a.stats().polls + b.stats().polls - polls0),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_IdleBusyPoll);

template <std::uint32_t (*Extend)(std::uint32_t, const void*, std::size_t)>
void crc_bench(benchmark::State& state) {
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131);
  }
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = Extend(crc, buf.data(), buf.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_Crc32c(benchmark::State& state) {
  // The dispatched path: the SSE4.2 instruction where the CPU has it.
  state.SetLabel(crc32c_hardware() ? "sse4.2" : "table");
  crc_bench<crc32c_extend>(state);
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Crc32cPortable(benchmark::State& state) {
  crc_bench<crc32c_extend_portable>(state);
}
BENCHMARK(BM_Crc32cPortable)->Arg(64)->Arg(4096)->Arg(65536);

void BM_RingBufferPushPop(benchmark::State& state) {
  RingBuffer<std::uint64_t> ring(64);
  std::uint64_t v = 0;
  for (auto _ : state) {
    ring.push(v++);
    benchmark::DoNotOptimize(ring.pop());
  }
}
BENCHMARK(BM_RingBufferPushPop);

void BM_SendWindowCycle(benchmark::State& state) {
  core::SendWindow<std::uint64_t> win(64);
  core::Seq seq = 0;
  for (auto _ : state) {
    win.push(seq);
    win.process_ack(seq + 1, [](core::Seq, std::uint64_t&) {});
    ++seq;
  }
}
BENCHMARK(BM_SendWindowCycle);

void BM_RecvWindowCycle(benchmark::State& state) {
  core::RecvWindow<std::uint64_t> win(64);
  core::Seq seq = 0;
  for (auto _ : state) {
    win.arrive(seq);
    win.complete(seq, [](core::Seq, std::uint64_t&) {});
    win.note_ack_sent();
    ++seq;
  }
}
BENCHMARK(BM_RecvWindowCycle);

void BM_MemCacheAllocFree(benchmark::State& state) {
  testbed::Cluster cluster;
  core::MemCacheConfig cfg;
  cfg.isolation = state.range(0) != 0;
  core::MemCache cache(cluster.rnic(0), cfg);
  for (auto _ : state) {
    core::MemBlock b = cache.alloc(4096);
    cache.free(b);
  }
}
BENCHMARK(BM_MemCacheAllocFree)->Arg(0)->Arg(1);

void BM_MemCacheRing(benchmark::State& state) {
  // One channel's bounce ring with isolation on: connect allocates every
  // slot from the control cache, close frees them in the same order.
  const core::Config defaults;
  const std::uint32_t slots = 2 * defaults.window_depth + 8;
  const std::uint32_t size = core::WireHeader::kBareSize +
                             core::WireHeader::kTraceSize +
                             defaults.small_msg_size;
  testbed::Cluster cluster;
  core::MemCache cache(cluster.rnic(0), {.isolation = true});
  std::vector<core::MemBlock> ring(slots);
  for (auto _ : state) {
    for (auto& b : ring) b = cache.alloc(size, /*privileged=*/true);
    for (const auto& b : ring) cache.free(b);
  }
  state.SetItemsProcessed(state.iterations() * slots);
}
BENCHMARK(BM_MemCacheRing);

void BM_DcqcnAdvanceAfterIdle(benchmark::State& state) {
  // A recycled QP's first pump: QP reset rebuilds the controller with its
  // clocks at 0, then the NIC advances it to the current sim time.
  const Nanos now = seconds(state.range(0));
  const rnic::DcqcnConfig cfg;
  for (auto _ : state) {
    rnic::Dcqcn d(cfg, 25.0);
    benchmark::DoNotOptimize(d);
    d.advance(now);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DcqcnAdvanceAfterIdle)->Arg(1)->Arg(60);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(3);
  for (auto _ : state) {
    h.record(static_cast<std::int64_t>(rng.next_below(1u << 20)));
  }
  benchmark::DoNotOptimize(h.percentile(99));
}
BENCHMARK(BM_HistogramRecord);

void BM_WireHeaderEncodeDecode(benchmark::State& state) {
  core::WireHeader hdr;
  hdr.flags = core::kFlagRpcReq | core::kFlagTraced;
  hdr.seq = 123456;
  hdr.ack = 123450;
  hdr.payload_len = 4096;
  std::uint8_t buf[128];
  for (auto _ : state) {
    hdr.encode(buf);
    core::WireHeader out;
    benchmark::DoNotOptimize(
        core::WireHeader::decode(buf, sizeof(buf), out));
  }
}
BENCHMARK(BM_WireHeaderEncodeDecode);

void BM_EagerSmallSendTxPath(benchmark::State& state) {
  // Sender-side cost of one 64 B eager message with inline sends off
  // (Arg 0: MemCache staging copy + simulated DMA) vs on (Arg 1: payload
  // rides in the WQE). The exported counter proves the staging copy is
  // actually skipped, not just cheaper.
  testbed::Cluster cluster;
  core::Config cfg;
  if (state.range(0) == 0) cfg.inline_max = 0;
  core::Context server(cluster.rnic(1), cluster.cm(), cfg);
  core::Context client(cluster.rnic(0), cluster.cm(), cfg);
  core::Channel* ch = nullptr;
  std::uint64_t delivered = 0;
  server.listen(7000, [&](core::Channel& c) {
    c.set_on_msg([&](core::Channel&, core::Msg&&) { ++delivered; });
  });
  client.connect(1, 7000, [&](Result<core::Channel*> r) { ch = r.value(); });
  cluster.engine().run_for(millis(30));
  for (auto _ : state) {
    ch->send_msg(Buffer::make(64));
    client.polling();
    server.polling();
    cluster.engine().run_for(micros(20));
  }
  benchmark::DoNotOptimize(delivered);
  state.counters["eager_copies_avoided"] = static_cast<double>(
      ch->stats().eager_copies_avoided);
  state.counters["inline_sends"] = static_cast<double>(
      ch->stats().inline_sends);
}
BENCHMARK(BM_EagerSmallSendTxPath)->Arg(0)->Arg(1);

void BM_FullStackSmallMessage(benchmark::State& state) {
  // End-to-end simulator cost of one small message (wall time per
  // simulated message, all layers included).
  testbed::Cluster cluster;
  core::Context server(cluster.rnic(1), cluster.cm());
  core::Context client(cluster.rnic(0), cluster.cm());
  core::Channel* ch = nullptr;
  std::uint64_t delivered = 0;
  server.listen(7000, [&](core::Channel& c) {
    c.set_on_msg([&](core::Channel&, core::Msg&&) { ++delivered; });
  });
  client.connect(1, 7000, [&](Result<core::Channel*> r) { ch = r.value(); });
  cluster.engine().run_for(millis(30));
  for (auto _ : state) {
    ch->send_msg(Buffer::synthetic(64));
    client.polling();
    server.polling();
    cluster.engine().run_for(micros(20));
  }
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_FullStackSmallMessage);

}  // namespace

BENCHMARK_MAIN();
