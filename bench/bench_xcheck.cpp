// Cost of the X-Check conformance gate.
//
// Every perf PR runs the 20-seed smoke sweep, so the harness's own
// throughput is a budget worth tracking: a regression here silently
// stretches CI. Measures one full generate -> run -> oracle-check cycle
// per iteration (default params: 3 hosts, ~110 ops, ~14 faults, 30 ms of
// simulated time), the schedule-only cost, and a shrink pass over a
// passing run's candidate executions.
#include <benchmark/benchmark.h>

#include <chrono>

#include "check/harness.hpp"
#include "check/schedule.hpp"

using namespace xrdma;
using namespace xrdma::check;

namespace {

RunOptions quiet() {
  RunOptions opt;
  opt.verbose = false;
  return opt;
}

void BM_GenerateSchedule(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_schedule(seed++));
  }
}
BENCHMARK(BM_GenerateSchedule);

void BM_CheckSeed(benchmark::State& state) {
  // X-Check throughput: seeds per minute, plus the logical event rate
  // (fired events and accounted quiet poll ticks) and the events actually
  // fired per seed.
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  std::uint64_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const RunReport r = check_seed(seed++, {}, quiet());
    if (!r.passed()) state.SkipWithError("oracle violation in bench run");
    events += r.events;
    fired += r.events_fired;
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  state.counters["sim_events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["seeds/min"] =
      60.0 * static_cast<double>(state.iterations()) / wall.count();
  state.counters["fired/seed"] = benchmark::Counter(
      static_cast<double>(fired), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CheckSeed)->Unit(benchmark::kMillisecond);

void BM_CheckSeedContinuousOff(benchmark::State& state) {
  // The continuous-oracle probes walk every channel between events; this
  // isolates their overhead from the simulation itself.
  RunOptions opt = quiet();
  opt.continuous_checks = false;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const RunReport r = check_seed(seed++, {}, opt);
    if (!r.passed()) state.SkipWithError("oracle violation in bench run");
  }
}
BENCHMARK(BM_CheckSeedContinuousOff)->Unit(benchmark::kMillisecond);

void BM_SmallSchedule(benchmark::State& state) {
  // The shape the shrinker re-executes dozens of times per minimization.
  ScheduleParams p;
  p.num_hosts = 2;
  p.num_ops = 40;
  p.num_faults = 16;
  p.horizon = millis(12);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const RunReport r = run_schedule(generate_schedule(seed++, p), quiet());
    if (!r.passed()) state.SkipWithError("oracle violation in bench run");
  }
}
BENCHMARK(BM_SmallSchedule)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
