// X-Check health plane: the flap (victim host toggling down/up) and
// brownout (persistent bounded latency inflation) schedule shapes must keep
// all twelve oracles green — in particular oracle 11 (no false dead while
// injected delay stays under the configured bound) and oracle 12 (no CM
// connect past a closed breaker gate) — and the replay format must carry
// the new knobs without breaking pre-existing replay files.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>

#include "check/harness.hpp"
#include "check/schedule.hpp"

namespace xrdma::check {
namespace {

RunOptions quiet() {
  RunOptions opt;
  opt.verbose = false;
  return opt;
}

/// Victim host toggles down/up twice across a long horizon: each down
/// window (~19ms) comfortably exceeds the fixed detection bound
/// (keepalive_intv 2ms + keepalive_timeout 10ms), so the detector and the
/// circuit breaker must both trip — and both recoveries must land cleanly.
ScheduleParams flap_params(bool adaptive) {
  ScheduleParams p;
  p.num_hosts = 3;
  p.num_ops = 80;
  p.num_faults = 6;
  p.horizon = millis(120);
  p.flap_cycles = 2;
  p.health_adaptive = adaptive;
  return p;
}

/// Every link carries a persistent 0..3ms ingress+egress delay — well under
/// the detector's bound in both fixed and adaptive mode. No other faults,
/// so oracle 11 stays armed: latency inflation must never read as death.
ScheduleParams brownout_params(bool adaptive) {
  ScheduleParams p;
  p.num_hosts = 3;
  p.num_ops = 110;
  p.num_faults = 0;
  p.brownout_delay_us = 3000;
  p.health_adaptive = adaptive;
  return p;
}

TEST(HealthShapes, FlapSeedsSatisfyAllOracles) {
  std::uint64_t total_dead = 0;
  std::uint64_t total_breaker_opens = 0;
  std::size_t i = 0;
  for (const std::uint64_t seed : smoke_seeds(20)) {
    const bool adaptive = (i++ % 2) == 1;
    SCOPED_TRACE(testing::Message()
                 << "XCHECK_SEED=" << seed << " adaptive=" << adaptive);
    const RunReport r = check_seed(seed, flap_params(adaptive), quiet());
    EXPECT_TRUE(r.passed()) << describe(r);
    EXPECT_GT(r.msgs_delivered, 0u) << describe(r);
    EXPECT_GT(r.faults_injected, 0u) << describe(r);
    total_dead += r.health.dead_declarations;
    total_breaker_opens += r.health.breaker_opens;
  }
  // The shape exists to drive the failure detector and the breaker: across
  // the sweep somebody must actually have been declared dead and tripped a
  // breaker — a sweep that never detects anything proves nothing.
  EXPECT_GT(total_dead, 0u);
  EXPECT_GT(total_breaker_opens, 0u);
}

TEST(HealthShapes, BrownoutSeedsSatisfyAllOracles) {
  std::size_t i = 0;
  for (const std::uint64_t seed : smoke_seeds(20)) {
    const bool adaptive = (i++ % 2) == 1;
    SCOPED_TRACE(testing::Message()
                 << "XCHECK_SEED=" << seed << " adaptive=" << adaptive);
    const RunReport r = check_seed(seed, brownout_params(adaptive), quiet());
    // Oracle 11 is armed for the whole workload window (the schedule has no
    // silencing fault): a dead declaration while only bounded delay was
    // injected fails the run. Quiesce's flush kills may declare dead after
    // that — legitimately — so there is no blanket dead==0 assertion here.
    EXPECT_TRUE(r.passed()) << describe(r);
    EXPECT_GT(r.msgs_delivered, 0u) << describe(r);
  }
}

TEST(HealthShapes, FlapScheduleTogglesOneVictim) {
  const Schedule s = generate_schedule(77, flap_params(false));
  std::uint32_t downs = 0, ups = 0;
  int victim = -1;
  for (const FaultOp& f : s.faults) {
    if (f.kind == analysis::FaultKind::host_down) {
      ++downs;
      if (victim < 0) victim = f.node;
      EXPECT_EQ(f.node, victim);
    } else if (f.kind == analysis::FaultKind::host_up) {
      ++ups;
      EXPECT_EQ(f.node, victim);
    }
  }
  EXPECT_EQ(downs, 2u);
  EXPECT_EQ(ups, 2u);
  EXPECT_GE(victim, 0);
  EXPECT_LT(victim, 3);
}

TEST(HealthShapes, RunsAreDeterministicUnderFlap) {
  // Keepalive probes, breaker fast-fails and hold-down timers all ride the
  // engine; none of that may introduce nondeterminism.
  const Schedule s = generate_schedule(4242, flap_params(true));
  const RunReport a = run_schedule(s, quiet());
  const RunReport b = run_schedule(s, quiet());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.health.dead_declarations, b.health.dead_declarations);
  EXPECT_EQ(a.violations, b.violations);
}

TEST(HealthShapes, ReplayRoundTripsHealthParams) {
  Schedule s = generate_schedule(31, flap_params(true));
  s.params.brownout_delay_us = 1500;
  Schedule back;
  ASSERT_TRUE(deserialize_schedule(serialize_schedule(s), back));
  EXPECT_EQ(back.params.flap_cycles, s.params.flap_cycles);
  EXPECT_EQ(back.params.brownout_delay_us, 1500u);
  EXPECT_TRUE(back.params.health_adaptive);
  EXPECT_EQ(serialize_schedule(back), serialize_schedule(s));
}

TEST(HealthShapes, LegacyReplayFilesWithoutHealthKeysStillLoad) {
  // A replay written before the health plane existed has no flap /
  // brownout / adaptive keys: it must parse and default to the fixed-bound
  // behaviour with no injected flaps.
  const std::string legacy =
      "xcheck v1\n"
      "seed 12\n"
      "params hosts 2 slots 1 numops 4 numfaults 0 horizon 1000000\n"
      "op 1000 send 0 1 0 512 7\n"
      "end\n";
  Schedule s;
  ASSERT_TRUE(deserialize_schedule(legacy, s));
  EXPECT_EQ(s.params.flap_cycles, 0u);
  EXPECT_EQ(s.params.brownout_delay_us, 0u);
  EXPECT_FALSE(s.params.health_adaptive);
  EXPECT_EQ(s.ops.size(), 1u);
}

// Wall-clock-bounded flap soak for the nightly job: fresh seeds of the
// flap shape (alternating fixed / adaptive detection) until
// XCHECK_FLAP_SOAK_MS expires. Skipped unless the env var is set.
TEST(Soak, FlapSeedsUntilWallClockBudgetExpires) {
  const char* budget_env = std::getenv("XCHECK_FLAP_SOAK_MS");
  if (!budget_env) GTEST_SKIP() << "set XCHECK_FLAP_SOAK_MS to enable";
  const long budget_ms = std::strtol(budget_env, nullptr, 0);
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t base = 0xf1a9ULL;
  if (const char* env = std::getenv("XCHECK_SEED")) {
    if (std::string(env) == "random") {
      base = (static_cast<std::uint64_t>(std::random_device{}()) << 32) ^
             std::random_device{}();
      std::fprintf(stderr, "[xcheck] flap soak: random base %llu\n",
                   static_cast<unsigned long long>(base));
    } else {
      base = std::strtoull(env, nullptr, 0);
    }
  }
  std::uint64_t runs = 0;
  while (std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
             .count() < budget_ms) {
    const std::uint64_t seed = base + runs;
    SCOPED_TRACE(testing::Message() << "XCHECK_SEED=" << seed);
    RunOptions opt = quiet();
    if (const char* dir = std::getenv("XCHECK_REPLAY_DIR")) {
      opt.replay_path = std::string(dir) + "/xcheck_flap_" +
                        std::to_string(seed) + ".replay";
      opt.dump_dir = dir;  // flight dumps ride the same artifact upload
      opt.verbose = true;
    }
    opt.capture_dumps = std::getenv("XCHECK_CAPTURE_DUMPS") != nullptr;
    const RunReport r = check_seed(seed, flap_params(runs % 2 == 1), opt);
    ASSERT_TRUE(r.passed()) << describe(r);
    ++runs;
  }
  std::fprintf(stderr, "[xcheck] flap soak: %llu seeds in %ld ms budget\n",
               static_cast<unsigned long long>(runs), budget_ms);
  EXPECT_GT(runs, 0u);
}

}  // namespace
}  // namespace xrdma::check
