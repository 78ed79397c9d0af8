// X-Check batching shape: the small-message schedule (workload skewed to
// sizes straddling the inline boundary, per-node randomized inline_max,
// qp_kill faults landing right after send bursts so WRs die between
// framing and doorbell) must keep every oracle green — in particular
// oracle 1 (exactly-once delivery across a mid-send QP kill and the
// inline replay that follows). Replays must carry the knob and stay
// bit-identical.
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

/// Batching shape over the default 30 ms horizon: 80% of sends land at or
/// below the inline-interesting sizes (0..257 B), every node draws its own
/// inline_max (off, 64, 256), and the generator appends mid-send qp_kill
/// faults shortly after send bursts.
ScheduleParams batching_params() {
  ScheduleParams p;
  p.num_hosts = 3;
  p.num_ops = 120;
  p.num_faults = 10;
  p.batch_shape = 1;
  return p;
}

TEST(BatchingShapes, BatchingSeedsSatisfyAllOracles) {
  std::uint64_t inlined = 0;
  std::uint64_t doorbells = 0, doorbell_wrs = 0;
  for (const std::uint64_t seed : smoke_seeds(20)) {
    SCOPED_TRACE(testing::Message() << "XCHECK_SEED=" << seed);
    const RunReport r = check_seed(seed, batching_params(), quiet());
    EXPECT_TRUE(r.passed()) << describe(r);
    EXPECT_GT(r.msgs_delivered, 0u) << describe(r);
    inlined += r.chan.inline_sends;
    doorbells += r.chan.doorbells;
    doorbell_wrs += r.chan.doorbell_wrs;
  }
  // The shape exists to drive the inline fast path: across the sweep
  // inline sends must actually have fired. Every data WR rings its own
  // doorbell — the middleware never chains.
  EXPECT_GT(inlined, 0u);
  EXPECT_GT(doorbells, 0u);
  EXPECT_EQ(doorbell_wrs, doorbells);
}

TEST(BatchingShapes, MidSendKillsAreGeneratedAndSurvived) {
  // The generator plants qp_kill faults ~300 ns after send bursts when the
  // batching shape is on: WRs die between framing and completion. Check
  // the faults exist (on top of the base fault budget) and that runs with
  // them still pass every oracle.
  std::size_t with_extra_kills = 0;
  std::size_t i = 0;
  for (const std::uint64_t seed : smoke_seeds(20)) {
    if (i++ >= 6) break;  // schedule inspection is cheap; runs are not
    const Schedule s = generate_schedule(seed, batching_params());
    if (s.faults.size() > batching_params().num_faults) ++with_extra_kills;
    SCOPED_TRACE(testing::Message() << "XCHECK_SEED=" << seed);
    const RunReport r = run_schedule(s, quiet());
    EXPECT_TRUE(r.passed()) << describe(r);
  }
  EXPECT_GT(with_extra_kills, 0u);
}

TEST(BatchingShapes, RunsAreDeterministicUnderBatching) {
  // Inline WQE payloads and mid-send kills all ride the engine; none of it
  // may introduce nondeterminism — and the flight-recorder dumps must come
  // out bit-identical across replays.
  const Schedule s = generate_schedule(4242, batching_params());
  RunOptions opt = quiet();
  opt.capture_dumps = true;
  const RunReport a = run_schedule(s, opt);
  const RunReport b = run_schedule(s, opt);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.chan.inline_sends, b.chan.inline_sends);
  EXPECT_EQ(a.chan.doorbells, b.chan.doorbells);
  EXPECT_EQ(a.violations, b.violations);
  ASSERT_EQ(a.dumps.size(), b.dumps.size());
  for (std::size_t i = 0; i < a.dumps.size(); ++i) {
    EXPECT_EQ(a.dumps[i], b.dumps[i]) << "node " << i << " dump differs";
  }
}

TEST(BatchingShapes, ReplayRoundTripsBatchShape) {
  Schedule s = generate_schedule(31, batching_params());
  s.params.batch_shape = 7;
  Schedule back;
  ASSERT_TRUE(deserialize_schedule(serialize_schedule(s), back));
  EXPECT_EQ(back.params.batch_shape, 7u);
  EXPECT_EQ(serialize_schedule(back), serialize_schedule(s));
}

TEST(BatchingShapes, LegacyReplayFilesWithoutBatchingKeyStillLoad) {
  // A replay written before the batching shape existed has no `batching`
  // key: it must parse, default to shape 0 (production-default knobs on
  // every node, no size skew, no extra kills), and run unchanged.
  const std::string legacy =
      "xcheck v1\n"
      "seed 12\n"
      "params hosts 2 slots 1 numops 4 numfaults 0 horizon 1000000 "
      "flap 0 adaptive 0\n"
      "op 1000 send 0 1 0 512 7\n"
      "end\n";
  Schedule s;
  ASSERT_TRUE(deserialize_schedule(legacy, s));
  EXPECT_EQ(s.params.batch_shape, 0u);
  const RunReport r = run_schedule(s, quiet());
  EXPECT_TRUE(r.passed()) << describe(r);
}

// Wall-clock-bounded batching soak for the nightly job (run under ASan
// there): fresh batching-shape seeds until XCHECK_BATCH_SOAK_MS expires.
// Skipped unless the env var is set.
TEST(Soak, BatchingSeedsUntilWallClockBudgetExpires) {
  const char* budget_env = std::getenv("XCHECK_BATCH_SOAK_MS");
  if (!budget_env) GTEST_SKIP() << "set XCHECK_BATCH_SOAK_MS to enable";
  const long budget_ms = std::strtol(budget_env, nullptr, 0);
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t base = 0xba7cULL;
  if (const char* env = std::getenv("XCHECK_SEED")) {
    if (std::string(env) == "random") {
      base = (static_cast<std::uint64_t>(std::random_device{}()) << 32) ^
             std::random_device{}();
      std::fprintf(stderr, "[xcheck] batching soak: random base %llu\n",
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
      opt.replay_path = std::string(dir) + "/xcheck_batching_" +
                        std::to_string(seed) + ".replay";
      opt.dump_dir = dir;
      opt.verbose = true;
    }
    const RunReport r = check_seed(seed, batching_params(), opt);
    ASSERT_TRUE(r.passed()) << describe(r);
    ++runs;
  }
  std::fprintf(stderr,
               "[xcheck] batching soak: %llu seeds in %ld ms budget\n",
               static_cast<unsigned long long>(runs), budget_ms);
  EXPECT_GT(runs, 0u);
}

}  // namespace
}  // namespace xrdma::check
