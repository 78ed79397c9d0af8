// X-Check corruption shape: with corruption_shape set, the generator boosts
// the ingress/egress-corrupt share of the fault draw and ~3/4 of the nodes
// arm the end-to-end integrity plane (kFeatE2eCrc), so CRC-protected and
// CRC-free channels coexist in one run. Oracle 15: flows whose channel
// negotiated the feature must survive every corruption losslessly — no
// corrupted, reordered, duplicated or mis-sized delivery, exactly-once
// preserved — healed by the CRC32C TLV + integrity-NAK retransmit path.
// Flows without the feature keep the legacy expected-fail carve-out: their
// anomalies are tolerated and counted, never fatal. Replays must carry the
// new knob and stay bit-identical.
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

/// Corruption shape over the default 30 ms horizon: ~30% of the fault
/// budget flips one wire byte (2/3 ingress, 1/3 egress), per-node e2e_crc
/// drawn from (seed, shape, node) with ~3/4 of nodes protected.
ScheduleParams corruption_params() {
  ScheduleParams p;
  p.num_hosts = 3;
  p.num_ops = 110;
  p.num_faults = 14;
  p.corruption_shape = 1;
  return p;
}

TEST(CorruptionShapes, CorruptionSeedsSatisfyAllOracles) {
  std::uint64_t stamped = 0, failures = 0, naks = 0, retransmits = 0;
  std::uint64_t anomalies = 0;
  for (const std::uint64_t seed : smoke_seeds(20)) {
    SCOPED_TRACE(testing::Message() << "XCHECK_SEED=" << seed);
    const RunReport r = check_seed(seed, corruption_params(), quiet());
    EXPECT_TRUE(r.passed()) << describe(r);
    EXPECT_GT(r.msgs_delivered, 0u) << describe(r);
    // Exhaustion would fold a transient corruption into a channel teardown;
    // with one-shot faults and a retry budget of 3 it must never trigger.
    EXPECT_EQ(r.chan.integrity_exhausted, 0u) << describe(r);
    stamped += r.chan.crc_stamped_tx;
    failures += r.chan.crc_failures_rx;
    naks += r.chan.integrity_naks_tx;
    retransmits += r.chan.integrity_retransmits;
    anomalies += r.unprotected_anomalies;
  }
  // The shape exists to drive the integrity plane: across the sweep frames
  // must actually have been stamped, corruption must actually have been
  // caught, and at least one NAK'd frame must have been replayed from the
  // send window. A green sweep in which no CRC ever failed proves nothing.
  EXPECT_GT(stamped, 0u);
  EXPECT_GT(failures, 0u);
  EXPECT_GT(naks, 0u);
  EXPECT_GT(retransmits, 0u);
  // Sanity, not an assertion on `anomalies`: unprotected nodes exist by
  // construction (~1/4), but whether a corrupt fault lands on one is up to
  // the draw — so it is merely reported here.
  (void)anomalies;
}

TEST(CorruptionShapes, CorruptFaultsAreActuallyGenerated) {
  // The boosted draw must plant ingress/egress-corrupt faults without
  // with_corruption being set — that legacy switch stays expected-fail.
  std::size_t corrupt_faults = 0;
  for (const std::uint64_t seed : smoke_seeds(20)) {
    const Schedule s = generate_schedule(seed, corruption_params());
    EXPECT_FALSE(s.params.with_corruption);
    for (const FaultOp& f : s.faults) {
      if (f.kind == analysis::FaultKind::ingress_corrupt ||
          f.kind == analysis::FaultKind::egress_corrupt) {
        ++corrupt_faults;
      }
    }
  }
  EXPECT_GT(corrupt_faults, 0u);
}

TEST(CorruptionShapes, RunsAreDeterministicUnderCorruption) {
  // CRC stamping, verification drops, integrity NAKs and go-back-N
  // retransmits all ride the engine; same seed must replay bit-identically
  // down to the flight-recorder dumps.
  const Schedule s = generate_schedule(4242, corruption_params());
  RunOptions opt = quiet();
  opt.capture_dumps = true;
  const RunReport a = run_schedule(s, opt);
  const RunReport b = run_schedule(s, opt);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.chan.crc_failures_rx, b.chan.crc_failures_rx);
  EXPECT_EQ(a.chan.integrity_naks_tx, b.chan.integrity_naks_tx);
  EXPECT_EQ(a.chan.integrity_retransmits, b.chan.integrity_retransmits);
  EXPECT_EQ(a.unprotected_anomalies, b.unprotected_anomalies);
  EXPECT_EQ(a.violations, b.violations);
  ASSERT_EQ(a.dumps.size(), b.dumps.size());
  for (std::size_t i = 0; i < a.dumps.size(); ++i) {
    EXPECT_EQ(a.dumps[i], b.dumps[i]) << "node " << i << " dump differs";
  }
}

TEST(CorruptionShapes, ReplayRoundTripsCorruptionShape) {
  Schedule s = generate_schedule(31, corruption_params());
  s.params.corruption_shape = 9;
  Schedule back;
  ASSERT_TRUE(deserialize_schedule(serialize_schedule(s), back));
  EXPECT_EQ(back.params.corruption_shape, 9u);
  EXPECT_EQ(serialize_schedule(back), serialize_schedule(s));
}

TEST(CorruptionShapes, LegacyReplayFilesWithoutCrcShapeKeyStillLoad) {
  // A replay written before the integrity plane existed has no `crcshape`
  // key: it must parse, default to shape 0 (baseline e2e_crc off on every
  // node — the legacy expected-fail semantics), and run unchanged.
  const std::string legacy =
      "xcheck v1\n"
      "seed 12\n"
      "params hosts 2 slots 1 numops 4 numfaults 0 horizon 1000000 "
      "flap 0 adaptive 0\n"
      "op 1000 send 0 1 0 512 7\n"
      "end\n";
  Schedule s;
  ASSERT_TRUE(deserialize_schedule(legacy, s));
  EXPECT_EQ(s.params.corruption_shape, 0u);
  const RunReport r = run_schedule(s, quiet());
  EXPECT_TRUE(r.passed()) << describe(r);
}

TEST(CorruptionShapes, ComposesWithMixedVersionsAndRemainsGreen) {
  // Rolling upgrade meets the integrity plane: even hosts speak v1 (no
  // feature bits at all), odd hosts draw e2e_crc from the shape. Mixed
  // pairs must negotiate CRC off cleanly and still pass every oracle —
  // their anomalies under corruption fall under the tolerated class.
  ScheduleParams p = corruption_params();
  p.mixed_versions = true;
  std::size_t i = 0;
  for (const std::uint64_t seed : smoke_seeds(20)) {
    if (i++ >= 6) break;  // the full matrix rides the plain sweep above
    SCOPED_TRACE(testing::Message() << "XCHECK_SEED=" << seed);
    const RunReport r = check_seed(seed, p, quiet());
    EXPECT_TRUE(r.passed()) << describe(r);
  }
}

// ---------------------------------------------------------------------------
// Wall-clock-bounded corruption soak for the nightly job (run under ASan
// there): fresh corruption-shape seeds until XCHECK_CORRUPT_SOAK_MS
// expires. Skipped unless the env var is set.

TEST(Soak, CorruptionSeedsUntilWallClockBudgetExpires) {
  const char* budget_env = std::getenv("XCHECK_CORRUPT_SOAK_MS");
  if (!budget_env) GTEST_SKIP() << "set XCHECK_CORRUPT_SOAK_MS to enable";
  const long budget_ms = std::strtol(budget_env, nullptr, 10);
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t base = 0xc0442c97ULL;
  if (const char* env = std::getenv("XCHECK_SEED")) {
    if (std::string(env) == "random") {
      base = (static_cast<std::uint64_t>(std::random_device{}()) << 32) ^
             std::random_device{}();
      std::fprintf(stderr, "[xcheck] corrupt soak: random base %llu\n",
                   static_cast<unsigned long long>(base));
    } else {
      base = std::strtoull(env, nullptr, 0);
    }
  }
  std::uint64_t runs = 0, failures = 0;
  while (std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
             .count() < budget_ms) {
    const std::uint64_t seed = base + runs;
    SCOPED_TRACE(testing::Message() << "XCHECK_SEED=" << seed);
    RunOptions opt;
    opt.capture_dumps = std::getenv("XCHECK_CAPTURE_DUMPS") != nullptr;
    if (const char* dir = std::getenv("XCHECK_REPLAY_DIR")) {
      opt.replay_path = std::string(dir) + "/xcheck_corrupt_" +
                        std::to_string(seed) + ".replay";
      opt.dump_dir = dir;
    }
    const RunReport r = check_seed(seed, corruption_params(), opt);
    ASSERT_TRUE(r.passed()) << describe(r);
    failures += r.chan.crc_failures_rx;
    ++runs;
  }
  std::fprintf(stderr,
               "[xcheck] corrupt soak: %llu seeds, %llu CRC failures healed "
               "in %ld ms budget\n",
               static_cast<unsigned long long>(runs),
               static_cast<unsigned long long>(failures), budget_ms);
  EXPECT_GT(runs, 0u);
}

}  // namespace
}  // namespace xrdma::check
