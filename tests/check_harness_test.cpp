// X-Check conformance harness: determinism, smoke sweep, oracle coverage,
// replay round-trip and schedule shrinking. See TESTING.md for the design.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "analysis/filter.hpp"
#include "analysis/recorder.hpp"
#include "common/logging.hpp"
#include "check/harness.hpp"
#include "check/oracles.hpp"
#include "check/schedule.hpp"
#include "core/context.hpp"
#include "testbed/cluster.hpp"
#include "tools/xr_triage.hpp"

namespace xrdma::check {
namespace {

/// Small, fast schedule for the tests that run many candidate executions.
ScheduleParams small_params() {
  ScheduleParams p;
  p.num_hosts = 2;
  p.num_ops = 40;
  p.num_faults = 16;
  p.horizon = millis(12);
  return p;
}

RunOptions quiet() {
  RunOptions opt;
  opt.verbose = false;
  return opt;
}

// ---------------------------------------------------------------------------
// Schedule generation and the replay-file format.

TEST(Schedule, GenerationIsDeterministic) {
  const Schedule a = generate_schedule(1234);
  const Schedule b = generate_schedule(1234);
  EXPECT_EQ(serialize_schedule(a), serialize_schedule(b));
  const Schedule c = generate_schedule(1235);
  EXPECT_NE(serialize_schedule(a), serialize_schedule(c));
}

TEST(Schedule, SerializationRoundTrips) {
  const Schedule s = generate_schedule(77);
  ASSERT_FALSE(s.ops.empty());
  ASSERT_FALSE(s.faults.empty());
  Schedule back;
  ASSERT_TRUE(deserialize_schedule(serialize_schedule(s), back));
  EXPECT_EQ(serialize_schedule(s), serialize_schedule(back));
  EXPECT_EQ(back.seed, 77u);
  EXPECT_EQ(back.ops.size(), s.ops.size());
  EXPECT_EQ(back.faults.size(), s.faults.size());
}

TEST(Schedule, RejectsMalformedInput) {
  Schedule out;
  EXPECT_FALSE(deserialize_schedule("", out));
  EXPECT_FALSE(deserialize_schedule("xcheck v1\nseed 1\n", out));  // no end
  EXPECT_FALSE(deserialize_schedule("xcheck v1\nbogus line\nend\n", out));
  EXPECT_FALSE(
      deserialize_schedule("xcheck v1\nop 5 warble 0 1 0 0 0\nend\n", out));
}

TEST(Schedule, SizesStraddleEveryProtocolEdge) {
  const Schedule s = generate_schedule(5);
  const std::uint32_t cutoff = 4096;
  const std::uint32_t frag = s.params.frag_size;
  bool below_cutoff = false, at_cutoff = false, above_cutoff = false;
  bool at_frag = false, above_frag = false;
  for (const Op& op : s.ops) {
    if (op.kind != OpKind::send && op.kind != OpKind::call) continue;
    below_cutoff |= op.size < cutoff;
    at_cutoff |= op.size == cutoff;
    above_cutoff |= op.size > cutoff;
    at_frag |= op.size == frag;
    above_frag |= op.size > frag;
  }
  EXPECT_TRUE(below_cutoff && at_cutoff && above_cutoff);
  EXPECT_TRUE(at_frag && above_frag);
}

TEST(Schedule, WithoutItemsDropsOpsAndFaults) {
  const Schedule s = generate_schedule(9);
  const Schedule cut = without_items(s, {0, s.ops.size()});
  EXPECT_EQ(cut.ops.size(), s.ops.size() - 1);
  EXPECT_EQ(cut.faults.size(), s.faults.size() - 1);
  EXPECT_EQ(cut.items(), s.items() - 2);
}

TEST(Schedule, FaultRuleTextRoundTrips) {
  analysis::FaultRule r;
  r.kind = analysis::FaultKind::egress_delay;
  r.probability = 0.25;
  r.channel_id = 42;
  r.budget = 3;
  r.delay = micros(150);
  const auto back = analysis::parse_rule(analysis::format_rule(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, r.kind);
  EXPECT_DOUBLE_EQ(back->probability, r.probability);
  EXPECT_EQ(back->channel_id, r.channel_id);
  EXPECT_EQ(back->budget, r.budget);
  EXPECT_EQ(back->delay, r.delay);
  EXPECT_FALSE(analysis::parse_rule("warble 1.0 0 1 0").has_value());
}

// ---------------------------------------------------------------------------
// The determinism contract: same seed -> bit-identical run, same process.

TEST(Determinism, SameSeedTwiceProducesIdenticalDigests) {
  const Schedule s = generate_schedule(42, small_params());
  const RunReport a = run_schedule(s, quiet());
  const RunReport b = run_schedule(s, quiet());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.msgs_delivered, b.msgs_delivered);
  EXPECT_EQ(a.violations, b.violations);
  // And a different seed diverges.
  const RunReport c = run_schedule(generate_schedule(43, small_params()),
                                   quiet());
  EXPECT_NE(a.digest, c.digest);
}

TEST(Determinism, SameSeedReplayProducesBitIdenticalFlightDumps) {
  // Recorder records carry only sim time and deterministic payloads, so
  // replaying one schedule must flush byte-identical `.xrd` dumps — the
  // flight recorder is itself under the determinism contract.
  const Schedule s = generate_schedule(42, small_params());
  RunOptions opt = quiet();
  opt.capture_dumps = true;
  const RunReport a = run_schedule(s, opt);
  const RunReport b = run_schedule(s, opt);
  ASSERT_EQ(a.dumps.size(), static_cast<std::size_t>(s.params.num_hosts));
  ASSERT_EQ(a.dumps.size(), b.dumps.size());
  for (std::size_t i = 0; i < a.dumps.size(); ++i) {
    EXPECT_EQ(a.dumps[i], b.dumps[i]) << "node " << i << " dump diverged";
  }
  // The captured bytes decode into a populated dump.
  analysis::Dump dump;
  ASSERT_TRUE(
      analysis::decode_xrd(a.dumps[0].data(), a.dumps[0].size(), dump));
  EXPECT_EQ(dump.reason, "capture");
  EXPECT_FALSE(dump.records.empty());
  EXPECT_FALSE(dump.metrics.empty());
}

// ---------------------------------------------------------------------------
// Golden digests: a behaviour lock across refactors.
//
// (digest, events) for seeds 1..5 of the default schedule and of every
// schedule shape, recorded before the indexed-heap engine replaced the
// shared_ptr priority queue and checked unchanged after it. A change that
// moves any of these values changed observable behaviour: if that is
// intended, re-record the table and say why in CHANGES.md.

struct GoldenShape {
  const char* name;
  ScheduleParams params;
};

/// Knobs follow each shape's own check_*_test sweep; `incast` runs the
/// bounded-queue storm alone and `mem_budget` adds the shrunken pools.
std::vector<GoldenShape> golden_shapes() {
  std::vector<GoldenShape> shapes;
  shapes.push_back({"default", ScheduleParams{}});
  ScheduleParams p;
  p.num_hosts = 4;
  p.incast = true;
  p.tx_queue_cap = 2;
  shapes.push_back({"incast", p});
  p = {};
  p.num_hosts = 4;
  p.num_ops = 300;
  p.num_faults = 8;
  p.horizon = millis(20);
  p.window_depth = 2;
  p.incast = true;
  p.mem_budget_mb = 2;
  shapes.push_back({"mem_budget", p});
  p = {};
  p.num_ops = 80;
  p.num_faults = 6;
  p.horizon = millis(120);
  p.flap_cycles = 2;
  shapes.push_back({"flap", p});
  p = {};
  p.num_faults = 0;
  p.brownout_delay_us = 3000;
  p.health_adaptive = true;
  shapes.push_back({"brownout_adaptive", p});
  p = {};
  p.num_ops = 90;
  p.num_faults = 4;
  p.horizon = millis(120);
  p.drain_cycles = 2;
  shapes.push_back({"drain", p});
  p = {};
  p.num_hosts = 4;
  p.num_faults = 8;
  p.mixed_versions = true;
  shapes.push_back({"mixed_versions", p});
  p = {};
  p.num_ops = 120;
  p.num_faults = 10;
  p.batch_shape = 1;
  shapes.push_back({"batch_shape", p});
  p = {};
  p.corruption_shape = 1;
  shapes.push_back({"corruption_shape", p});
  return shapes;
}

struct GoldenRun {
  const char* shape;
  std::uint64_t seed;
  std::uint64_t digest;
  std::uint64_t events;
};

constexpr GoldenRun kGoldenRuns[] = {
{"default", 1, 0x2467ddd80a946c07ull, 292741llu},
    {"default", 2, 0x7ca2919c6f8508d3ull, 294009llu},
    {"default", 3, 0x991f87ecc1fe7622ull, 293031llu},
    {"default", 4, 0x3e9096686db51f9bull, 339574llu},
    {"default", 5, 0xa5313cdf8b59e159ull, 294158llu},
    {"incast", 1, 0xdd002f4524eacc56ull, 376591llu},
    {"incast", 2, 0x7cbe920200995786ull, 442151llu},
    {"incast", 3, 0x34fd29718fcc1f73ull, 341435llu},
    {"incast", 4, 0x5cf0076bb6050b6cull, 377028llu},
    {"incast", 5, 0x3ce6890bcfa6e989ull, 379899llu},
    {"mem_budget", 1, 0xeab4a987fdcec35cull, 306478llu},
    {"mem_budget", 2, 0x2f736d24f67d4405ull, 306024llu},
    {"mem_budget", 3, 0x22c41c727f68ce4dull, 368270llu},
    {"mem_budget", 4, 0xfb77041ec6cb3d13ull, 376892llu},
    {"mem_budget", 5, 0xa34aef645e7fc286ull, 405303llu},
    {"flap", 1, 0x80c14145bc14fa73ull, 562949llu},
    {"flap", 2, 0x8720c7b6c25b3341ull, 564013llu},
    {"flap", 3, 0x53e1a159217ff073ull, 561547llu},
    {"flap", 4, 0x1fd8cfc13247b463ull, 561306llu},
    {"flap", 5, 0x4fa09b6e4d9cbbfbull, 536821llu},
    {"brownout_adaptive", 1, 0xb0db5987a9f4ae5dull, 292417llu},
    {"brownout_adaptive", 2, 0x6407fa1f4cb22e81ull, 267851llu},
    {"brownout_adaptive", 3, 0xedeadbf0eca10098ull, 294097llu},
    {"brownout_adaptive", 4, 0xd99482405692a87dull, 291256llu},
    {"brownout_adaptive", 5, 0xe2a8346ec040f834ull, 294109llu},
    {"drain", 1, 0x47c86d5a200b7bc8ull, 554498llu},
    {"drain", 2, 0x96b6778939083eccull, 556725llu},
    {"drain", 3, 0x8811043a5561b7b4ull, 534235llu},
    {"drain", 4, 0x8f2bfe9a4204da33ull, 582564llu},
    {"drain", 5, 0x36d8e66d9530682bull, 532795llu},
    {"mixed_versions", 1, 0xbb4a0a1840a8e9acull, 391305llu},
    {"mixed_versions", 2, 0x188ca3bab3007216ull, 394020llu},
    {"mixed_versions", 3, 0xde40640e6daae66eull, 391167llu},
    {"mixed_versions", 4, 0x56abc81827831352ull, 459003llu},
    {"mixed_versions", 5, 0x2970d0e50727c65dull, 394247llu},
    {"batch_shape", 1, 0x338aff23413c306full, 335748llu},
    {"batch_shape", 2, 0xf1ab06bc573acd62ull, 336535llu},
    {"batch_shape", 3, 0x21626b170cd78954ull, 287372llu},
    {"batch_shape", 4, 0x9e97c1ad9bf85effull, 310476llu},
    {"batch_shape", 5, 0xeb632a1f53e3d674ull, 336265llu},
    {"corruption_shape", 1, 0x850f34135ce5b560ull, 292819llu},
    {"corruption_shape", 2, 0x0f766d2731a000d0ull, 268833llu},
    {"corruption_shape", 3, 0x1daecc15b297f893ull, 267702llu},
    {"corruption_shape", 4, 0x5e377e298778401full, 339910llu},
    {"corruption_shape", 5, 0x4c20da2932c1035bull, 294972llu},
};

TEST(GoldenDigests, EveryShapeMatchesTheRecordedTable) {
  std::size_t checked = 0;
  for (const GoldenShape& shape : golden_shapes()) {
    for (const GoldenRun& g : kGoldenRuns) {
      if (std::string(g.shape) != shape.name) continue;
      SCOPED_TRACE(testing::Message()
                   << "shape " << shape.name << " XCHECK_SEED=" << g.seed);
      const RunReport r =
          run_schedule(generate_schedule(g.seed, shape.params), quiet());
      EXPECT_TRUE(r.passed()) << describe(r);
      EXPECT_EQ(r.digest, g.digest);
      EXPECT_EQ(r.events, g.events);
      ++checked;
    }
  }
  EXPECT_EQ(checked, std::size(kGoldenRuns));
}

// ---------------------------------------------------------------------------
// Smoke sweep: every oracle holds across N generated seeds. XCHECK_SEED /
// XCHECK_SMOKE_COUNT select the seeds (see smoke_seeds).

TEST(Smoke, GeneratedSeedsSatisfyAllOracles) {
  for (const std::uint64_t seed : smoke_seeds(20)) {
    SCOPED_TRACE(testing::Message() << "XCHECK_SEED=" << seed);
    RunOptions opt;
    opt.replay_path = testing::TempDir() + "xcheck_smoke_" +
                      std::to_string(seed) + ".replay";
    if (const char* dir = std::getenv("XCHECK_REPLAY_DIR")) {
      opt.replay_path = std::string(dir) + "/xcheck_smoke_" +
                        std::to_string(seed) + ".replay";
      opt.dump_dir = dir;  // flight dumps ride the same artifact upload
    }
    const RunReport r = check_seed(seed, {}, opt);
    EXPECT_TRUE(r.passed()) << describe(r);
    // The run must actually exercise the machinery it claims to check.
    EXPECT_GT(r.msgs_delivered, 0u) << describe(r);
    EXPECT_GT(r.rpcs_issued, 0u) << describe(r);
    EXPECT_GT(r.faults_injected, 0u) << describe(r);
    EXPECT_GT(r.oracle_observations, 0u) << describe(r);
    EXPECT_GT(r.span_posts, 0u) << describe(r);
  }
}

// ---------------------------------------------------------------------------
// Oracle 1 (delivery): a fault-free schedule must deliver everything it
// accepted, exactly once, in order, content-verified.

TEST(Oracles, FaultFreeScheduleDeliversEverything) {
  ScheduleParams p = small_params();
  p.num_faults = 0;
  const RunReport r = run_schedule(generate_schedule(7, p), quiet());
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_EQ(r.msgs_delivered, r.msgs_sent) << describe(r);
  EXPECT_EQ(r.rpcs_completed, r.rpcs_issued) << describe(r);
}

// Oracles 2, 4, 5 run between engine events; a passing run must have
// observed continuously, and disabling continuous checks must still pass
// (the quiesce-time oracles alone).

TEST(Oracles, ContinuousChecksObserveThroughoutTheRun) {
  RunOptions opt = quiet();
  opt.probe_stride = 4;
  const RunReport r =
      run_schedule(generate_schedule(21, small_params()), opt);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GT(r.oracle_observations, 1000u) << describe(r);

  RunOptions off = quiet();
  off.continuous_checks = false;
  const RunReport r2 =
      run_schedule(generate_schedule(21, small_params()), off);
  EXPECT_TRUE(r2.passed()) << describe(r2);
  EXPECT_EQ(r2.oracle_observations, 0u);
}

// Oracle 5 (no RNR): the oracle reports when the RNIC counters say
// otherwise. Poke the counter directly to prove the detector works.

TEST(Oracles, RnrConditionIsDetected) {
  testbed::Cluster cluster;
  core::Context ctx(cluster.rnic(0), cluster.cm());
  ViolationLog log;
  LiveOracle live;
  live.attach({&ctx}, {&cluster.rnic(0)}, &log);
  live.observe(0);
  EXPECT_TRUE(log.empty());
  cluster.rnic(0).stats().rnr_naks_sent = 1;
  live.observe(1);
  EXPECT_EQ(log.total(), 1u);
  live.observe(2);  // reported once, not once per probe
  EXPECT_EQ(log.total(), 1u);
}

// Oracle 6 (trace-span completeness): a delivery with no matching post is
// a violation; matched pairs are not.

TEST(Oracles, SpanLedgerFlagsOrphanDeliveries) {
  SpanLedger spans;
  ViolationLog log;
  core::SpanPostEvent post;
  post.trace_id = 0xabc;
  core::SpanDeliverEvent del;
  del.trace_id = 0xabc;
  spans.on_span_post(post);
  spans.on_span_deliver(del);
  spans.check(log, 0);
  EXPECT_TRUE(log.empty());

  core::SpanDeliverEvent orphan;
  orphan.trace_id = 0xdef;
  spans.on_span_deliver(orphan);
  spans.check(log, 0);
  EXPECT_EQ(log.total(), 1u);
}

TEST(Oracles, ViolationLogBoundsKeptEntries) {
  ViolationLog log;
  for (std::uint64_t i = 0; i < ViolationLog::kMaxKept + 10; ++i) {
    log.add(static_cast<Nanos>(i), "boom");
  }
  EXPECT_EQ(log.total(), ViolationLog::kMaxKept + 10);
  EXPECT_EQ(log.entries().size(), ViolationLog::kMaxKept);
}

// ---------------------------------------------------------------------------
// Planted violation -> replay file -> shrinking. Corruption schedules flip
// a byte in flight; when it lands in a payload the delivery oracle must
// catch it, the dumped replay must reproduce it, and shrinking must cut the
// schedule down while preserving the failure.

std::optional<Schedule> find_planted_failure(RunReport* failing_report) {
  ScheduleParams p = small_params();
  p.with_corruption = true;
  p.num_faults = 24;  // denser corruption so a seed fails quickly
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    Schedule s = generate_schedule(seed, p);
    bool has_corrupt = false;
    for (const FaultOp& f : s.faults) {
      has_corrupt |= f.kind == analysis::FaultKind::ingress_corrupt ||
                     f.kind == analysis::FaultKind::egress_corrupt;
    }
    if (!has_corrupt) continue;
    const RunReport r = run_schedule(s, quiet());
    if (!r.passed()) {
      if (failing_report) *failing_report = r;
      return s;
    }
  }
  return std::nullopt;
}

TEST(ReplayAndShrink, PlantedCorruptionReplaysAndShrinks) {
  RunReport first;
  const std::optional<Schedule> planted = find_planted_failure(&first);
  ASSERT_TRUE(planted.has_value())
      << "no corruption seed in [100,140) produced a violation";

  // Replay: dump to file, load it back, re-run -> identical failure.
  const std::string path = testing::TempDir() + "xcheck_planted.replay";
  RunOptions opt = quiet();
  opt.replay_path = path;
  const RunReport dumped = run_schedule(*planted, opt);
  ASSERT_FALSE(dumped.passed());
  Schedule loaded;
  ASSERT_TRUE(load_schedule(path, loaded));
  EXPECT_EQ(serialize_schedule(loaded), serialize_schedule(*planted));
  const RunReport replayed = run_schedule(loaded, quiet());
  EXPECT_FALSE(replayed.passed());
  EXPECT_EQ(replayed.digest, dumped.digest);
  EXPECT_EQ(replayed.violations, dumped.violations);

  // Shrink: fewer items, failure preserved.
  const ShrinkResult res = shrink_schedule(*planted, quiet(), 80);
  EXPECT_TRUE(res.still_fails);
  EXPECT_GT(res.removed, 0u);
  EXPECT_LT(res.minimized.items(), planted->items());
  const RunReport min_run = run_schedule(res.minimized, quiet());
  EXPECT_FALSE(min_run.passed()) << describe(min_run);
}

TEST(ReplayAndShrink, OracleFailureFlushesTriageableFlightDumps) {
  const std::optional<Schedule> planted = find_planted_failure(nullptr);
  ASSERT_TRUE(planted.has_value())
      << "no corruption seed in [100,140) produced a violation";

  std::string dir = testing::TempDir();
  if (!dir.empty() && dir.back() == '/') dir.pop_back();
  RunOptions opt = quiet();
  opt.dump_dir = dir;
  const RunReport r = run_schedule(*planted, opt);
  ASSERT_FALSE(r.passed());

  // One `.xrd` per context, triageable straight from disk: the CI artifact
  // workflow is exactly this (dump_dir + xr_triage_file).
  for (std::uint32_t node = 0; node < planted->params.num_hosts; ++node) {
    const std::string path = strfmt("%s/xcheck-seed%llu.node%u.xrd",
                                    dir.c_str(),
                                    static_cast<unsigned long long>(r.seed),
                                    node);
    auto triage = tools::xr_triage_file(path);
    ASSERT_TRUE(triage.ok()) << path;
    EXPECT_NE(triage.value().verdict.find("X-Check oracle failure"),
              std::string::npos)
        << triage.value().verdict;
    EXPECT_NE(triage.value().timeline.find("DUMP TRIGGER: oracle_failure"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Wall-clock-bounded soak for the nightly job: explore fresh seeds until
// the budget (XCHECK_SOAK_MS) expires. Skipped unless the env var is set.

TEST(Soak, ExploresSeedsUntilWallClockBudgetExpires) {
  const char* budget_env = std::getenv("XCHECK_SOAK_MS");
  if (!budget_env) GTEST_SKIP() << "set XCHECK_SOAK_MS to enable";
  const long budget_ms = std::strtol(budget_env, nullptr, 10);
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t base = 0x50a4b007ULL;
  if (const char* env = std::getenv("XCHECK_SEED")) {
    if (std::string(env) == "random") {
      // Fresh territory each soak; the printed base (and the per-seed
      // SCOPED_TRACE below) is all a failure needs to reproduce.
      base = (static_cast<std::uint64_t>(std::random_device{}()) << 32) ^
             std::random_device{}();
      std::fprintf(stderr, "[xcheck] soak: random base %llu\n",
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
    RunOptions opt;
    if (const char* dir = std::getenv("XCHECK_REPLAY_DIR")) {
      opt.replay_path = std::string(dir) + "/xcheck_soak_" +
                        std::to_string(seed) + ".replay";
      opt.dump_dir = dir;
    }
    // Nightly ASan soak with the recorder exercised end-to-end: capture
    // (trigger + snapshot + encode) every run, not just on failure.
    opt.capture_dumps = std::getenv("XCHECK_CAPTURE_DUMPS") != nullptr;
    const RunReport r = check_seed(seed, {}, opt);
    ASSERT_TRUE(r.passed()) << describe(r);
    ++runs;
  }
  std::fprintf(stderr, "[xcheck] soak: %llu seeds in %ld ms budget\n",
               static_cast<unsigned long long>(runs), budget_ms);
  EXPECT_GT(runs, 0u);
}

}  // namespace
}  // namespace xrdma::check
