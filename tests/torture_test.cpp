// Torture-engine tests: a fixed-seed smoke run through the full
// generate → execute → oracle pipeline (labeled `torture_smoke` in ctest),
// bit-for-bit seed determinism, fault-plan serialization round-trip, and
// the generator's structural safety guarantees (crash and partition
// schedules never break the paper's §3 majority assumption).
#include "torture/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/trace.hpp"
#include "torture/fault_plan.hpp"

namespace tw::torture {
namespace {

/// A compressed config so a full run fits in a couple of seconds: the same
/// pipeline as the CLI sweep, just a shorter fault window and workload.
TortureConfig smoke_config() {
  TortureConfig cfg;
  cfg.fault_start = sim::sec(2);
  cfg.fault_end = sim::sec(5);
  cfg.settle = sim::sec(25);
  cfg.quiet_tail = sim::sec(1);
  cfg.workload_rate_hz = 8.0;
  return cfg;
}

TEST(TortureSmoke, FixedSeedRunPassesOracle) {
  const TortureEngine engine(smoke_config());
  const RunResult r = engine.run_seed(7);
  EXPECT_TRUE(r.passed()) << r.report.to_string();
  EXPECT_TRUE(r.report.converged);
  EXPECT_FALSE(r.report.final_group.empty());
  // Corruption containment: every mutated datagram was CRC-rejected.
  EXPECT_EQ(r.report.corrupted, r.report.dropped_corrupt);
}

TEST(TortureSmoke, SameSeedSameDigest) {
  const TortureEngine engine(smoke_config());
  const RunResult a = engine.run_seed(11);
  const RunResult b = engine.run_seed(11);
  EXPECT_EQ(a.report.trace_digest, b.report.trace_digest);
  EXPECT_EQ(a.report.violations, b.report.violations);
  // And replaying the generated plan explicitly is the same run.
  const RunResult c = engine.run_plan(a.plan);
  EXPECT_EQ(c.report.trace_digest, a.report.trace_digest);
}

TEST(TortureSmoke, DifferentSeedsDiverge) {
  const TortureEngine engine(smoke_config());
  EXPECT_NE(engine.run_seed(3).report.trace_digest,
            engine.run_seed(4).report.trace_digest);
}

// Behaviour identity, machine-checked: the trace digests of seeds 1-16 of
// `torture_main --seeds 16 --max-batch B --digest-only` (the CLI's default
// config: 15 s fault window) for B = 1 and 4. A refactor must leave every
// digest unchanged; a change that alters protocol behaviour on purpose
// re-pins this table and says why.
TEST(TortureSmoke, PinnedDigestsAtMaxBatch1And4) {
  const std::uint64_t pinned[2][16] = {
      {0x6f4f2d2693b9c7d1, 0x8c550b9bee95f77c, 0x45df7d5c0b93844b,
       0xa541e6875fd8c7dd, 0xed161cb8febd87f8, 0x05faa4c10ab14461,
       0xfb4a1e8083f9e800, 0x567ca773bd890dfa, 0x90b593ca0308df56,
       0x403a673617ef79c2, 0x5fcb731e911b2099, 0x7bfc84cac5f474c5,
       0x9e8d3a65860174e1, 0xff8984ba9d10c853, 0xfcfac61521002ae3,
       0x4859c881d5764be6},
      {0x831b045ee5aa7074, 0x65b9ec516e2f6baa, 0xaecb739965748c85,
       0x26f0527624342d99, 0x8a592baab8cc65ea, 0xd2bfc070424b0a3a,
       0x7c87aa6bfda112b3, 0x36c34512ab29c88b, 0x947665952e229848,
       0x6f9fb52173aad3c5, 0xcda619255a51a38b, 0xf40b5f34bda49113,
       0x355c45c0c22d6d94, 0x8ccab32259709e51, 0xf4f68db0aa55322f,
       0x1a3a942107d81cee}};
  const int max_batch[2] = {1, 4};
  for (int b = 0; b < 2; ++b) {
    TortureConfig cfg;
    cfg.fault_end = cfg.fault_start + sim::sec(15);
    cfg.max_batch = max_batch[b];
    const TortureEngine engine(cfg);
    for (std::uint64_t seed = 1; seed <= 16; ++seed)
      EXPECT_EQ(engine.run_seed(seed).report.trace_digest,
                pinned[b][seed - 1])
          << "seed " << seed << " --max-batch " << max_batch[b];
  }
}

TEST(TorturePlan, SerializationRoundTrip) {
  const FaultPlan plan = generate_plan(smoke_config(), 42);
  ASSERT_FALSE(plan.ops.empty());
  ASSERT_FALSE(plan.workload.empty());
  const std::string text = plan_to_string(plan);
  FaultPlan parsed;
  ASSERT_TRUE(plan_from_string(text, parsed));
  EXPECT_EQ(plan_to_string(parsed), text);
  EXPECT_EQ(parsed.ops.size(), plan.ops.size());
  EXPECT_EQ(parsed.workload.size(), plan.workload.size());
  EXPECT_EQ(parsed.seed, plan.seed);
}

TEST(TorturePlan, GeneratorKeepsMajorityUpAndMajoritySidePartitions) {
  // The generator enforces the paper's §3 failure assumption structurally:
  // replay each plan's crash/recover ops and check a team majority is up
  // at all times, and that every partition names a majority side.
  const TortureConfig cfg = smoke_config();
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const FaultPlan plan = generate_plan(cfg, seed);
    const int majority = cfg.n / 2 + 1;
    // Ops are emitted in generation order, not execution order (a
    // partition's heal is scheduled ahead of later ops); apply_plan fires
    // them by timestamp, so replay over a time-sorted copy.
    std::vector<FaultOp> ops = plan.ops;
    std::stable_sort(ops.begin(), ops.end(),
                     [](const FaultOp& a, const FaultOp& b) {
                       return a.at < b.at;
                     });
    int up = cfg.n;
    for (const FaultOp& op : ops) {
      switch (op.type) {
        case FaultType::crash:
          --up;
          EXPECT_GE(up, majority) << "seed " << seed << " at t=" << op.at;
          break;
        case FaultType::recover:
          ++up;
          EXPECT_LE(up, cfg.n) << "seed " << seed;
          break;
        case FaultType::partition:
          EXPECT_GE(static_cast<int>(op.targets.size()), majority)
              << "seed " << seed << " partition at t=" << op.at;
          break;
        default:
          break;
      }
    }
    EXPECT_EQ(up, cfg.n) << "seed " << seed
                         << ": epilogue must recover everyone";
    // The workload stream is time-ordered.
    for (std::size_t i = 1; i < plan.workload.size(); ++i)
      EXPECT_GE(plan.workload[i].at, plan.workload[i - 1].at);
  }
}

TEST(TortureSmoke, FailingRunCarriesParseableMergedTrace) {
  // A hand-written plan that crashes a member and never recovers it breaks
  // the liveness guarantee: the oracle must flag it, and the failing run
  // must come back with the merged observability trace attached so the
  // failure is inspectable (the CLI writes it next to the minimized plan).
  TortureConfig cfg = smoke_config();
  cfg.settle = sim::sec(4);  // don't wait long for a group that can't form
  FaultPlan plan;
  plan.cfg = cfg;
  plan.seed = 99;
  FaultOp crash;
  crash.at = cfg.fault_start;
  crash.type = FaultType::crash;
  crash.p = 4;
  plan.ops.push_back(crash);

  const TortureEngine engine(cfg);
  const RunResult r = engine.run_plan(plan);
  ASSERT_FALSE(r.passed());
  EXPECT_FALSE(r.report.converged);
  ASSERT_FALSE(r.trace_jsonl.empty());

  std::vector<obs::Event> events;
  ASSERT_TRUE(obs::parse_jsonl(r.trace_jsonl, events));
  ASSERT_FALSE(events.empty());
  // The trace tells the story: views were installed before the crash, and
  // survivors raised suspicions against the dead member afterwards.
  bool installed = false, suspected = false;
  for (const obs::Event& e : events) {
    if (e.kind == obs::EvKind::view_install) installed = true;
    if (e.kind == obs::EvKind::suspect && e.a == 4) suspected = true;
  }
  EXPECT_TRUE(installed);
  EXPECT_TRUE(suspected);

  // Passing runs skip the dump (the trace is only for failures).
  const RunResult ok = engine.run_seed(7);
  ASSERT_TRUE(ok.passed());
  EXPECT_TRUE(ok.trace_jsonl.empty());
}

TEST(TorturePlan, FamilyGatesSuppressFaultTypes) {
  TortureConfig cfg = smoke_config();
  cfg.crashes = false;
  cfg.partitions = false;
  cfg.clock_faults = false;
  const FaultPlan plan = generate_plan(cfg, 9);
  for (const FaultOp& op : plan.ops) {
    EXPECT_NE(op.type, FaultType::crash);
    EXPECT_NE(op.type, FaultType::recover);
    EXPECT_NE(op.type, FaultType::partition);
    EXPECT_NE(op.type, FaultType::clock_step);
    EXPECT_NE(op.type, FaultType::clock_drift);
  }
}

}  // namespace
}  // namespace tw::torture
