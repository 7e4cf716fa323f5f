// Crash-recovery: durable proposal-id continuity, zombie rehabilitation via
// solicited state transfer, delivery-watermark safety across restarts, and
// oracle-checked crash/recover + store-fault torture plans.
#include <gtest/gtest.h>

#include "gms/sim_harness.hpp"
#include "net/msg_kind.hpp"
#include "torture/fault_plan.hpp"
#include "torture/oracle.hpp"

namespace tw::gms {
namespace {

HarnessConfig cfg_n(int n, std::uint64_t seed) {
  HarnessConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  return cfg;
}

sim::SimTime form_group(SimHarness& h) {
  h.start();
  EXPECT_TRUE(h.run_until_group(
      util::ProcessSet::full(static_cast<ProcessId>(h.n())), sim::sec(15)))
      << h.cluster().trace_log().dump();
  return h.now();
}

/// Step until `p`'s NEXT incarnation is up and clean (not recovered-dirty,
/// not awaiting a state transfer) or the deadline passes. Guarding on the
/// durable incarnation counter keeps the loop from returning while the
/// process is still down (a crashed node trivially reports "not dirty").
bool run_until_clean(SimHarness& h, ProcessId p, std::uint64_t incarnation,
                     sim::SimTime deadline) {
  while (h.now() < deadline) {
    h.run_for(sim::msec(20));
    if (h.cluster().processes().is_up(p) &&
        h.node(p).incarnation() >= incarnation &&
        !h.node(p).recovered_dirty() && !h.node(p).awaiting_state())
      return true;
  }
  return false;
}

TEST(GmsRecovery, FastRestartCannotReuseProposalIds) {
  // Regression for the pre-durable clock heuristic: a process whose
  // hardware clock reads EARLIER after a restart (step back + fast reboot)
  // must still issue fresh proposal ids — they now come from the durable
  // reservation watermark, not the clock.
  SimHarness h(cfg_n(5, 21));
  form_group(h);
  for (std::uint64_t i = 0; i < 6; ++i) {
    h.propose(2, 100 + i, bcast::Order::total);
    h.run_for(sim::msec(40));
  }
  h.run_for(sim::sec(1));
  const ProposalSeq reserved = h.stable_store(2).kernel().reserved_seq;
  ASSERT_GT(reserved, 0u);

  h.faults().crash_at(h.now() + sim::msec(10), 2);
  h.run_for(sim::msec(30));
  // An hour backwards: the clock heuristic would restart the sequence far
  // below the ids already spent.
  h.cluster().processes().clock_step(2, -sim::sec(3600));
  h.cluster().processes().recover(2);
  ASSERT_TRUE(run_until_clean(h, 2, 2, h.now() + sim::sec(30)))
      << h.cluster().trace_log().dump();
  ASSERT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(20)));

  h.propose(2, 777, bcast::Order::total);
  h.run_for(sim::sec(3));
  bool found = false;
  for (const auto& rec : h.delivered(0)) {
    if (SimHarness::payload_tag(rec.payload) != 777) continue;
    found = true;
    EXPECT_EQ(rec.pid.proposer, 2u);
    EXPECT_GE(rec.pid.seq, reserved)
        << "post-restart proposal reused a pre-crash id";
  }
  EXPECT_TRUE(found) << "post-restart proposal was never delivered";
  EXPECT_GT(h.node(2).incarnation(), 1u);
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsRecovery, ZombieIsRehabilitatedBySolicitedStateTransfer) {
  // Crash + recover FASTER than failure detection: the group never excludes
  // the process, so no join integration (and its state transfer) ever
  // happens. The recovered process must solicit its own re-baselining.
  // (On seed 22 the blinked process is re-baselined by a transfer it never
  // asked for, so that seed does not exercise the solicitation.)
  SimHarness h(cfg_n(5, 23));
  form_group(h);
  for (std::uint64_t i = 0; i < 5; ++i) {
    h.propose(static_cast<ProcessId>(i % 5), 300 + i, bcast::Order::total);
    h.run_for(sim::msec(30));
  }
  h.run_for(sim::sec(1));

  const sim::SimTime t = h.now();
  // A 200µs blink: no in-flight datagram is lost, so the per-message
  // failure detectors never fire and the group keeps p3 as a member.
  h.faults().crash_at(t + sim::msec(5), 3);
  h.faults().recover_at(t + sim::msec(5) + sim::usec(200), 3);
  ASSERT_TRUE(run_until_clean(h, 3, 2, t + sim::sec(30)))
      << h.cluster().trace_log().dump();
  ASSERT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(20)));

  // More traffic, then verify the rehabilitated replica tracks the group.
  for (std::uint64_t i = 0; i < 4; ++i) {
    h.propose(0, 350 + i, bcast::Order::total);
    h.run_for(sim::msec(30));
  }
  h.run_for(sim::sec(2));
  EXPECT_EQ(h.app_state(3), h.app_state(0)) << "rehabilitated state differs";
  EXPECT_GE(h.node(3).stats().rejoin_requests_sent, 1u)
      << "zombie never solicited a state transfer";
  EXPECT_GE(h.node(3).stats().rehabilitations, 1u);
  EXPECT_EQ(h.node(3).buffered_delivery_count(), 0u);
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsRecovery, DetectedCrashRejoinKeepsDeliveryWatermarksSafe) {
  // Long downtime: the group excludes the member, re-forms, and readmits it
  // through the join path. Across both incarnations the member must never
  // deliver the same proposal twice (durable watermarks + transfer marks).
  SimHarness h(cfg_n(5, 23));
  form_group(h);
  for (std::uint64_t i = 0; i < 8; ++i) {
    h.propose(static_cast<ProcessId>(i % 5), 400 + i, bcast::Order::total);
    h.run_for(sim::msec(30));
  }
  h.run_for(sim::sec(1));
  h.faults().crash_at(h.now() + sim::msec(10), 1);
  util::ProcessSet without1 = util::ProcessSet::full(5);
  without1.erase(1);
  ASSERT_TRUE(h.run_until_group(without1, h.now() + sim::sec(10)));
  for (std::uint64_t i = 0; i < 5; ++i) {
    h.propose(0, 450 + i, bcast::Order::total);
    h.run_for(sim::msec(30));
  }
  h.cluster().processes().recover(1);
  ASSERT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(20)));
  ASSERT_TRUE(run_until_clean(h, 1, 2, h.now() + sim::sec(10)));
  h.run_for(sim::sec(2));
  EXPECT_EQ(h.app_state(1), h.app_state(0));
  // check_delivery_safety's per-node duplicate check spans incarnations,
  // because delivered() accumulates across the whole run.
  EXPECT_TRUE(h.check_all_invariants().empty());
  EXPECT_GT(h.stable_store(1).kernel().incarnation, 1u);
}

TEST(GmsRecovery, HandWrittenCrashRecoverPlanPassesOracle) {
  // A fixed plan exercising both recovery shapes under the full oracle
  // (§3 safety + rehabilitation liveness): p1 is a zombie (200ms blink),
  // p2 a detected crash with seconds of downtime.
  torture::TortureConfig cfg;
  cfg.fault_start = sim::sec(3);
  cfg.fault_end = sim::sec(12);
  torture::FaultPlan plan;
  plan.cfg = cfg;
  plan.seed = 77;
  auto op = [](sim::SimTime at, torture::FaultType type, ProcessId p) {
    torture::FaultOp o;
    o.at = at;
    o.type = type;
    o.p = p;
    return o;
  };
  plan.ops.push_back(op(sim::sec(4), torture::FaultType::crash, 1));
  plan.ops.push_back(
      op(sim::sec(4) + sim::msec(200), torture::FaultType::recover, 1));
  plan.ops.push_back(op(sim::sec(6), torture::FaultType::crash, 2));
  plan.ops.push_back(op(sim::sec(9), torture::FaultType::recover, 2));
  std::uint64_t tag = 1;
  for (sim::SimTime w = cfg.fault_start + sim::msec(500); w < cfg.fault_end;
       w += sim::msec(400)) {
    torture::WorkloadOp wop;
    wop.at = w;
    wop.proposer = static_cast<ProcessId>(tag % 5);
    wop.tag = tag++;
    plan.workload.push_back(wop);
  }

  SimHarness h(torture::harness_config(plan));
  torture::apply_plan(plan, h);
  h.start();
  const torture::OracleReport report = torture::run_oracle(h, plan);
  EXPECT_TRUE(report.passed()) << report.to_string();
}

TEST(GmsRecovery, StoreFaultPlanPassesOracle) {
  // Storage under attack while processes crash around it: torn appends and
  // fsync failures on the crashing process, a media bit flip in its log.
  // The oracle must still see §3 safety and full rehabilitation.
  torture::TortureConfig cfg;
  cfg.fault_start = sim::sec(3);
  cfg.fault_end = sim::sec(12);
  torture::FaultPlan plan;
  plan.cfg = cfg;
  plan.seed = 78;
  auto op = [](sim::SimTime at, torture::FaultType type, ProcessId p) {
    torture::FaultOp o;
    o.at = at;
    o.type = type;
    o.p = p;
    return o;
  };
  {
    torture::FaultOp torn = op(sim::sec(3), torture::FaultType::store_torn, 1);
    torn.count = 2;
    torn.kind = 40;  // keep 40%
    plan.ops.push_back(torn);
  }
  plan.ops.push_back(op(sim::sec(4), torture::FaultType::crash, 1));
  plan.ops.push_back(
      op(sim::sec(4) + sim::msec(300), torture::FaultType::recover, 1));
  {
    torture::FaultOp flip = op(sim::sec(5), torture::FaultType::store_flip, 1);
    flip.kind = 0;  // the log
    flip.step = 12345;
    plan.ops.push_back(flip);
  }
  {
    torture::FaultOp fs = op(sim::sec(6), torture::FaultType::store_fsync, 1);
    fs.count = 3;
    plan.ops.push_back(fs);
  }
  plan.ops.push_back(op(sim::sec(7), torture::FaultType::crash, 1));
  plan.ops.push_back(op(sim::sec(9), torture::FaultType::recover, 1));
  std::uint64_t tag = 1;
  for (sim::SimTime w = cfg.fault_start + sim::msec(500); w < cfg.fault_end;
       w += sim::msec(400)) {
    torture::WorkloadOp wop;
    wop.at = w;
    wop.proposer = static_cast<ProcessId>(tag % 5);
    wop.tag = tag++;
    plan.workload.push_back(wop);
  }

  SimHarness h(torture::harness_config(plan));
  torture::apply_plan(plan, h);
  h.start();
  const torture::OracleReport report = torture::run_oracle(h, plan);
  EXPECT_TRUE(report.passed()) << report.to_string();
}

TEST(GmsRecovery, StorelessHarnessStillConverges) {
  // durable_store=false keeps the legacy volatile-only behavior working
  // (the clock heuristic and the join-path stopgap).
  HarnessConfig cfg = cfg_n(5, 24);
  cfg.durable_store = false;
  SimHarness h(cfg);
  form_group(h);
  h.faults().crash_at(h.now() + sim::msec(50), 2);
  util::ProcessSet without2 = util::ProcessSet::full(5);
  without2.erase(2);
  ASSERT_TRUE(h.run_until_group(without2, h.now() + sim::sec(10)));
  h.cluster().processes().recover(2);
  EXPECT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(20)))
      << h.cluster().trace_log().dump();
  EXPECT_TRUE(h.check_all_invariants().empty());
}

}  // namespace
}  // namespace tw::gms
