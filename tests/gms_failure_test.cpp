// Failure handling: single-failure election, wrong-suspicion masking,
// multiple-failure reconfiguration, partitions, crash recovery and rejoin
// (paper §4.2).
#include <gtest/gtest.h>

#include <cmath>
#include <iostream>
#include <map>
#include <set>

#include "gms/sim_harness.hpp"
#include "net/msg_kind.hpp"
#include "sim/random.hpp"

namespace tw::gms {
namespace {

HarnessConfig cfg_n(int n, std::uint64_t seed) {
  HarnessConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  return cfg;
}

/// Run to a full stable group, returning the formation time.
sim::SimTime form_group(SimHarness& h) {
  h.start();
  EXPECT_TRUE(h.run_until_group(
      util::ProcessSet::full(static_cast<ProcessId>(h.n())), sim::sec(15)))
      << h.cluster().trace_log().dump();
  return h.now();
}

TEST(GmsFailure, SingleCrashRemovesMember) {
  SimHarness h(cfg_n(5, 1));
  form_group(h);
  const sim::SimTime crash_at = h.now() + sim::msec(100);
  h.faults().crash_at(crash_at, 2);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(2);
  EXPECT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)))
      << h.cluster().trace_log().dump();
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, SingleCrashUsesSingleFailureElection) {
  // The fast path: one crash must be resolved by the no-decision ring, not
  // by slotted reconfiguration.
  SimHarness h(cfg_n(5, 2));
  form_group(h);
  auto& stats = h.cluster().network().stats();
  const auto rc_before =
      stats.by_kind[net::kind_byte(net::MsgKind::reconfiguration)].sent;
  h.faults().crash_at(h.now() + sim::msec(100), 3);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(3);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)));
  EXPECT_EQ(stats.by_kind[net::kind_byte(net::MsgKind::reconfiguration)].sent,
            rc_before)
      << "single failure should not trigger reconfiguration";
  EXPECT_GT(stats.by_kind[net::kind_byte(net::MsgKind::no_decision)].sent, 0u);
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, SingleCrashRecoveryLatencyBounded) {
  // Detection within ~2D of the role being lost, election within about one
  // ND round: generous bound of a cycle plus a few D.
  SimHarness h(cfg_n(5, 3));
  form_group(h);
  const sim::SimTime crash_at = h.now() + sim::msec(50);
  h.faults().crash_at(crash_at, 1);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(1);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)));
  const sim::SimTime created =
      h.cluster().trace_log().first_after(sim::TraceKind::group_created,
                                          crash_at);
  ASSERT_NE(created, sim::kNever);
  const auto& nc = h.node(0).config();
  // Crash → role loss (≤ one rotation) → 2D detection → N-2 hops → close.
  const sim::Duration budget =
      nc.cycle_len(5) + nc.fd_timeout() + 5 * nc.big_d;
  EXPECT_LE(created - crash_at, budget);
}

TEST(GmsFailure, EveryCrashedMemberPositionWorks) {
  // Crash each position in turn (fresh harness each time): decider,
  // successor, predecessor — all must resolve via the fast path.
  for (ProcessId victim = 0; victim < 5; ++victim) {
    SimHarness h(cfg_n(5, 40 + victim));
    form_group(h);
    h.faults().crash_at(h.now() + sim::msec(70), victim);
    util::ProcessSet expected = util::ProcessSet::full(5);
    expected.erase(victim);
    EXPECT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)))
        << "victim=" << victim;
    EXPECT_TRUE(h.check_all_invariants().empty()) << "victim=" << victim;
  }
}

TEST(GmsFailure, FalseSuspicionDoesNotChangeMembership) {
  // Drop one decision message towards everyone: the successor suspects the
  // decider, but some member still holding the decision (the decider
  // itself rebroadcasts) resolves it without a membership change (§4.2
  // wrong-suspicion).
  SimHarness h(cfg_n(5, 5));
  form_group(h);
  h.run_for(sim::sec(1));
  const GroupId gid_before = h.node(0).group_id();
  // Drop the next decision from process 2 towards members 3 and 4 only —
  // 0 and 1 still receive it, so the suspicion is provably false.
  h.cluster().network().arm_drop(2, net::kind_byte(net::MsgKind::decision),
                                 util::ProcessSet({3, 4}), 1);
  h.run_for(sim::sec(4));
  for (ProcessId p = 0; p < 5; ++p) {
    EXPECT_TRUE(h.node(p).in_group()) << "p" << p;
    EXPECT_EQ(h.node(p).group(), util::ProcessSet::full(5)) << "p" << p;
  }
  EXPECT_EQ(h.node(0).group_id(), gid_before)
      << "false alarm must not create a new group";
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, LostDecisionToAllRecoversWithoutExclusion) {
  // The decider's decision is lost to everyone; the decider itself answers
  // the no-decision with a resend of its last control message.
  SimHarness h(cfg_n(5, 6));
  form_group(h);
  h.run_for(sim::sec(1));
  h.cluster().network().arm_drop(1, net::kind_byte(net::MsgKind::decision),
                                 util::ProcessSet::full(5), 1);
  h.run_for(sim::sec(4));
  // All five remain members (p1 is alive; removing it would be wrong, and
  // if it was removed it must have rejoined by now).
  for (ProcessId p = 0; p < 5; ++p)
    EXPECT_TRUE(h.node(p).in_group()) << "p" << p;
  EXPECT_EQ(h.node(0).group(), util::ProcessSet::full(5));
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, TwoSimultaneousCrashesUseReconfiguration) {
  SimHarness h(cfg_n(7, 7));
  form_group(h);
  const sim::SimTime t = h.now() + sim::msec(100);
  h.faults().crash_at(t, 2).crash_at(t, 5);
  util::ProcessSet expected = util::ProcessSet::full(7);
  expected.erase(2);
  expected.erase(5);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(20)))
      << h.cluster().trace_log().dump();
  auto& stats = h.cluster().network().stats();
  EXPECT_GT(stats.by_kind[net::kind_byte(net::MsgKind::reconfiguration)].sent,
            0u);
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, DeciderAndSuccessorCrashTogether) {
  SimHarness h(cfg_n(7, 8));
  form_group(h);
  h.run_for(sim::msec(300));
  // Crash the current believed decider and its successor simultaneously.
  const ProcessId d = h.node(0).believed_decider();
  const ProcessId s = h.node(0).group().successor_of(d);
  const sim::SimTime t = h.now() + sim::msec(10);
  h.faults().crash_at(t, d).crash_at(t, s);
  util::ProcessSet expected = util::ProcessSet::full(7);
  expected.erase(d);
  expected.erase(s);
  EXPECT_TRUE(h.run_until_group(expected, h.now() + sim::sec(20)))
      << "d=" << d << " s=" << s << "\n"
      << h.cluster().trace_log().dump();
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, MaxToleratedCrashes) {
  // N=7 tolerates 3 crashes (majority 4 survives).
  SimHarness h(cfg_n(7, 9));
  form_group(h);
  const sim::SimTime t = h.now() + sim::msec(100);
  h.faults().crash_at(t, 0).crash_at(t + sim::msec(5), 3).crash_at(
      t + sim::msec(10), 6);
  util::ProcessSet expected({1, 2, 4, 5});
  EXPECT_TRUE(h.run_until_group(expected, h.now() + sim::sec(30)))
      << h.cluster().trace_log().dump();
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, MinorityPartitionStalls_MajorityContinues) {
  SimHarness h(cfg_n(5, 10));
  form_group(h);
  h.faults().partition_at(h.now() + sim::msec(100),
                          {util::ProcessSet({0, 1, 2}),
                           util::ProcessSet({3, 4})});
  ASSERT_TRUE(
      h.run_until_group(util::ProcessSet({0, 1, 2}), h.now() + sim::sec(20)))
      << h.cluster().trace_log().dump();
  h.run_for(sim::sec(5));
  // The minority side must never install a group of its own (property 5).
  for (ProcessId p : {3u, 4u})
    EXPECT_FALSE(h.node(p).in_group() &&
                 h.node(p).group().subset_of(util::ProcessSet({3, 4})))
        << "p" << p;
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, PartitionHealReintegrates) {
  SimHarness h(cfg_n(5, 11));
  form_group(h);
  h.faults().partition_at(h.now() + sim::msec(100),
                          {util::ProcessSet({0, 1, 2}),
                           util::ProcessSet({3, 4})});
  ASSERT_TRUE(
      h.run_until_group(util::ProcessSet({0, 1, 2}), h.now() + sim::sec(20)));
  h.run_for(sim::sec(2));
  h.cluster().network().heal();
  EXPECT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(30)))
      << h.cluster().trace_log().dump();
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, CrashedMemberRejoinsAfterRecovery) {
  SimHarness h(cfg_n(5, 12));
  form_group(h);
  const sim::SimTime t = h.now();
  h.faults().crash_at(t + sim::msec(100), 4);
  util::ProcessSet without4 = util::ProcessSet::full(5);
  without4.erase(4);
  ASSERT_TRUE(h.run_until_group(without4, h.now() + sim::sec(10)));
  h.cluster().processes().recover(4);
  EXPECT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(20)))
      << h.cluster().trace_log().dump();
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, RejoinerReceivesStateTransfer) {
  SimHarness h(cfg_n(5, 13));
  form_group(h);
  // Deliver some updates so there is state to transfer.
  for (std::uint64_t i = 0; i < 8; ++i) {
    h.propose(static_cast<ProcessId>(i % 5), 900 + i, bcast::Order::total);
    h.run_for(sim::msec(30));
  }
  h.run_for(sim::sec(2));
  h.faults().crash_at(h.now() + sim::msec(10), 2);
  util::ProcessSet without2 = util::ProcessSet::full(5);
  without2.erase(2);
  ASSERT_TRUE(h.run_until_group(without2, h.now() + sim::sec(10)));
  // More updates while 2 is down.
  for (std::uint64_t i = 0; i < 5; ++i) {
    h.propose(0, 950 + i, bcast::Order::total);
    h.run_for(sim::msec(30));
  }
  h.run_for(sim::sec(1));
  h.cluster().processes().recover(2);
  ASSERT_TRUE(
      h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(20)));
  h.run_for(sim::sec(2));
  // The rejoiner's application state must match the others (transferred
  // base state + subsequently delivered updates).
  const auto ref = h.app_state(0);
  EXPECT_EQ(h.app_state(2), ref) << "state transfer incomplete";
  auto& stats = h.cluster().network().stats();
  EXPECT_GT(stats.by_kind[net::kind_byte(net::MsgKind::state_transfer)].sent,
            0u);
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, UpdatesSurviveMembershipChange) {
  // Proposals in flight across a crash must still reach every survivor in
  // the same total order.
  SimHarness h(cfg_n(5, 14));
  form_group(h);
  for (std::uint64_t i = 0; i < 10; ++i) {
    h.propose(static_cast<ProcessId>(i % 5), 700 + i, bcast::Order::total);
    h.run_for(sim::msec(10));
  }
  h.faults().crash_at(h.now() + sim::msec(5), 1);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(1);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)));
  for (std::uint64_t i = 0; i < 5; ++i) {
    h.propose(0, 800 + i, bcast::Order::total);
    h.run_for(sim::msec(10));
  }
  h.run_for(sim::sec(3));
  // Survivors agree on the delivered sequence.
  std::vector<std::uint64_t> ref;
  for (const auto& rec : h.delivered(0))
    ref.push_back(SimHarness::payload_tag(rec.payload));
  EXPECT_GE(ref.size(), 5u);
  for (ProcessId p : expected) {
    if (p == 0) continue;
    std::vector<std::uint64_t> got;
    for (const auto& rec : h.delivered(p))
      got.push_back(SimHarness::payload_tag(rec.payload));
    EXPECT_EQ(got, ref) << "p" << p;
  }
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsFailure, RepeatedCrashRecoverCycles) {
  SimHarness h(cfg_n(5, 15));
  form_group(h);
  for (int round = 0; round < 3; ++round) {
    const ProcessId victim = static_cast<ProcessId>(round + 1);
    h.faults().crash_at(h.now() + sim::msec(50), victim);
    util::ProcessSet expected = util::ProcessSet::full(5);
    expected.erase(victim);
    ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(15)))
        << "round " << round << "\n"
        << h.cluster().trace_log().dump();
    h.cluster().processes().recover(victim);
    ASSERT_TRUE(
        h.run_until_group(util::ProcessSet::full(5), h.now() + sim::sec(20)))
        << "round " << round;
  }
  EXPECT_TRUE(h.check_all_invariants().empty());
}

// ---------------------------------------------------------------------------
// Whole-team stalls: every member stalled at once, as a SIGSTOP of the one
// process that hosts a UDP team does, while an open loop keeps proposals
// in flight. A member's raw delivery stream is gapless unless the stall
// got it excluded; then it rejoins, a state transfer re-baselines it, and
// the updates ordered meanwhile reach it inside the transferred state, not
// as deliveries.
// ---------------------------------------------------------------------------

struct TeamStallRun {
  std::size_t accepted = 0;
  std::size_t extra_views = 0;  ///< view installs past the first, all members
  /// (member, proposer, seq): an accepted proposal the member did not
  /// deliver although it delivered a later one of that proposer.
  std::vector<std::string> stream_gaps;
  /// The subset of stream_gaps that the member's lineage does not hold.
  std::vector<std::string> lineage_gaps;
  std::vector<std::string> violations;  ///< majority-agreement checks
};

/// 3 members, Poisson proposals at 300/s round-robin for `load`, and every
/// member stalled for `stall` every 2 s.
TeamStallRun run_team_stalls(std::uint64_t seed, sim::Duration stall,
                             sim::Duration load) {
  constexpr int kN = 3;
  SimHarness h(cfg_n(kN, seed));
  const sim::SimTime t0 = form_group(h);
  for (sim::SimTime t = t0 + sim::sec(2); t < t0 + load; t += sim::sec(2))
    for (ProcessId p = 0; p < kN; ++p) h.faults().stall_at(t, p, stall);
  sim::Rng rng(seed * 7919);
  std::map<ProcessId, std::vector<ProposalSeq>> accepted;
  TeamStallRun run;
  sim::SimTime t = t0;
  for (std::uint64_t k = 0;; ++k) {
    t += static_cast<sim::Duration>(
        -std::log(1.0 - rng.uniform_real(0.0, 1.0)) * 1e6 / 300.0);
    if (t >= t0 + load) break;
    h.run_until(t);
    const auto proposer = static_cast<ProcessId>(k % kN);
    const ProposeResult r = h.propose(proposer, k);
    if (!r.accepted) continue;
    accepted[proposer].push_back(r.seq);
    ++run.accepted;
  }
  h.run_for(sim::sec(3));
  for (ProcessId m = 0; m < kN; ++m) {
    run.extra_views += h.views(m).size() - 1;
    std::map<ProcessId, std::set<ProposalSeq>> delivered, lineage;
    for (const auto& rec : h.delivered(m))
      delivered[rec.pid.proposer].insert(rec.pid.seq);
    for (const auto& e : h.lineage(m)) lineage[e.pid.proposer].insert(e.pid.seq);
    for (const auto& [q, seqs] : accepted) {
      if (delivered[q].empty()) continue;
      const ProposalSeq top = *delivered[q].rbegin();
      for (const ProposalSeq seq : seqs) {
        if (seq > top || delivered[q].count(seq) != 0) continue;
        const std::string id = "m" + std::to_string(m) + " " +
                               std::to_string(q) + "." + std::to_string(seq);
        run.stream_gaps.push_back(id);
        if (lineage[q].count(seq) == 0) run.lineage_gaps.push_back(id);
      }
    }
  }
  run.violations = h.check_majority_agreement_invariants(h.node(0).group());
  return run;
}

TEST(GmsFailure, TeamStallWithinDetectionKeepsEveryStreamGapless) {
  // 40 ms is past σ but inside the detection timeout: nobody is excluded,
  // and every accepted proposal reaches every member, in FIFO order.
  const TeamStallRun run = run_team_stalls(3, sim::msec(40), sim::sec(7));
  EXPECT_GT(run.accepted, 1500u);
  EXPECT_EQ(run.extra_views, 0u);
  EXPECT_TRUE(run.stream_gaps.empty()) << run.stream_gaps.front();
  EXPECT_TRUE(run.violations.empty()) << run.violations.front();
}

TEST(GmsFailure, TeamStallPastDetectionGapsOnlyWhereATransferCovers) {
  // 60 ms outlasts detection: members are excluded and rejoin. The stream
  // gap reproduces (a checker that follows deliveries alone reports it),
  // and every gap is an update the rejoiner received inside its state
  // transfer.
  const TeamStallRun run = run_team_stalls(3, sim::msec(60), sim::sec(7));
  EXPECT_GT(run.extra_views, 0u);
  EXPECT_FALSE(run.stream_gaps.empty());
  EXPECT_TRUE(run.lineage_gaps.empty()) << run.lineage_gaps.front();
  EXPECT_TRUE(run.violations.empty()) << run.violations.front();
}

// Ratchet on whole-team stalls past the detection timeout, which forfeited
// accepted updates from the majority lineage (ROADMAP "Lineage
// integrity"). Each bound is the total of lineage gaps over a block of
// seeds with a 20-s load, measured before the two heal fixes of DESIGN.md
// §3c; the code now reads 0 in every block. A change may lower a bound,
// never raise it, and no run may break a majority-agreement check.
struct StallRatchet {
  std::int64_t stall_ms;
  std::uint64_t first_seed;
  std::uint64_t last_seed;
  std::size_t max_lineage_gaps;
};

class TeamStallRatchet : public ::testing::TestWithParam<StallRatchet> {};

TEST_P(TeamStallRatchet, LineageGapsStayAtOrBelowTheBoundWithNoViolation) {
  const StallRatchet r = GetParam();
  std::size_t gaps = 0;
  std::string first;
  for (std::uint64_t seed = r.first_seed; seed <= r.last_seed; ++seed) {
    const TeamStallRun run =
        run_team_stalls(seed, sim::msec(r.stall_ms), sim::sec(20));
    if (first.empty() && !run.lineage_gaps.empty())
      first = "seed " + std::to_string(seed) + ": " + run.lineage_gaps.front();
    gaps += run.lineage_gaps.size();
    EXPECT_TRUE(run.violations.empty())
        << "seed " << seed << ": " << run.violations.front();
  }
  std::cout << "stall " << r.stall_ms << " ms: " << gaps
            << " lineage gaps over seeds " << r.first_seed << "-"
            << r.last_seed << "\n";
  EXPECT_LE(gaps, r.max_lineage_gaps) << "first: " << first;
}

INSTANTIATE_TEST_SUITE_P(
    StallMs, TeamStallRatchet,
    ::testing::Values(
        StallRatchet{60, 1, 20, 24}, StallRatchet{60, 21, 40, 3},
        StallRatchet{60, 41, 60, 0}, StallRatchet{80, 1, 20, 20},
        StallRatchet{80, 21, 40, 24}, StallRatchet{80, 41, 60, 21},
        StallRatchet{100, 1, 20, 48}, StallRatchet{100, 21, 40, 44},
        StallRatchet{100, 41, 60, 42}, StallRatchet{250, 1, 20, 116},
        StallRatchet{250, 21, 40, 67}, StallRatchet{250, 41, 60, 84}),
    [](const ::testing::TestParamInfo<StallRatchet>& info) {
      const StallRatchet& r = info.param;
      return "stall" + std::to_string(r.stall_ms) + "ms_seeds" +
             std::to_string(r.first_seed) + "to" +
             std::to_string(r.last_seed);
    });

}  // namespace
}  // namespace tw::gms
