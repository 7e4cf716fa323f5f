// Failure-free behaviour of the timewheel stack: initial group formation,
// decider rotation, broadcast delivery, and the paper's "no extra messages
// during failure-free periods" claim.
#include <gtest/gtest.h>

#include "gms/sim_harness.hpp"
#include "net/msg_kind.hpp"

namespace tw::gms {
namespace {

HarnessConfig basic_cfg(int n, std::uint64_t seed) {
  HarnessConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  return cfg;
}

TEST(GmsBasic, InitialGroupForms) {
  SimHarness h(basic_cfg(5, 1));
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(5), sim::sec(10)))
      << h.cluster().trace_log().dump();
  for (ProcessId p = 0; p < 5; ++p) {
    EXPECT_TRUE(h.node(p).in_group());
    EXPECT_EQ(h.node(p).group(), util::ProcessSet::full(5));
    EXPECT_EQ(h.node(p).state(), GcState::failure_free);
  }
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsBasic, InitialGroupFormsQuicklyAfterClockSync) {
  // Formation should take roughly one-to-two cycles once clocks are
  // synchronized (paper §4.2 join state).
  SimHarness h(basic_cfg(5, 2));
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(5), sim::sec(10)));
  const auto first = h.cluster().trace_log().of_kind(
      sim::TraceKind::group_created);
  ASSERT_FALSE(first.empty());
  const sim::Duration cycle = h.node(0).config().cycle_len(5);
  // Budget: clock sync warm-up (~1 round) + three cycles of join slots.
  EXPECT_LE(first.front().t, sim::sec(1) + 3 * cycle)
      << "first group too slow";
}

TEST(GmsBasic, DeciderRotatesThroughAllMembers) {
  SimHarness h(basic_cfg(5, 3));
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(5), sim::sec(10)));
  h.run_for(sim::sec(5));
  // Every member must have sent decisions (rotation distributes the load).
  for (ProcessId p = 0; p < 5; ++p)
    EXPECT_GT(h.node(p).stats().decisions_sent, 5u) << "p" << p;
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsBasic, FailureFreeSendsNoMembershipMessages) {
  // THE headline claim (§1): "this protocol does not cause any extra
  // messages to be exchanged during failure-free periods."
  SimHarness h(basic_cfg(5, 4));
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(5), sim::sec(10)));
  auto& stats = h.cluster().network().stats();
  const auto nd0 = stats.by_kind[net::kind_byte(net::MsgKind::no_decision)].sent;
  const auto rc0 =
      stats.by_kind[net::kind_byte(net::MsgKind::reconfiguration)].sent;
  const auto join0 = stats.by_kind[net::kind_byte(net::MsgKind::join)].sent;
  h.run_for(sim::sec(30));
  EXPECT_EQ(stats.by_kind[net::kind_byte(net::MsgKind::no_decision)].sent, nd0);
  EXPECT_EQ(stats.by_kind[net::kind_byte(net::MsgKind::reconfiguration)].sent,
            rc0);
  EXPECT_EQ(stats.by_kind[net::kind_byte(net::MsgKind::join)].sent, join0);
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsBasic, TotalOrderDeliveryAcrossMembers) {
  SimHarness h(basic_cfg(5, 5));
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(5), sim::sec(10)));
  for (std::uint64_t i = 0; i < 20; ++i) {
    h.propose(static_cast<ProcessId>(i % 5), 100 + i, bcast::Order::total);
    h.run_for(sim::msec(20));
  }
  h.run_for(sim::sec(3));
  // All 20 delivered at every member, identical order.
  std::vector<std::uint64_t> reference;
  for (const auto& rec : h.delivered(0))
    reference.push_back(SimHarness::payload_tag(rec.payload));
  EXPECT_EQ(reference.size(), 20u);
  for (ProcessId p = 1; p < 5; ++p) {
    std::vector<std::uint64_t> got;
    for (const auto& rec : h.delivered(p))
      got.push_back(SimHarness::payload_tag(rec.payload));
    EXPECT_EQ(got, reference) << "p" << p;
  }
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsBasic, WeakUnorderedDeliversEverywhere) {
  SimHarness h(basic_cfg(3, 6));
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(3), sim::sec(10)));
  for (std::uint64_t i = 0; i < 10; ++i)
    h.propose(0, 500 + i, bcast::Order::unordered, bcast::Atomicity::weak);
  h.run_for(sim::sec(2));
  for (ProcessId p = 0; p < 3; ++p)
    EXPECT_EQ(h.delivered(p).size(), 10u) << "p" << p;
}

TEST(GmsBasic, ProposalsQueuedBeforeJoinAreDelivered) {
  SimHarness h(basic_cfg(3, 7));
  h.start();
  h.propose(1, 42, bcast::Order::total);  // before any group exists
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(3), sim::sec(10)));
  h.run_for(sim::sec(2));
  for (ProcessId p = 0; p < 3; ++p) {
    ASSERT_EQ(h.delivered(p).size(), 1u) << "p" << p;
    EXPECT_EQ(SimHarness::payload_tag(h.delivered(p)[0].payload), 42u);
  }
}

TEST(GmsBasic, ViewChangeCallbackFires) {
  SimHarness h(basic_cfg(3, 8));
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(3), sim::sec(10)));
  for (ProcessId p = 0; p < 3; ++p) {
    ASSERT_FALSE(h.views(p).empty());
    EXPECT_EQ(h.views(p).back().members, util::ProcessSet::full(3));
  }
}

TEST(GmsBasic, WorksAcrossTeamSizes) {
  for (int n : {2, 3, 4, 7, 9}) {
    SimHarness h(basic_cfg(n, 10 + static_cast<std::uint64_t>(n)));
    h.start();
    EXPECT_TRUE(h.run_until_group(util::ProcessSet::full(
                                      static_cast<ProcessId>(n)),
                                  sim::sec(15)))
        << "n=" << n;
    EXPECT_TRUE(h.check_all_invariants().empty()) << "n=" << n;
  }
}

TEST(GmsBasic, PerfectClockModeAlsoWorks) {
  HarnessConfig cfg = basic_cfg(5, 20);
  cfg.perfect_clocks = true;
  SimHarness h(cfg);
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(5), sim::sec(10)));
  // No clock-sync messages at all in perfect mode.
  auto& stats = h.cluster().network().stats();
  EXPECT_EQ(stats.by_kind[net::kind_byte(net::MsgKind::clocksync_request)].sent,
            0u);
}

}  // namespace
}  // namespace tw::gms
