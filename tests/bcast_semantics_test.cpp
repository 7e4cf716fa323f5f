// End-to-end broadcast-semantics tests on the full stack: the 3×3
// (order × atomicity) matrix under failure-free and crashy conditions, and
// the §4.3 undeliverable-proposal machinery driven through a real scenario.
#include <gtest/gtest.h>

#include "gms/sim_harness.hpp"
#include "net/msg_kind.hpp"

namespace tw::gms {
namespace {

HarnessConfig cfg_n(int n, std::uint64_t seed) {
  HarnessConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  return cfg;
}

void form(SimHarness& h) {
  h.start();
  ASSERT_TRUE(h.run_until_group(
      util::ProcessSet::full(static_cast<ProcessId>(h.n())), sim::sec(15)));
}

struct SemanticsCase {
  bcast::Order order;
  bcast::Atomicity atomicity;
};

class SemanticsMatrix : public ::testing::TestWithParam<SemanticsCase> {};

TEST_P(SemanticsMatrix, AllMembersDeliverEverythingFailureFree) {
  const auto prm = GetParam();
  SimHarness h(cfg_n(5, 11));
  form(h);
  for (std::uint64_t i = 0; i < 25; ++i) {
    h.propose(static_cast<ProcessId>(i % 5), 100 + i, prm.order,
              prm.atomicity);
    h.run_for(sim::msec(15));
  }
  h.run_for(sim::sec(3));
  for (ProcessId p = 0; p < 5; ++p)
    EXPECT_EQ(h.delivered(p).size(), 25u)
        << "p" << p << " " << bcast::order_name(prm.order) << "/"
        << bcast::atomicity_name(prm.atomicity);
}

TEST_P(SemanticsMatrix, SurvivorsAgreeAcrossACrash) {
  const auto prm = GetParam();
  SimHarness h(cfg_n(5, 12));
  form(h);
  for (std::uint64_t i = 0; i < 10; ++i) {
    h.propose(static_cast<ProcessId>(i % 5), 200 + i, prm.order,
              prm.atomicity);
    h.run_for(sim::msec(15));
  }
  h.faults().crash_at(h.now() + sim::msec(5), 2);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(2);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)));
  for (std::uint64_t i = 0; i < 5; ++i) {
    h.propose(0, 300 + i, prm.order, prm.atomicity);
    h.run_for(sim::msec(15));
  }
  h.run_for(sim::sec(3));
  // Survivors delivered the same multiset of tags...
  std::multiset<std::uint64_t> ref;
  for (const auto& rec : h.delivered(0))
    ref.insert(SimHarness::payload_tag(rec.payload));
  EXPECT_GE(ref.size(), 5u);
  for (ProcessId p : {1u, 3u, 4u}) {
    std::multiset<std::uint64_t> got;
    for (const auto& rec : h.delivered(p))
      got.insert(SimHarness::payload_tag(rec.payload));
    EXPECT_EQ(got, ref) << "p" << p;
  }
  // ...and for ordered semantics, in the same sequence.
  if (prm.order != bcast::Order::unordered) {
    std::vector<std::uint64_t> seq0;
    for (const auto& rec : h.delivered(0))
      seq0.push_back(SimHarness::payload_tag(rec.payload));
    for (ProcessId p : {1u, 3u, 4u}) {
      std::vector<std::uint64_t> seq;
      for (const auto& rec : h.delivered(p))
        seq.push_back(SimHarness::payload_tag(rec.payload));
      EXPECT_EQ(seq, seq0) << "p" << p;
    }
  }
  EXPECT_TRUE(h.check_all_invariants().empty());
}

std::vector<SemanticsCase> matrix() {
  std::vector<SemanticsCase> out;
  for (auto order : {bcast::Order::unordered, bcast::Order::total,
                     bcast::Order::time})
    for (auto atomicity : {bcast::Atomicity::weak, bcast::Atomicity::strong,
                           bcast::Atomicity::strict})
      out.push_back({order, atomicity});
  return out;
}

std::string case_name(const ::testing::TestParamInfo<SemanticsCase>& info) {
  return std::string(bcast::order_name(info.param.order)) + "_" +
         bcast::atomicity_name(info.param.atomicity);
}

INSTANTIATE_TEST_SUITE_P(All, SemanticsMatrix, ::testing::ValuesIn(matrix()),
                         case_name);

// ---------------------------------------------------------------------------
// §4.3 end-to-end: a lost proposal of a departed member must be delivered
// by NOBODY, and its FIFO successors cascade.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// FIFO from the very first proposal: a fresh durable proposer starts at
// sequence 0 and declares fifo_floor 0. Its opening burst reordered in
// flight must not let sequence 1 be ordered first (which forfeits 0).
// ---------------------------------------------------------------------------

TEST(FifoOpening, FreshDurableProposerReorderedOpeningDeliversInOrder) {
  for (ProcessId proposer = 0; proposer < 5; ++proposer) {
    SimHarness h(cfg_n(5, 21 + proposer));
    ASSERT_TRUE(h.durable());
    form(h);
    h.run_for(sim::msec(200));
    util::ProcessSet others = util::ProcessSet::full(5);
    others.erase(proposer);
    // Sequence 0's datagram reaches every other member 8 ms late, well
    // inside the deciders' gap grace; sequence 1 goes out 1 ms after it
    // and arrives first.
    h.cluster().network().arm_delay(proposer,
                                    net::kind_byte(net::MsgKind::proposal),
                                    others, 4, sim::msec(8));
    h.propose(proposer, 900, bcast::Order::total);
    h.run_for(sim::msec(1));
    h.propose(proposer, 901, bcast::Order::total);
    h.run_for(sim::sec(2));
    for (ProcessId p = 0; p < 5; ++p) {
      std::vector<std::uint64_t> tags;
      for (const auto& rec : h.delivered(p)) {
        if (rec.pid.proposer != proposer) continue;
        tags.push_back(SimHarness::payload_tag(rec.payload));
        EXPECT_EQ(rec.pid.seq, tags.size() - 1)
            << "p" << p << " got proposer " << proposer << "'s seq "
            << rec.pid.seq << " out of order";
      }
      EXPECT_EQ(tags, (std::vector<std::uint64_t>{900, 901}))
          << "p" << p << ", proposer " << proposer;
    }
    EXPECT_TRUE(h.check_all_invariants().empty());
  }
}

TEST(Undeliverable, LostProposalOfDepartedMemberDeliveredByNobody) {
  SimHarness h(cfg_n(5, 13));
  form(h);
  h.run_for(sim::msec(200));

  // Member 4 proposes a total-order update whose PROPOSAL datagram is lost
  // to everyone (and keeps being lost on re-broadcast); the oal may list it
  // (the decider never gets the payload either, so in this variant it is
  // simply never ordered). Then 4 crashes: nobody can ever recover the
  // payload.
  auto& net_layer = h.cluster().network();
  net_layer.arm_drop(4, net::kind_byte(net::MsgKind::proposal),
                     util::ProcessSet::full(5), 1 << 20);
  h.propose(4, 444, bcast::Order::total);
  h.propose(4, 445, bcast::Order::total);  // FIFO successor
  h.run_for(sim::msec(300));
  h.faults().crash_at(h.now() + sim::msec(10), 4);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(4);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)));

  // Later updates still flow.
  for (std::uint64_t i = 0; i < 5; ++i) {
    h.propose(0, 500 + i, bcast::Order::total);
    h.run_for(sim::msec(20));
  }
  h.run_for(sim::sec(3));

  for (ProcessId p = 0; p < 4; ++p) {
    for (const auto& rec : h.delivered(p)) {
      const auto tag = SimHarness::payload_tag(rec.payload);
      EXPECT_NE(tag, 444u) << "p" << p << " delivered a lost proposal";
      EXPECT_NE(tag, 445u) << "p" << p << " delivered its FIFO successor";
    }
    // And the service made progress past the loss.
    int later = 0;
    for (const auto& rec : h.delivered(p))
      if (SimHarness::payload_tag(rec.payload) >= 500) ++later;
    EXPECT_EQ(later, 5) << "p" << p;
  }
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(Undeliverable, OrderedProposalHeldByOneSurvivorIsRecovered) {
  // Contrast case: the proposal reaches ONE survivor before the proposer
  // dies. §4.3's "lost" rule must NOT fire — the survivor's copy makes it
  // deliverable everywhere via retransmission.
  SimHarness h(cfg_n(5, 14));
  form(h);
  h.run_for(sim::msec(200));

  // Drop member 4's proposal towards everyone EXCEPT member 0.
  h.cluster().network().arm_drop(4, net::kind_byte(net::MsgKind::proposal),
                                 util::ProcessSet({1, 2, 3}), 1 << 20);
  h.propose(4, 777, bcast::Order::total);
  h.run_for(sim::msec(400));  // let a decider order it from 0's relay / 4
  h.faults().crash_at(h.now() + sim::msec(10), 4);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(4);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)));
  h.run_for(sim::sec(3));

  // All survivors deliver it exactly once (retransmission recovered it).
  for (ProcessId p = 0; p < 4; ++p) {
    int count = 0;
    for (const auto& rec : h.delivered(p))
      if (SimHarness::payload_tag(rec.payload) == 777) ++count;
    EXPECT_EQ(count, 1) << "p" << p;
  }
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(Undeliverable, WeakUnorderedFromCrashedProposerViaDpd) {
  // A weak+unordered update delivered early by some members before its
  // proposer crashes must become stable for everyone that got it — the dpd
  // mechanism orders it post-mortem (§4.3 "removal of undeliverable
  // proposals": dpd entries are appended so atomicity holds).
  SimHarness h(cfg_n(5, 15));
  form(h);
  h.run_for(sim::msec(200));
  h.propose(4, 888, bcast::Order::unordered, bcast::Atomicity::weak);
  h.run_for(sim::msec(50));  // early delivery at receivers
  h.faults().crash_at(h.now(), 4);
  util::ProcessSet expected = util::ProcessSet::full(5);
  expected.erase(4);
  ASSERT_TRUE(h.run_until_group(expected, h.now() + sim::sec(10)));
  h.run_for(sim::sec(2));
  for (ProcessId p = 0; p < 4; ++p) {
    int count = 0;
    for (const auto& rec : h.delivered(p))
      if (SimHarness::payload_tag(rec.payload) == 888) ++count;
    EXPECT_EQ(count, 1) << "p" << p;
  }
  EXPECT_TRUE(h.check_all_invariants().empty());
}

}  // namespace
}  // namespace tw::gms
