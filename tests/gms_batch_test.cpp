// Proposal batching (NodeConfig::max_batch > 1): batches actually coalesce
// datagrams, partial batches flush on the timer, total-order delivery and
// per-proposer FIFO are bit-identical in semantics to the unbatched
// protocol, and a torture mini-sweep holds the §3 invariants with batching
// on under every fault family.
#include <gtest/gtest.h>

#include <vector>

#include "bcast/messages.hpp"
#include "gms/sim_harness.hpp"
#include "net/msg_kind.hpp"
#include "torture/engine.hpp"
#include "torture/fault_plan.hpp"

namespace tw::gms {
namespace {

HarnessConfig batch_cfg(int n, std::uint64_t seed, int max_batch) {
  HarnessConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.node.max_batch = max_batch;
  return cfg;
}

std::uint64_t kind_sent(SimHarness& h, net::MsgKind k) {
  return h.cluster().network().stats().by_kind[net::kind_byte(k)].sent;
}

/// Delivered payload tags at p, in delivery order.
std::vector<std::uint64_t> tags(SimHarness& h, ProcessId p) {
  std::vector<std::uint64_t> out;
  for (const auto& rec : h.delivered(p))
    out.push_back(SimHarness::payload_tag(rec.payload));
  return out;
}

TEST(GmsBatch, BatchesCoalesceAndDeliverEverywhere) {
  SimHarness h(batch_cfg(5, 11, 4));
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(5), sim::sec(10)));
  // Bursts of 4 from one proposer land in one wire datagram each.
  for (std::uint64_t burst = 0; burst < 5; ++burst) {
    for (std::uint64_t i = 0; i < 4; ++i)
      h.propose(static_cast<ProcessId>(burst % 5), 100 + burst * 4 + i,
                bcast::Order::total);
    h.run_for(sim::msec(50));
  }
  h.run_for(sim::sec(3));

  EXPECT_GT(kind_sent(h, net::MsgKind::proposal_batch), 0u);
  const auto reference = tags(h, 0);
  EXPECT_EQ(reference.size(), 20u);
  for (ProcessId p = 1; p < 5; ++p)
    EXPECT_EQ(tags(h, p), reference) << "p" << p;
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsBatch, PartialBatchFlushesOnTimer) {
  SimHarness h(batch_cfg(3, 12, 8));
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(3), sim::sec(10)));
  h.propose(1, 42, bcast::Order::total);  // alone: far below max_batch
  h.run_for(sim::sec(2));
  for (ProcessId p = 0; p < 3; ++p) {
    ASSERT_EQ(h.delivered(p).size(), 1u) << "p" << p;
    EXPECT_EQ(SimHarness::payload_tag(h.delivered(p)[0].payload), 42u);
  }
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsBatch, BatchAboveTheDecoderLimitShipsInChunks) {
  // max_batch above the decoder's limit: the flush must split the queue
  // into datagrams the receivers accept, or every member but the proposer
  // drops the whole batch (and its rebroadcasts and retransmit answers,
  // chunked the same way) forever.
  SimHarness h(batch_cfg(3, 5, 5000));
  h.start();
  ASSERT_TRUE(h.run_until_group(util::ProcessSet::full(3), sim::sec(10)));
  const std::size_t count = bcast::kMaxProposalBatch + 104;
  for (std::uint64_t i = 0; i < count; ++i) h.propose(0, i);
  h.run_for(sim::sec(10));
  for (ProcessId p = 0; p < 3; ++p)
    EXPECT_EQ(h.delivered(p).size(), count) << "p" << p;
  EXPECT_TRUE(h.check_all_invariants().empty());
}

TEST(GmsBatch, SemanticsMatchUnbatchedRun) {
  // The same workload through max_batch=1 and max_batch=4 must produce the
  // same delivered set with the same per-proposer FIFO order; batching may
  // only change how proposals are packed into datagrams.
  auto run = [](int max_batch, std::uint64_t* proposal_datagrams) {
    SimHarness h(batch_cfg(5, 13, max_batch));
    h.start();
    EXPECT_TRUE(h.run_until_group(util::ProcessSet::full(5), sim::sec(10)));
    const std::uint64_t p0 = kind_sent(h, net::MsgKind::proposal) +
                             kind_sent(h, net::MsgKind::proposal_batch);
    // Bursts of 3 from one proposer, so batching has something to coalesce.
    for (std::uint64_t i = 0; i < 30; ++i) {
      h.propose(static_cast<ProcessId>((i / 3) % 5), 100 + i,
                bcast::Order::total);
      if (i % 3 == 2) h.run_for(sim::msec(15));
    }
    h.run_for(sim::sec(3));
    EXPECT_TRUE(h.check_all_invariants().empty());
    *proposal_datagrams = kind_sent(h, net::MsgKind::proposal) +
                          kind_sent(h, net::MsgKind::proposal_batch) - p0;
    std::vector<std::vector<std::uint64_t>> per_node;
    for (ProcessId p = 0; p < 5; ++p) per_node.push_back(tags(h, p));
    return per_node;
  };

  std::uint64_t unbatched_dg = 0, batched_dg = 0;
  const auto unbatched = run(1, &unbatched_dg);
  const auto batched = run(4, &batched_dg);

  for (ProcessId p = 0; p < 5; ++p) {
    ASSERT_EQ(batched[p].size(), 30u) << "p" << p;
    // Same per-proposer FIFO order in both runs (the global interleaving
    // may differ — decisions fall at different times).
    for (std::uint64_t proposer = 0; proposer < 5; ++proposer) {
      std::vector<std::uint64_t> a, b;
      for (auto t : unbatched[p])
        if ((t - 100) / 3 % 5 == proposer) a.push_back(t);
      for (auto t : batched[p])
        if ((t - 100) / 3 % 5 == proposer) b.push_back(t);
      EXPECT_EQ(a, b) << "p" << p << " proposer " << proposer;
    }
  }
  // The whole point: meaningfully fewer proposal datagrams on the wire.
  EXPECT_LT(batched_dg, unbatched_dg);
}

TEST(GmsBatch, TortureSweepHoldsInvariantsWithBatching) {
  torture::TortureConfig cfg;
  cfg.fault_start = sim::sec(2);
  cfg.fault_end = sim::sec(5);
  cfg.settle = sim::sec(25);
  cfg.quiet_tail = sim::sec(1);
  cfg.workload_rate_hz = 8.0;
  cfg.max_batch = 3;
  torture::TortureEngine engine(cfg);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const torture::RunResult r = engine.run_seed(seed);
    EXPECT_TRUE(r.passed()) << "seed " << seed << "\n"
                            << r.report.to_string();
  }
}

TEST(GmsBatch, PlanSerializationCarriesMaxBatch) {
  torture::TortureConfig cfg;
  cfg.max_batch = 3;
  const torture::FaultPlan plan = torture::generate_plan(cfg, 5);
  const std::string text = torture::plan_to_string(plan);
  EXPECT_NE(text.find("\nbatch 3\n"), std::string::npos);
  torture::FaultPlan parsed;
  ASSERT_TRUE(torture::plan_from_string(text, parsed));
  EXPECT_EQ(parsed.cfg.max_batch, 3);

  // Dumps from before batching existed have no "batch" line; they must
  // still parse, defaulting to the classic unbatched behavior.
  std::string old_text = text;
  const auto pos = old_text.find("\nbatch 3");
  old_text.erase(pos, std::string("\nbatch 3").size());
  torture::FaultPlan old_parsed;
  ASSERT_TRUE(torture::plan_from_string(old_text, old_parsed));
  EXPECT_EQ(old_parsed.cfg.max_batch, 1);
}

}  // namespace
}  // namespace tw::gms
