// RuntimeHarness — a team of GroupRuntimes inside the discrete-event
// simulator: n processes, each hosting the same G timewheel groups over one
// shared SimCluster endpoint per process.
//
// The multi-group analogue of SimHarness, with one deliberate difference:
// invariants are checked per group at the APPLICATION level (delivery
// records keyed by (process, group)), not through the cluster trace log.
// Group ids are allocated independently inside each timewheel group, so
// two runtime groups can mint the same GroupId — the trace-log checkers
// of SimHarness would see phantom collisions. App-level per-group checks
// are immune to that aliasing.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gms/group_runtime.hpp"
#include "gms/sim_harness.hpp"  // DeliveryRecord / ViewRecord
#include "net/sim_transport.hpp"

namespace tw::gms {

struct RuntimeHarnessConfig {
  int n = 3;       ///< processes (every group spans all of them)
  int groups = 4;  ///< hosted groups, tags 0..groups-1 (0 = legacy framing)
  std::uint64_t seed = 1;
  NodeConfig node;
  sim::DelayModel delays;
  sim::SchedModel sched;
  double rho = 1e-5;
  sim::ClockTime max_clock_offset = sim::msec(500);
  /// Perfect clock-sync mode: ClockSync sends nothing, which is what makes
  /// thousands of co-hosted groups simulable (csync traffic would dwarf
  /// the payload traffic G-fold otherwise).
  bool perfect_clocks = false;
  std::size_t group_budget_bytes = 0;  ///< per-group budget; 0 = unlimited
};

class RuntimeHarness {
 public:
  explicit RuntimeHarness(RuntimeHarnessConfig cfg);
  ~RuntimeHarness();
  RuntimeHarness(const RuntimeHarness&) = delete;
  RuntimeHarness& operator=(const RuntimeHarness&) = delete;

  [[nodiscard]] int n() const { return cfg_.n; }
  [[nodiscard]] int groups() const { return cfg_.groups; }
  net::SimCluster& cluster() { return cluster_; }
  sim::FaultScript& faults() { return cluster_.faults(); }
  GroupRuntime& runtime(ProcessId p) { return *runtimes_.at(p); }
  TimewheelNode& node(ProcessId p, net::GroupTag tag) {
    return runtimes_.at(p)->node(tag);
  }
  [[nodiscard]] sim::SimTime now() const { return cluster_.now(); }
  [[nodiscard]] const RuntimeHarnessConfig& config() const { return cfg_; }

  void start() { cluster_.start(); }
  void run_until(sim::SimTime t) { cluster_.run_until(t); }
  void run_for(sim::Duration d) { cluster_.run_until(now() + d); }

  [[nodiscard]] obs::MetricsSnapshot metrics() const {
    return cluster_.metrics().snapshot();
  }

  // --- app recording (per process, per group) ---------------------------
  [[nodiscard]] const std::vector<DeliveryRecord>& delivered(
      ProcessId p, net::GroupTag tag) const {
    return delivered_.at(p).at(tag);
  }
  [[nodiscard]] const std::vector<ViewRecord>& views(ProcessId p,
                                                     net::GroupTag tag) const {
    return views_.at(p).at(tag);
  }
  /// Deliveries across all processes and groups (the bench's aggregate).
  [[nodiscard]] std::uint64_t total_delivered() const;

  // --- convenience drivers ----------------------------------------------
  /// Run until EVERY group has every process installed in a full-team view
  /// with a per-group common id, or until the deadline.
  bool run_until_all_groups(sim::SimTime deadline);

  /// Propose a small tagged blob (u64 `marker`, echoed in the payload)
  /// directly into group `tag` at process p. Returns false if the group's
  /// budget refused it.
  bool propose(ProcessId p, net::GroupTag tag, std::uint64_t marker,
               bcast::Order order = bcast::Order::total);
  /// Same, routed by `key` through p's consistent-hash router. Returns the
  /// chosen group, or nullopt when refused.
  std::optional<net::GroupTag> propose_key(ProcessId p, std::uint64_t key,
                                           std::uint64_t marker);

  // --- invariant checkers (app-level, per group) ------------------------
  /// Delivery safety within one group, across its members: same ordinal →
  /// same proposal, no duplicate per member, FIFO per proposer among
  /// total-ordered deliveries.
  [[nodiscard]] std::vector<std::string> check_group(net::GroupTag tag) const;
  /// check_group over every hosted group.
  [[nodiscard]] std::vector<std::string> check_all_groups() const;

 private:
  RuntimeHarnessConfig cfg_;
  net::SimCluster cluster_;
  std::vector<std::unique_ptr<GroupRuntime>> runtimes_;  ///< one per process
  // delivered_[p][tag] — tags are dense 0..groups-1 here by construction.
  std::vector<std::vector<std::vector<DeliveryRecord>>> delivered_;
  std::vector<std::vector<std::vector<ViewRecord>>> views_;
};

}  // namespace tw::gms
