// GroupRuntime — many independent timewheel groups hosted by ONE process
// endpoint.
//
// The paper ran one group of ~5 machines; production scale is a keyspace
// sharded across thousands of groups. This runtime multiplexes N complete
// TimewheelNode stacks over a single net::Endpoint (one event loop, one
// UDP socket or simulator process, one shared BufferPool):
//
//   outbound   each group's node sends through a GroupEndpoint that wraps
//              the frame with the group's tag (net/group_tag.hpp); tag 0
//              goes out unwrapped, byte-identical to single-group traffic
//   inbound    GroupRuntime is the net::Handler bound to the shared
//              endpoint; it demuxes by tag and hands the inner payload to
//              the owning node (a subspan — no copy)
//   routing    a consistent-hash ring maps client keys → groups, so any
//              member accepts any client request and proposes it into the
//              right group (identical hashing on every process)
//   budgets    each group has a byte budget of admitted-but-undelivered
//              proposal payload; an over-budget group refuses further
//              proposals (counted, observable) instead of growing its
//              claim on the shared pool while it is stalled
//   obs        the runtime exports "runtime.*" counters (group census,
//              demux census, per-group rx/tx/routed/refused) through the
//              endpoint's registry, and per-group node stats register as
//              "gms.g<tag>.p<id>.*" via Endpoint::obs_scope
//
// Group membership machinery is untouched: every group runs the exact
// paper protocol among the same set of processes, unaware of its siblings.
// A process crash is a member crash in every hosted group at once —
// exactly the semantics of co-hosting.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "gms/router.hpp"
#include "gms/timewheel_node.hpp"
#include "net/group_tag.hpp"
#include "net/transport.hpp"

namespace tw::gms {

struct GroupRuntimeConfig {
  /// Byte budget of admitted-but-undelivered own-proposal payload per
  /// group; 0 = unlimited. Charged at propose(), credited when the own
  /// proposal is delivered back, so a stalled group hits its cap and
  /// starts refusing instead of buffering without bound.
  std::size_t group_budget_bytes = 0;
};

class GroupRuntime;

/// The per-group view of the shared endpoint: tags outbound frames,
/// forwards everything else. One per hosted group, owned by the runtime.
class GroupEndpoint final : public net::Endpoint {
 public:
  GroupEndpoint(GroupRuntime& rt, net::GroupTag tag);

  [[nodiscard]] ProcessId self() const override;
  [[nodiscard]] int team_size() const override;
  [[nodiscard]] sim::ClockTime hw_now() const override;
  void broadcast(std::vector<std::byte> data) override;
  void send(ProcessId to, std::vector<std::byte> data) override;
  net::TimerId set_timer_at_hw(sim::ClockTime target,
                               std::function<void()> fn) override;
  net::TimerId set_timer_after(sim::Duration d,
                               std::function<void()> fn) override;
  void cancel_timer(net::TimerId id) override;
  [[nodiscard]] obs::Recorder* obs() override;
  [[nodiscard]] std::string obs_scope() const override;
  void trace(sim::TraceKind kind, std::uint64_t a, std::uint64_t b,
             util::ProcessSet set, std::string note) override;

  [[nodiscard]] net::GroupTag tag() const { return tag_; }

 private:
  [[nodiscard]] std::vector<std::byte> maybe_wrap(
      std::vector<std::byte> data);

  GroupRuntime& rt_;
  net::GroupTag tag_;
};

class GroupRuntime final : public net::Handler {
 public:
  /// Per-group operational counters (monotone for the runtime's life).
  struct GroupStats {
    std::uint64_t rx = 0;              ///< inbound frames demuxed to it
    std::uint64_t tx = 0;              ///< outbound frames it sent
    std::uint64_t routed = 0;          ///< keys the router sent its way
    std::uint64_t budget_refused = 0;  ///< proposals refused over budget
    std::uint64_t admission_refused = 0;  ///< refused by node admission
    std::uint64_t rx_dropped = 0;      ///< inbound dropped by a test filter
    std::size_t budget_used = 0;       ///< admitted-undelivered bytes
  };

  GroupRuntime(net::Endpoint& endpoint, GroupRuntimeConfig cfg = {});
  ~GroupRuntime() override;
  GroupRuntime(const GroupRuntime&) = delete;
  GroupRuntime& operator=(const GroupRuntime&) = delete;

  /// Create and host a group. Tags must be unique within the runtime;
  /// tag 0 is the only group whose wire traffic is legacy-compatible.
  /// The group joins the routing ring. `store` (optional) follows the
  /// TimewheelNode contract and must outlive the runtime.
  TimewheelNode& add_group(net::GroupTag tag, const NodeConfig& cfg,
                           AppCallbacks app,
                           store::StableStore* store = nullptr);

  // net::Handler ---------------------------------------------------------
  /// Starts (or crash-restarts) every hosted group: a process (re)start
  /// is a member (re)start in all of them.
  void on_start() override;
  /// Demultiplex by group tag; unknown tags are dropped (counted).
  void on_datagram(ProcessId from, std::span<const std::byte> data) override;

  // Routing + proposals --------------------------------------------------
  [[nodiscard]] net::GroupTag route(std::uint64_t key) const {
    return router_.route(key);
  }
  /// Route `key` to its group and propose there. Returns the group's tag
  /// and sequence, or nullopt when the group's budget refused it.
  std::optional<std::pair<net::GroupTag, ProposalSeq>> propose_keyed(
      std::uint64_t key, std::vector<std::byte> payload,
      bcast::Order order = bcast::Order::total,
      bcast::Atomicity atomicity = bcast::Atomicity::weak);
  /// Propose directly into group `tag` (budget-checked).
  std::optional<ProposalSeq> propose(net::GroupTag tag,
                                     std::vector<std::byte> payload,
                                     bcast::Order order = bcast::Order::total,
                                     bcast::Atomicity atomicity =
                                         bcast::Atomicity::weak);

  // Introspection --------------------------------------------------------
  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }
  [[nodiscard]] bool hosts(net::GroupTag tag) const {
    return groups_.find(tag) != groups_.end();
  }
  [[nodiscard]] TimewheelNode& node(net::GroupTag tag) {
    return *groups_.at(tag)->node;
  }
  [[nodiscard]] const GroupStats& group_stats(net::GroupTag tag) const {
    return groups_.at(tag)->stats;
  }
  [[nodiscard]] const ConsistentHashRouter& router() const { return router_; }
  [[nodiscard]] std::vector<net::GroupTag> tags() const;
  [[nodiscard]] std::uint64_t demux_total() const { return demux_total_; }
  [[nodiscard]] std::uint64_t demux_legacy() const { return demux_legacy_; }
  [[nodiscard]] std::uint64_t demux_unknown() const { return demux_unknown_; }
  [[nodiscard]] std::uint64_t demux_malformed() const {
    return demux_malformed_;
  }

  // Test / fault hooks ---------------------------------------------------
  /// Drop all inbound frames for `tag` at THIS process (a per-group
  /// partition: the group loses this member's ear while its siblings and
  /// the shared endpoint stay healthy). Counted as rx_dropped.
  void set_inbound_drop(net::GroupTag tag, bool drop);

 private:
  friend class GroupEndpoint;

  struct Group {
    explicit Group(GroupRuntime& rt, net::GroupTag tag) : ep(rt, tag) {}
    GroupEndpoint ep;
    std::unique_ptr<TimewheelNode> node;
    GroupStats stats;
    std::size_t budget_bytes = 0;  ///< 0 = unlimited
    bool drop_inbound = false;
  };

  net::Endpoint& ep_;
  GroupRuntimeConfig cfg_;
  // Node construction order is the map's iteration order; on_start walks
  // it deterministically (ordered map, not hashed).
  std::map<net::GroupTag, std::unique_ptr<Group>> groups_;
  ConsistentHashRouter router_;
  std::uint64_t demux_total_ = 0;
  std::uint64_t demux_legacy_ = 0;     ///< unwrapped frames (tag-0 path)
  std::uint64_t demux_unknown_ = 0;    ///< tag not hosted here
  std::uint64_t demux_malformed_ = 0;  ///< truncated/oversized wrapper
  obs::Registry::SourceId stats_source_ = 0;
};

}  // namespace tw::gms
