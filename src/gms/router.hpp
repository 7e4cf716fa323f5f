// Consistent-hash router: client keys → hosted groups.
//
// The multi-group runtime shards a keyspace across its groups. Routing is
// a classic consistent-hash ring: every group owns 64 pseudo-random
// points (virtual nodes) on a 64-bit ring, and a key routes to the group
// owning the first point at or after hash(key). Two properties matter
// here:
//
//   distribution — with enough virtual nodes, each of G groups owns
//     ~1/G of the keyspace (the runtime bench's zipf traffic then skews
//     *popularity*, not placement);
//   stability — adding or removing one group only remaps the keys that
//     group owned (~1/G of them); every other key keeps its group, so
//     rebalancing a live runtime moves the minimum amount of state.
//
// Hashing is splitmix64-based and platform-independent, so a key routes
// to the same group in every process of the team — which is what lets any
// member accept a client request and propose it into the right group.
#pragma once

#include <cstdint>
#include <vector>

#include "net/group_tag.hpp"

namespace tw::gms {

class ConsistentHashRouter {
 public:
  /// Idempotent; re-adding an existing tag is a no-op.
  void add_group(net::GroupTag tag);
  /// Removing an absent tag is a no-op.
  void remove_group(net::GroupTag tag);

  /// The group owning `key`. Must not be called on an empty router.
  [[nodiscard]] net::GroupTag route(std::uint64_t key) const;

  [[nodiscard]] bool empty() const { return ring_.empty(); }
  [[nodiscard]] std::size_t group_count() const { return groups_; }

  /// Fraction of the ring owned by `tag` (diagnostics; exact, not
  /// sampled). 0 when the tag is not on the ring.
  [[nodiscard]] double ring_share(net::GroupTag tag) const;

 private:
  struct Point {
    std::uint64_t hash;
    net::GroupTag tag;
  };

  std::size_t groups_ = 0;
  std::vector<Point> ring_;  ///< sorted by hash
};

}  // namespace tw::gms
