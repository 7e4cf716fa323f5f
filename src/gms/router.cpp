#include "gms/router.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace tw::gms {

namespace {

// Virtual nodes per group on the ring: enough for a flat distribution;
// each one costs memory and a log factor on add/remove.
constexpr int kVnodes = 64;

// splitmix64 finalizer: platform-independent, full-avalanche. The router
// depends on every process computing identical ring points and key hashes.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t point_hash(net::GroupTag tag, int replica) {
  return mix64((static_cast<std::uint64_t>(tag) << 20) ^
               static_cast<std::uint64_t>(replica) ^
               std::uint64_t{0x74776865656c});
}

}  // namespace

void ConsistentHashRouter::add_group(net::GroupTag tag) {
  if (std::any_of(ring_.begin(), ring_.end(),
                  [tag](const Point& p) { return p.tag == tag; }))
    return;
  ring_.reserve(ring_.size() + static_cast<std::size_t>(kVnodes));
  for (int r = 0; r < kVnodes; ++r)
    ring_.push_back(Point{point_hash(tag, r), tag});
  std::sort(ring_.begin(), ring_.end(),
            [](const Point& a, const Point& b) {
              // Tag tie-breaks equal hashes so the ring order is total and
              // identical everywhere regardless of insertion order.
              return a.hash != b.hash ? a.hash < b.hash : a.tag < b.tag;
            });
  ++groups_;
}

void ConsistentHashRouter::remove_group(net::GroupTag tag) {
  const auto it = std::remove_if(
      ring_.begin(), ring_.end(),
      [tag](const Point& p) { return p.tag == tag; });
  if (it == ring_.end()) return;
  ring_.erase(it, ring_.end());
  --groups_;
}

net::GroupTag ConsistentHashRouter::route(std::uint64_t key) const {
  TW_ASSERT_MSG(!ring_.empty(), "routing on an empty ring");
  const std::uint64_t h = mix64(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const Point& p, std::uint64_t v) { return p.hash < v; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->tag;
}

double ConsistentHashRouter::ring_share(net::GroupTag tag) const {
  if (ring_.empty()) return 0.0;
  // Each point owns the arc from its predecessor (exclusive) to itself.
  std::uint64_t owned = 0;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (ring_[i].tag != tag) continue;
    const std::uint64_t prev = i == 0 ? ring_.back().hash : ring_[i - 1].hash;
    owned += ring_[i].hash - prev;  // mod-2^64 wrap is exactly right
  }
  return static_cast<double>(owned) / 18446744073709551615.0;
}

}  // namespace tw::gms
