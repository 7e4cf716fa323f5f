// The timer store the repo is named after: a hashed hierarchical timer
// wheel (4 levels × 256 slots at a 2^10 µs ≈ 1 ms base tick), giving O(1)
// arm / cancel / re-arm at millions of concurrent timers.
//
// The protocol workload is arm/cancel churn: every proposer retransmit,
// FIFO gap-grace, rejoin backoff and failure-detection deadline is a timer
// that is usually cancelled before it fires. A binary heap pays O(log n)
// per arm plus a tombstone per cancel (see sim::EventQueue); the wheel pays
// a freelist pop and a doubly-linked-list splice for either operation.
//
// Layout. Level L holds timers due in [256^L, 256^(L+1)) ticks of 2^kTickShift
// µs; a timer's slot within a level is addressed by bits [8L, 8L+8) of its
// expiry tick ceil((deadline - origin) / tick), exactly like the classic
// hashed wheel. Level 0 spans ~262 ms, level 1 ~67 s, level 2 ~4.8 h,
// level 3 ~51 days; anything farther parks in the farthest level-3 slot and
// re-cascades until it fits.
//
// Exact deadlines. Ticks only address slots: a timer fires at its own µs
// deadline, never early and not a tick late. With the hand on tick h,
// every timer due before tick h+1 ends sits in the ready queue (its slot
// drained) or in the level-0 slot of tick h+1, which pop_due() serves from
// the head while the head's deadline has passed. A timer whose expiry tick
// h+1 is a level boundary is pulled down from the boundary slot when the
// hand lands on h, so no due timer waits for a cascade. Only the earliest
// busy level-0 slot is kept sorted, by (deadline, arm order): it is sorted
// lazily once when it becomes the earliest, single arms insert into it in
// order, and bulk moves (cascades) drop the flag so it re-sorts once.
// Every other slot stays an unsorted O(1) list. Due timers therefore pop
// in deadline order, equal deadlines in arm order, as in sim::EventQueue.
//
// Cascading is lazy: nothing moves until advance time. When the level-0
// hand wraps, the next level-1 slot is cascaded down (and transitively up
// the hierarchy when those hands wrap), re-hashing each timer into its
// lower-level home. Each timer cascades at most kLevels-1 times in its
// whole life, so the amortized cost per timer stays O(1).
//
// Advancing does not step tick-by-tick: per-level occupancy bitmaps
// (4 × 256 bits) let the wheel jump straight to the next tick where
// anything happens — a populated level-0 slot or a cascade boundary of a
// populated higher slot — so a loop that slept for seconds (or a timer 50
// days out) costs O(events), not O(elapsed ticks).
//
// Handles are generation-tagged: an EventId packs (generation << 32 |
// pool index + 1), and cancel/reschedule verify the generation, so a
// handle kept across the timer's death can never cancel an unrelated
// timer that recycled the same pool slot.
//
// The discrete-event simulator keeps sim::EventQueue: it steps straight
// from event to event, so it needs an exact next_time() for every timer,
// which the wheel gives only below level 1; and its timer counts are tiny.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/event_queue.hpp"  // sim::EventId, sim::kNoEvent
#include "sim/time.hpp"

namespace tw::evl {

class TimerWheel {
 public:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 8;
  static constexpr std::uint64_t kSlots = 1u << kSlotBits;  // 256
  static constexpr int kTickShift = 10;  // 1 tick = 1024 µs ≈ 1 ms
  static constexpr std::int64_t kTickUs = std::int64_t{1} << kTickShift;
  /// Horizon in ticks: deltas beyond this park in the last level-3 slot.
  static constexpr std::uint64_t kMaxDelta =
      (std::uint64_t{1} << (kSlotBits * kLevels)) - 1;

  /// `origin_us` anchors tick 0; pass the clock reading at construction
  /// (deadlines earlier than the origin are treated as due immediately).
  explicit TimerWheel(std::int64_t origin_us = 0);

  /// Arm `fn` for `deadline_us`. O(1), except that an arm into the earliest
  /// busy level-0 slot walks that slot from its tail to keep it sorted (one
  /// step when deadlines arrive in order). The returned handle is valid until
  /// the timer fires or is cancelled; it is never sim::kNoEvent.
  sim::EventId schedule(std::int64_t deadline_us, std::function<void()> fn);

  /// Disarm. O(1). Returns false when the handle is stale: the timer
  /// already fired, was already cancelled, or the pool slot was recycled
  /// (the generation tag catches that case).
  bool cancel(sim::EventId id);

  /// Move a pending timer to a new deadline, keeping its handle; it then
  /// orders as if armed now. Cost as schedule(). Returns false on a stale
  /// handle.
  bool reschedule(sim::EventId id, std::int64_t deadline_us);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Earliest instant at which pop_due() can next yield a timer: the exact
  /// earliest deadline when that timer is ready or parked in level 0,
  /// otherwise a lower bound just before the cascade that moves it closer
  /// (re-poll after cascading). sim::kNever when empty. Not const: it may
  /// sort the earliest busy level-0 slot.
  [[nodiscard]] std::int64_t next_time();

  struct Fired {
    sim::EventId id = sim::kNoEvent;
    std::int64_t deadline = 0;  ///< effective deadline (≥ arm-time clamp)
    std::function<void()> fn;
  };

  /// Pop the earliest timer whose deadline is ≤ `now_us`, advancing the
  /// wheel (draining slots, cascading levels) as far as `now_us` requires.
  /// Never returns a timer before its deadline. Due timers pop in deadline
  /// order, equal deadlines in arm (FIFO) order. std::nullopt when nothing
  /// is due.
  std::optional<Fired> pop_due(std::int64_t now_us);

  /// Occupancy / traffic counters for obs export. Monotone except size_*.
  struct Stats {
    std::uint64_t scheduled = 0;       ///< schedule() calls
    std::uint64_t cancelled = 0;       ///< successful cancel() calls
    std::uint64_t rescheduled = 0;     ///< successful reschedule() calls
    std::uint64_t fired = 0;           ///< timers returned by pop_due()
    std::uint64_t cascades = 0;        ///< slot cascades and boundary pulls
    std::uint64_t cascaded_timers = 0; ///< timers they moved down a level
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Live timers currently parked at `level` (0..kLevels-1).
  [[nodiscard]] std::size_t level_size(int level) const;
  /// Live timers already expired and waiting in the ready queue.
  [[nodiscard]] std::size_t ready_size() const { return ready_count_; }
  /// Pool capacity (== high-water mark of concurrent timers). For tests.
  [[nodiscard]] std::size_t allocated_nodes() const { return pool_.size(); }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  static constexpr std::int32_t kBucketFree = -1;
  static constexpr std::int32_t kBucketReady = -2;

  struct Node {
    std::int64_t deadline = 0;       ///< effective deadline, µs
    std::uint64_t seq = 0;           ///< arm order: FIFO among equal deadlines
    std::uint32_t gen = 1;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    /// level * kSlots + slot, kBucketReady, or kBucketFree (on freelist).
    std::int32_t bucket = kBucketFree;
    std::function<void()> fn;
  };

  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// Expiry tick: ceil((deadline - origin) / tick), 0 for the past.
  [[nodiscard]] std::uint64_t tick_of(std::int64_t deadline_us) const;
  [[nodiscard]] Node* decode(sim::EventId id);
  /// (deadline, seq) order: the order due timers pop in.
  [[nodiscard]] bool fires_before(std::uint32_t a, std::uint32_t b) const;
  /// Set a (re)armed node's deadline, clamped to the hand, and its seq.
  void arm(Node& n, std::int64_t deadline_us);

  std::uint32_t alloc_node();
  void free_node(std::uint32_t idx);

  /// Link `idx` into `list` right after `after` (kNil: at the head).
  void link_after(List& list, std::int32_t bucket, std::uint32_t idx,
                  std::uint32_t after);
  void push_back(List& list, std::int32_t bucket, std::uint32_t idx);
  void unlink(std::uint32_t idx);
  /// Unlink the head of `list` and hand it out as a fired timer.
  Fired fire_head(List& list);

  /// Hash a node into the level/slot its expiry tick calls for (or the
  /// ready queue when already due): in fire order into the sorted slot, at
  /// the head of a higher-level slot when it expires on that slot's
  /// cascade tick, else at the tail. The node must be unlinked.
  void place(std::uint32_t idx);

  /// Move every timer in (level, slot) down the hierarchy.
  void cascade(int level, std::uint64_t slot);

  /// Pull the timers expiring at tick current_tick_ + 1 out of the higher
  /// level slots that would cascade only at that tick, into level 0.
  void pull_boundary();

  /// Sort level-0 slot `slot` by fires_before and mark it as the sorted
  /// slot (a no-op when it already is).
  void ensure_sorted(std::uint64_t slot);

  /// Advance the hand to `target_tick`, draining due slots into the ready
  /// queue and cascading at level boundaries, jumping over dead air; then
  /// pull_boundary() for the tick after it.
  void advance_to(std::uint64_t target_tick);

  /// Smallest d in [1, kSlots] such that slot (hand + d) of `level` is
  /// busy; 0 when the level is empty.
  [[nodiscard]] std::uint64_t busy_distance(int level,
                                            std::uint64_t hand) const;
  /// Next tick > current_tick_ at which a slot drains or a populated slot
  /// cascades, from level `from_level` up; UINT64_MAX when those levels
  /// are empty.
  [[nodiscard]] std::uint64_t next_busy_tick(int from_level = 0) const;

  void bitmap_set(int level, std::uint64_t slot);
  void bitmap_clear(int level, std::uint64_t slot);

  std::int64_t origin_us_;
  std::uint64_t current_tick_ = 0;

  std::vector<Node> pool_;
  std::uint32_t free_head_ = kNil;

  List lists_[kLevels * kSlots];
  List ready_;
  std::size_t ready_count_ = 0;
  std::size_t level_count_[kLevels] = {0, 0, 0, 0};
  /// Per-level slot-occupancy bitmap: bit s of word s/64 ⇔ slot s nonempty.
  std::uint64_t bitmap_[kLevels][kSlots / 64] = {};

  /// The level-0 slot kept sorted, or -1. At most one slot is sorted.
  std::int64_t sorted_slot_ = -1;
  struct SortKey {
    std::int64_t deadline;
    std::uint64_t seq;
    std::uint32_t idx;
  };
  std::vector<SortKey> sort_scratch_;

  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  Stats stats_;
};

}  // namespace tw::evl
