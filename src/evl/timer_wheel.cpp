#include "evl/timer_wheel.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace tw::evl {

namespace {

constexpr std::uint64_t kSlotMask = TimerWheel::kSlots - 1;

/// Bits of the absolute expiry tick that address a slot at `level`.
constexpr std::uint64_t slot_of(std::uint64_t tick, int level) {
  return (tick >> (TimerWheel::kSlotBits * level)) & kSlotMask;
}

/// Delta upper bound (exclusive) a timer may have and still live at `level`.
constexpr std::uint64_t level_span(int level) {
  return std::uint64_t{1} << (TimerWheel::kSlotBits * (level + 1));
}

constexpr std::uint64_t kWords = TimerWheel::kSlots / 64;

}  // namespace

TimerWheel::TimerWheel(std::int64_t origin_us) : origin_us_(origin_us) {}

std::uint64_t TimerWheel::tick_of(std::int64_t deadline_us) const {
  if (deadline_us <= origin_us_) return 0;
  const std::uint64_t rel =
      static_cast<std::uint64_t>(deadline_us - origin_us_);
  // Round UP: a timer must never fire before its deadline.
  return (rel >> kTickShift) +
         ((rel & static_cast<std::uint64_t>(kTickUs - 1)) != 0 ? 1 : 0);
}

bool TimerWheel::fires_before(std::uint32_t a, std::uint32_t b) const {
  const Node& x = pool_[a];
  const Node& y = pool_[b];
  return x.deadline != y.deadline ? x.deadline < y.deadline : x.seq < y.seq;
}

void TimerWheel::arm(Node& n, std::int64_t deadline_us) {
  // Clamp past deadlines to the wheel's notion of now so the recorded
  // deadline (and the fire-latency derived from it) stays meaningful for
  // the "run asap" idiom of arming with a deadline of 0.
  const std::int64_t floor_us =
      origin_us_ + static_cast<std::int64_t>(current_tick_ << kTickShift);
  n.deadline = deadline_us < floor_us ? floor_us : deadline_us;
  n.seq = next_seq_++;
}

std::uint32_t TimerWheel::alloc_node() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = pool_[idx].next;
    return idx;
  }
  TW_ASSERT_MSG(pool_.size() < kNil - 1, "timer wheel node pool exhausted");
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void TimerWheel::free_node(std::uint32_t idx) {
  Node& n = pool_[idx];
  n.fn = nullptr;  // release the closure now, not at recycle time
  n.bucket = kBucketFree;
  ++n.gen;  // stale handles to this slot die here
  n.prev = kNil;
  n.next = free_head_;
  free_head_ = idx;
}

void TimerWheel::bitmap_set(int level, std::uint64_t slot) {
  bitmap_[level][slot >> 6] |= std::uint64_t{1} << (slot & 63);
}

void TimerWheel::bitmap_clear(int level, std::uint64_t slot) {
  bitmap_[level][slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
}

void TimerWheel::link_after(List& list, std::int32_t bucket,
                            std::uint32_t idx, std::uint32_t after) {
  Node& n = pool_[idx];
  n.bucket = bucket;
  n.prev = after;
  n.next = after == kNil ? list.head : pool_[after].next;
  if (n.next != kNil) {
    pool_[n.next].prev = idx;
  } else {
    list.tail = idx;
  }
  if (after != kNil) {
    pool_[after].next = idx;
  } else {
    list.head = idx;
  }
  if (bucket == kBucketReady) {
    ++ready_count_;
    return;
  }
  const int level = bucket / static_cast<std::int32_t>(kSlots);
  ++level_count_[level];
  if (list.head == list.tail)
    bitmap_set(level, static_cast<std::uint64_t>(bucket) & kSlotMask);
}

void TimerWheel::push_back(List& list, std::int32_t bucket,
                           std::uint32_t idx) {
  link_after(list, bucket, idx, list.tail);
}

void TimerWheel::unlink(std::uint32_t idx) {
  Node& n = pool_[idx];
  List& list = n.bucket == kBucketReady
                   ? ready_
                   : lists_[static_cast<std::size_t>(n.bucket)];
  if (n.prev != kNil) {
    pool_[n.prev].next = n.next;
  } else {
    list.head = n.next;
  }
  if (n.next != kNil) {
    pool_[n.next].prev = n.prev;
  } else {
    list.tail = n.prev;
  }
  if (n.bucket == kBucketReady) {
    --ready_count_;
  } else {
    const int level = n.bucket / static_cast<std::int32_t>(kSlots);
    --level_count_[level];
    if (list.head == kNil)
      bitmap_clear(level, static_cast<std::uint64_t>(n.bucket) & kSlotMask);
  }
  n.prev = n.next = kNil;
}

void TimerWheel::place(std::uint32_t idx) {
  const std::uint64_t expiry = tick_of(pool_[idx].deadline);
  if (expiry <= current_tick_) {
    push_back(ready_, kBucketReady, idx);
    return;
  }
  const std::uint64_t delta = expiry - current_tick_;
  int level = 0;
  std::uint64_t placement_tick = expiry;
  while (level < kLevels - 1 && delta >= level_span(level)) ++level;
  if (delta > kMaxDelta) {
    // Beyond the horizon: park in the farthest level-3 slot; it re-hashes
    // (and eventually fits) each time that slot cascades.
    placement_tick = current_tick_ + kMaxDelta;
  }
  const std::uint64_t slot = slot_of(placement_tick, level);
  const std::int32_t bucket =
      static_cast<std::int32_t>(static_cast<std::uint64_t>(level) * kSlots +
                                slot);
  List& list = lists_[static_cast<std::size_t>(bucket)];
  std::uint32_t after = list.tail;
  if (bucket == sorted_slot_) {
    while (after != kNil && fires_before(idx, after))
      after = pool_[after].prev;
  } else if (level > 0 && placement_tick == expiry &&
             (expiry & (level_span(level - 1) - 1)) == 0) {
    // Expires on the very tick this slot cascades: park at the head, where
    // pull_boundary() finds it without scanning the slot.
    after = kNil;
  }
  link_after(list, bucket, idx, after);
}

void TimerWheel::cascade(int level, std::uint64_t slot) {
  List& list = lists_[static_cast<std::size_t>(level) * kSlots + slot];
  std::uint32_t idx = list.head;
  if (idx == kNil) return;
  list.head = list.tail = kNil;
  bitmap_clear(level, slot);
  ++stats_.cascades;
  sorted_slot_ = -1;  // a bulk move: append, and re-sort once when asked
  // Timers expiring on this very tick join its level-0 slot, which drains
  // (sorted) right after, rather than the ready queue's tail.
  List& now_slot = lists_[current_tick_ & kSlotMask];
  const auto now_bucket = static_cast<std::int32_t>(current_tick_ & kSlotMask);
  while (idx != kNil) {
    const std::uint32_t next = pool_[idx].next;
    --level_count_[level];
    ++stats_.cascaded_timers;
    if (tick_of(pool_[idx].deadline) == current_tick_) {
      push_back(now_slot, now_bucket, idx);
    } else {
      place(idx);
    }
    idx = next;
  }
}

void TimerWheel::pull_boundary() {
  const std::uint64_t tick = current_tick_ + 1;
  const auto bucket = static_cast<std::int32_t>(tick & kSlotMask);
  bool pulled = false;
  for (int level = 1; level < kLevels; ++level) {
    if ((tick & (level_span(level - 1) - 1)) != 0) break;  // not a boundary
    if (level_count_[level] == 0) continue;
    const List& list =
        lists_[static_cast<std::size_t>(level) * kSlots + slot_of(tick, level)];
    // place() parks the timers expiring on the boundary at the head.
    while (list.head != kNil && tick_of(pool_[list.head].deadline) == tick) {
      const std::uint32_t idx = list.head;
      unlink(idx);
      push_back(lists_[tick & kSlotMask], bucket, idx);
      ++stats_.cascaded_timers;
      pulled = true;
    }
  }
  if (pulled) {
    ++stats_.cascades;
    if (sorted_slot_ == bucket) sorted_slot_ = -1;
  }
}

void TimerWheel::ensure_sorted(std::uint64_t slot) {
  if (sorted_slot_ == static_cast<std::int64_t>(slot)) return;
  sorted_slot_ = static_cast<std::int64_t>(slot);
  List& list = lists_[slot];
  if (list.head == list.tail) return;  // zero or one timer
  sort_scratch_.clear();
  for (std::uint32_t idx = list.head; idx != kNil; idx = pool_[idx].next)
    sort_scratch_.push_back(SortKey{pool_[idx].deadline, pool_[idx].seq, idx});
  std::sort(sort_scratch_.begin(), sort_scratch_.end(),
            [](const SortKey& a, const SortKey& b) {
              return a.deadline != b.deadline ? a.deadline < b.deadline
                                              : a.seq < b.seq;
            });
  std::uint32_t prev = kNil;
  for (const SortKey& k : sort_scratch_) {
    pool_[k.idx].prev = prev;
    if (prev != kNil) pool_[prev].next = k.idx;
    prev = k.idx;
  }
  pool_[prev].next = kNil;
  list.head = sort_scratch_.front().idx;
  list.tail = prev;
}

std::uint64_t TimerWheel::busy_distance(int level, std::uint64_t hand) const {
  if (level_count_[level] == 0) return 0;
  const std::uint64_t start = (hand + 1) & kSlotMask;
  std::uint64_t w = start >> 6;
  std::uint64_t word = bitmap_[level][w] & (~std::uint64_t{0} << (start & 63));
  // kWords + 1 reads: the last revisits the start word for the slots
  // before `start`, which are the farthest (up to a full lap, d == kSlots:
  // a slot under the hand was just drained or cascaded).
  for (std::uint64_t n = 0; n <= kWords; ++n) {
    if (word != 0) {
      const std::uint64_t slot =
          (w << 6) + static_cast<std::uint64_t>(std::countr_zero(word));
      return ((slot - hand - 1) & kSlotMask) + 1;
    }
    w = (w + 1) % kWords;
    word = bitmap_[level][w];
  }
  return 0;
}

std::uint64_t TimerWheel::next_busy_tick(int from_level) const {
  std::uint64_t best = UINT64_MAX;
  for (int level = from_level; level < kLevels; ++level) {
    const int shift = kSlotBits * level;
    const std::uint64_t d =
        busy_distance(level, (current_tick_ >> shift) & kSlotMask);
    if (d == 0) continue;
    const std::uint64_t t = ((current_tick_ >> shift) + d) << shift;
    best = t < best ? t : best;
  }
  return best;
}

void TimerWheel::advance_to(std::uint64_t target_tick) {
  while (current_tick_ < target_tick) {
    if (live_ == ready_count_) {  // wheel levels empty: jump over dead air
      current_tick_ = target_tick;
      return;
    }
    const std::uint64_t busy = next_busy_tick();
    if (busy > target_tick) {
      current_tick_ = target_tick;
      break;
    }
    current_tick_ = busy;
    // Top-down at each wrapped boundary: place() re-hashes straight to a
    // timer's final level, so levels never re-cascade within one tick.
    for (int level = kLevels - 1; level >= 1; --level) {
      const std::uint64_t mask = level_span(level - 1) - 1;
      if ((current_tick_ & mask) == 0)
        cascade(level, slot_of(current_tick_, level));
    }
    // Drain the level-0 slot the hand landed on into the ready queue, in
    // fire order: every timer in it is due by the end of this tick.
    const std::uint64_t slot = current_tick_ & kSlotMask;
    List& list = lists_[slot];
    if (list.head != kNil) {
      ensure_sorted(slot);
      sorted_slot_ = -1;
      std::uint32_t idx = list.head;
      list.head = list.tail = kNil;
      bitmap_clear(0, slot);
      while (idx != kNil) {
        const std::uint32_t next = pool_[idx].next;
        --level_count_[0];
        push_back(ready_, kBucketReady, idx);
        idx = next;
      }
    }
  }
  pull_boundary();
}

sim::EventId TimerWheel::schedule(std::int64_t deadline_us,
                                  std::function<void()> fn) {
  const std::uint32_t idx = alloc_node();
  Node& n = pool_[idx];
  arm(n, deadline_us);
  n.fn = std::move(fn);
  place(idx);
  ++live_;
  ++stats_.scheduled;
  return (static_cast<sim::EventId>(n.gen) << 32) |
         static_cast<sim::EventId>(idx + 1);
}

TimerWheel::Node* TimerWheel::decode(sim::EventId id) {
  const std::uint64_t low = id & 0xffffffffu;
  if (low == 0 || low > pool_.size()) return nullptr;
  Node& n = pool_[static_cast<std::size_t>(low - 1)];
  if (n.bucket == kBucketFree) return nullptr;
  if (n.gen != static_cast<std::uint32_t>(id >> 32)) return nullptr;
  return &n;
}

bool TimerWheel::cancel(sim::EventId id) {
  Node* n = decode(id);
  if (n == nullptr) return false;
  const std::uint32_t idx = static_cast<std::uint32_t>((id & 0xffffffffu) - 1);
  unlink(idx);
  free_node(idx);
  --live_;
  ++stats_.cancelled;
  return true;
}

bool TimerWheel::reschedule(sim::EventId id, std::int64_t deadline_us) {
  Node* n = decode(id);
  if (n == nullptr) return false;
  const std::uint32_t idx = static_cast<std::uint32_t>((id & 0xffffffffu) - 1);
  unlink(idx);
  arm(*n, deadline_us);
  place(idx);
  ++stats_.rescheduled;
  return true;
}

std::int64_t TimerWheel::next_time() {
  if (ready_.head != kNil) return pool_[ready_.head].deadline;
  if (live_ == 0) return sim::kNever;
  const std::uint64_t next_slot = (current_tick_ + 1) & kSlotMask;
  if (lists_[next_slot].head != kNil) {
    // Every timer due before the next tick ends is here (see pop_due).
    ensure_sorted(next_slot);
    return pool_[lists_[next_slot].head].deadline;
  }
  // Every timer above level 0 expires after tick `after`. The next cascade
  // boundary may hold timers expiring right on it, unless it is the tick
  // after the hand, whose boundary timers pull_boundary() already moved.
  std::uint64_t after = next_busy_tick(1);
  if (after != UINT64_MAX && after != current_tick_ + 1) --after;
  const std::uint64_t d = busy_distance(0, current_tick_ & kSlotMask);
  if (d != 0 && current_tick_ + d <= after) {
    // The earliest level-0 slot holds every timer that expires by its tick.
    const std::uint64_t slot = (current_tick_ + d) & kSlotMask;
    ensure_sorted(slot);
    return pool_[lists_[slot].head].deadline;
  }
  TW_ASSERT(after != UINT64_MAX);  // live_ > 0 and level 0 empty
  return origin_us_ + static_cast<std::int64_t>(after << kTickShift);
}

TimerWheel::Fired TimerWheel::fire_head(List& list) {
  const std::uint32_t idx = list.head;
  Node& n = pool_[idx];
  Fired fired;
  fired.id = (static_cast<sim::EventId>(n.gen) << 32) |
             static_cast<sim::EventId>(idx + 1);
  fired.deadline = n.deadline;
  fired.fn = std::move(n.fn);
  unlink(idx);
  free_node(idx);
  --live_;
  ++stats_.fired;
  return fired;
}

std::optional<TimerWheel::Fired> TimerWheel::pop_due(std::int64_t now_us) {
  if (live_ == 0) {
    // Keep the hand tracking time even while idle so a later schedule's
    // relative placement starts from the present, not the distant past.
    if (now_us > origin_us_) {
      const std::uint64_t target =
          static_cast<std::uint64_t>(now_us - origin_us_) >> kTickShift;
      if (target > current_tick_) current_tick_ = target;
    }
    return std::nullopt;
  }
  if (now_us > origin_us_) {
    const std::uint64_t target =
        static_cast<std::uint64_t>(now_us - origin_us_) >> kTickShift;
    if (target > current_tick_) advance_to(target);
  }
  if (ready_.head != kNil) return fire_head(ready_);
  // Every other timer due by now expires on the next tick and sits in its
  // level-0 slot: serve that slot in fire order while its head is due.
  const std::uint64_t slot = (current_tick_ + 1) & kSlotMask;
  if (lists_[slot].head == kNil) return std::nullopt;
  ensure_sorted(slot);
  if (pool_[lists_[slot].head].deadline > now_us) return std::nullopt;
  return fire_head(lists_[slot]);
}

std::size_t TimerWheel::level_size(int level) const {
  TW_ASSERT(level >= 0 && level < kLevels);
  return level_count_[level];
}

}  // namespace tw::evl
