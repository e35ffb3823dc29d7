#include "sim/lane_queue.h"

namespace kd::sim {

LaneQueue::~LaneQueue() {
  // Destroy captures of still-pending events. Cancelled slots already
  // dropped theirs (destroy == nullptr after DestroyClosure).
  for (std::size_t i = 0; i < slot_count_; ++i) {
    Slot& slot = SlotAt(static_cast<std::uint32_t>(i));
    if (slot.destroy != nullptr) slot.destroy(slot.closure);
  }
}

void LaneQueue::AppendToWheel(Time t, std::uint64_t seq,
                              std::uint32_t slot) {
  const std::size_t b = static_cast<std::size_t>(t) & kWheelMask;
  wheel_[b].entries.push_back({seq, slot});
  SetBit(b);
}

void LaneQueue::Arm(std::uint32_t index, Time t, std::uint64_t seq) {
  assert(SlotAt(index).armed);
  assert(t >= now_);
  if (t - now_ < static_cast<Time>(kWheelSize)) {
    AppendToWheel(t, seq, index);
  } else {
    heap_.push_back({t, seq, index});
    SiftUp(heap_.size() - 1);
  }
  ++live_events_;
}

// The overflow heap is 4-ary: each sift level is a dependent cache
// access, so halving the depth (log4 vs log2) roughly halves the
// dependency chain while the four children sit in at most two cache
// lines. Pop ORDER is unaffected by arity or sift strategy — Before()
// is a strict total order (seq breaks all ties), so overflow entries
// migrate into the wheel in exactly sorted (time, seq) order for any
// valid heap shape.
void LaneQueue::SiftUp(std::size_t i) {
  const HeapEntry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!Before(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void LaneQueue::PopTop() {
  const std::size_t n = heap_.size() - 1;  // entries excluding the back
  if (n == 0) {
    heap_.pop_back();
    return;
  }
  // Bottom-up extraction: sift the hole at the root down the min-child
  // path all the way to a leaf (a fixed, well-predicted descent — no
  // per-level "does the replacement belong here?" compare), then drop
  // the displaced back entry into the hole and bubble it up. The back
  // entry is almost always a recent, i.e. late, event, so the final
  // SiftUp is expected O(1).
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (Before(heap_[c], heap_[best])) best = c;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = heap_[n];
  heap_.pop_back();
  SiftUp(hole);
}

std::size_t LaneQueue::NextOccupiedDistance() const {
  const std::size_t cb = static_cast<std::size_t>(now_) & kWheelMask;
  const std::size_t pos = (cb + 1) & kWheelMask;
  std::size_t word = pos >> 6;
  std::uint64_t w = occupied_[word] & (~std::uint64_t{0} << (pos & 63));
  // One extra word pass covers the wrap back into the starting word.
  for (std::size_t scanned = 0; scanned <= kWheelWords; ++scanned) {
    while (w != 0) {
      const std::size_t b =
          (word << 6) +
          static_cast<std::size_t>(__builtin_ctzll(w));
      const std::size_t dist = (b - cb) & kWheelMask;
      // dist == 0 is the current bucket's own (consumed) bit showing
      // up at the end of the full circle — not a future event.
      if (dist != 0) return dist;
      w &= w - 1;
    }
    word = (word + 1) & (kWheelWords - 1);
    w = occupied_[word];
  }
  return 0;
}

Time LaneQueue::PeekNextTime() {
  // Skim dead (cancelled) entries at the current bucket's head; a live
  // one means the next event is due right now.
  Bucket& cur = wheel_[static_cast<std::size_t>(now_) & kWheelMask];
  while (cur.head < cur.entries.size()) {
    const BucketEntry e = cur.entries[cur.head];
    if (SlotAt(e.slot).armed) return now_;
    ++cur.head;
    ReleaseSlot(e.slot);
  }
  // Skim dead overflow tops so heap_.front() is a live event.
  while (!heap_.empty() && !SlotAt(heap_.front().slot).armed) {
    const std::uint32_t index = heap_.front().slot;
    PopTop();
    ReleaseSlot(index);
  }
  Time next = kNoEvent;
  const std::size_t dist = NextOccupiedDistance();
  if (dist != 0) next = now_ + static_cast<Time>(dist);
  if (!heap_.empty() &&
      (next == kNoEvent || heap_.front().time < next)) {
    next = heap_.front().time;
  }
  return next;
}

void LaneQueue::AdvanceTo(Time t) {
  assert(t > now_);
  // Retire the bucket the clock is leaving. Every bucket strictly
  // between now_ and t is empty (PeekNextTime picked the minimum), so
  // this is the only one to reset.
  Bucket& cur = wheel_[static_cast<std::size_t>(now_) & kWheelMask];
  assert(cur.head == cur.entries.size());
  cur.entries.clear();
  cur.head = 0;
  ClearBit(static_cast<std::size_t>(now_) & kWheelMask);
  now_ = t;
  // Migrate overflow events whose time just entered the horizon. The
  // heap pops in (time, seq) order and any future in-horizon schedule
  // for those ticks gets a larger seq, so each bucket stays appended
  // in seq order — the global fire order remains sorted (time, seq).
  while (!heap_.empty() &&
         heap_.front().time - now_ < static_cast<Time>(kWheelSize)) {
    const HeapEntry e = heap_.front();
    PopTop();
    if (!SlotAt(e.slot).armed) {
      ReleaseSlot(e.slot);
      continue;
    }
    AppendToWheel(e.time, e.seq, e.slot);
  }
}

bool LaneQueue::PopDue(Time limit, Fired& out) {
  for (;;) {
    const Time next = PeekNextTime();
    // next can name a bucket holding only cancelled entries (the
    // occupancy bitmap cannot see armedness), so the limit check must
    // gate every lap, not just the first: draining such a bucket loops
    // back here, and the following live event may lie beyond `limit`.
    if (next == kNoEvent || next > limit) return false;
    if (next != now_) AdvanceTo(next);
    Bucket& bucket = wheel_[static_cast<std::size_t>(now_) & kWheelMask];
    while (bucket.head < bucket.entries.size()) {
      const BucketEntry e = bucket.entries[bucket.head];
      ++bucket.head;
      Slot& slot = SlotAt(e.slot);
      if (!slot.armed) {  // cancelled after the peek, or a dead entry
        ReleaseSlot(e.slot);
        continue;
      }
      // Disarm and bump the generation here, before the caller
      // invokes, so a Cancel(id) or stale-id probe from inside the
      // closure sees "already fired". The slot is not on the free list
      // yet, so nothing the closure schedules can recycle it
      // mid-invocation, and chunked storage keeps its address stable
      // while the arena grows.
      out.slot = e.slot;
      out.seq = e.seq;
      out.generation = slot.generation;
      slot.armed = false;
      ++slot.generation;
      assert(live_events_ > 0);
      --live_events_;
      return true;
    }
    // The bucket the peek steered us into held only dead entries (all
    // cancelled between peek and here, or a fully-cancelled far
    // bucket); look again.
  }
}

}  // namespace kd::sim
