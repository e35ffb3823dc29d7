#include "sim/lane_queue.h"

namespace kd::sim {

LaneQueue::~LaneQueue() {
  // Destroy the captures of still-pending events: a fired event's are
  // gone already, and the heap holds exactly the pending ones.
  for (const HeapEntry& entry : heap_) DestroyClosure(SlotAt(entry.slot));
}

void LaneQueue::Arm(std::uint32_t index, Time t, std::uint64_t seq) {
  assert(SlotAt(index).invoke != nullptr);
  assert(t >= now_);
  heap_.push_back({t, seq, index});
  SiftUp(heap_.size() - 1);
}

// The heap is 4-ary: each sift level is a dependent cache access, so
// halving the depth (log4 vs log2) roughly halves the dependency chain
// while the four children sit in at most two cache lines. Pop ORDER is
// unaffected by arity or sift strategy — Before() is a strict total
// order (seq breaks all ties), so entries leave in exactly sorted
// (time, seq) order for any valid heap shape.
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

bool LaneQueue::PopDue(Time limit, Fired& out) {
  if (heap_.empty() || heap_.front().time > limit) return false;
  const HeapEntry top = heap_.front();
  PopTop();
  now_ = top.time;
  // The slot is not on the free list until the caller frees it, so
  // nothing the closure schedules can recycle it mid-invocation, and
  // chunked storage keeps its address stable while the arena grows.
  out.slot = top.slot;
  out.seq = top.seq;
  return true;
}

}  // namespace kd::sim
