#include "sim/calendar_queue.hpp"

#include <cassert>

namespace itb {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

void CalendarQueue::remove_min() {
  if (min_in_far_) {
    if (near_size_ == 0) {
      // Re-anchor the empty ring at the popped event: every later push is
      // at or after it.  Never backwards: an earlier scan may already have
      // moved base_ past this far event's bucket.
      const std::uint64_t idx =
          static_cast<std::uint64_t>(far_.front().at) >> kWidthBits;
      if (idx > base_) base_ = idx;
    }
    far_pop();
  } else {
    Bucket& bkt = near_[base_ & (kBuckets - 1)];
    bkt[min_idx_] = bkt.back();  // order within a bucket is irrelevant
    bkt.pop_back();
    --near_size_;
  }
  --size_;
}

Event CalendarQueue::pop() {
  assert(size_ > 0);
  const Event e = *find_min();
  remove_min();
  return e;
}

bool CalendarQueue::pop_if_at_most(TimePs deadline, Event& out) {
  if (size_ == 0) return false;
  const Event* m = find_min();
  if (m->at > deadline) return false;
  out = *m;
  remove_min();
  return true;
}

void CalendarQueue::far_push(const Event& e) {
  far_.push_back(e);
  std::size_t i = far_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!event_before(far_[i], far_[parent])) break;
    std::swap(far_[i], far_[parent]);
    i = parent;
  }
}

void CalendarQueue::far_pop() {
  far_.front() = far_.back();
  far_.pop_back();
  const std::size_t n = far_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = i * kArity + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child =
        (first_child + kArity < n) ? first_child + kArity : n;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (event_before(far_[c], far_[best])) best = c;
    }
    if (!event_before(far_[best], far_[i])) break;
    std::swap(far_[i], far_[best]);
    i = best;
  }
}

}  // namespace itb
