#include "src/sim/event_queue.h"

#include <algorithm>

namespace bespokv::sim {

uint64_t EventQueue::schedule_at(uint64_t at_us, Task fn) {
  const uint64_t id = next_id_++;
  heap_.push(Event{std::max(at_us, now_), next_seq_++, id, std::move(fn)});
  pending_.insert(id);
  return id;
}

uint64_t EventQueue::run_until(uint64_t until_us) {
  uint64_t executed = 0;
  while (!heap_.empty()) {
    const Event& top = heap_.top();
    if (top.at > until_us) break;
    Event ev = std::move(const_cast<Event&>(top));
    heap_.pop();
    if (pending_.erase(ev.id) == 0) continue;  // cancelled
    now_ = ev.at;
    ev.fn();
    ++executed;
  }
  // The virtual clock advances to the boundary even when future events
  // remain pending past it (callers interleave run_until with injections).
  if (until_us != UINT64_MAX) now_ = std::max(now_, until_us);
  return executed;
}

}  // namespace bespokv::sim
