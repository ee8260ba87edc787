// Discrete-event core: a virtual clock plus a time-ordered event heap.
// Deterministic: ties in time are broken by insertion sequence, so a given
// seed always produces an identical execution.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

namespace bespokv::sim {

using Task = std::function<void()>;

class EventQueue {
 public:
  uint64_t now_us() const { return now_; }

  // Schedules `fn` at absolute virtual time `at_us` (>= now). Returns an id
  // usable with cancel().
  uint64_t schedule_at(uint64_t at_us, Task fn);
  uint64_t schedule_after(uint64_t delay_us, Task fn) {
    return schedule_at(now_ + delay_us, std::move(fn));
  }

  // Drops a pending event. A no-op for an id that already fired or was
  // already cancelled.
  void cancel(uint64_t id) { pending_.erase(id); }

  // Runs events until the queue is empty or virtual time would pass
  // `until_us`. Returns the number of events executed.
  uint64_t run_until(uint64_t until_us);
  uint64_t run_all() { return run_until(UINT64_MAX); }

  bool empty() const { return pending_.empty(); }
  size_t pending() const { return pending_.size(); }

 private:
  struct Event {
    uint64_t at;
    uint64_t seq;     // total order among same-time events
    uint64_t id;
    Task fn;
    bool operator>(const Event& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  // Cancelled events stay in the heap and are skipped when popped: an event
  // runs only if its id is still in pending_.
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap_;
  std::unordered_set<uint64_t> pending_;
  uint64_t now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
};

}  // namespace bespokv::sim
