#include "core/events/event_history.h"

#include <algorithm>
#include <iterator>

namespace reach {

namespace {

bool BySequence(const EventOccurrencePtr& a, const EventOccurrencePtr& b) {
  return a->sequence < b->sequence;
}

}  // namespace

void LocalHistory::Append(EventOccurrencePtr occ) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(std::move(occ));
  if (ring_.size() > capacity_) ring_.pop_front();
  ++total_;
}

std::vector<EventOccurrencePtr> LocalHistory::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<EventOccurrencePtr>(ring_.begin(), ring_.end());
}

uint64_t LocalHistory::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

size_t LocalHistory::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

void GlobalHistory::Merge(std::vector<EventOccurrencePtr> events) {
  // One run per type, each in sequence order.
  std::sort(events.begin(), events.end(),
            [](const EventOccurrencePtr& a, const EventOccurrencePtr& b) {
              return a->type != b->type ? a->type < b->type
                                        : a->sequence < b->sequence;
            });
  const size_t merged = events.size();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto run = events.begin(); run != events.end();) {
    const EventTypeId type = (*run)->type;
    auto run_end = std::find_if(run, events.end(), [type](const auto& e) {
      return e->type != type;
    });
    // Concurrent transactions' merges interleave in sequence order: append
    // the run, then merge it with the tail of the ring it overlaps, so a
    // late batch costs one pass over that tail rather than one shift per
    // occurrence. The oldest beyond `capacity` are then dropped.
    std::deque<EventOccurrencePtr>& ring = rings_[type];
    const size_t before = ring.size();
    const auto from =
        std::upper_bound(ring.begin(), ring.end(), *run, BySequence) -
        ring.begin();
    ring.insert(ring.end(), std::make_move_iterator(run),
                std::make_move_iterator(run_end));
    std::inplace_merge(ring.begin() + from, ring.begin() + before, ring.end(),
                       BySequence);
    while (ring.size() > capacity_) ring.pop_front();
    size_ += ring.size() - before;
    run = run_end;
  }
  total_ += merged;
  ++merges_;
}

std::vector<EventOccurrencePtr> GlobalHistory::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<EventOccurrencePtr> out;
  out.reserve(size_);
  for (const auto& [type, ring] : rings_) {
    const auto mid = out.insert(out.end(), ring.begin(), ring.end());
    std::inplace_merge(out.begin(), mid, out.end(), BySequence);
  }
  return out;
}

std::vector<EventOccurrencePtr> GlobalHistory::OfType(EventTypeId type) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rings_.find(type);
  if (it == rings_.end()) return {};
  return std::vector<EventOccurrencePtr>(it->second.begin(), it->second.end());
}

size_t GlobalHistory::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

uint64_t GlobalHistory::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

uint64_t GlobalHistory::merge_batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return merges_;
}

}  // namespace reach
