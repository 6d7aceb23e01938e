#include "core/events/event_history.h"

#include <algorithm>

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
  std::sort(events.begin(), events.end(), BySequence);
  std::lock_guard<std::mutex> lock(mu_);
  // Asynchronous merges can arrive out of order; upper_bound keeps each ring
  // in event order, and since batches mostly arrive in order it almost
  // always lands at the end.
  for (EventOccurrencePtr& occ : events) {
    std::deque<EventOccurrencePtr>& ring = rings_[occ->type];
    ring.insert(std::upper_bound(ring.begin(), ring.end(), occ, BySequence),
                std::move(occ));
    if (ring.size() > capacity_) {
      ring.pop_front();
    } else {
      ++size_;
    }
  }
  total_ += events.size();
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
