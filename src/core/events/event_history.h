// Event histories (§6.3): each ECA-manager keeps a local history of the
// occurrences it created — avoiding a central logging bottleneck — and
// committed transactions' events are merged into the global history after
// EOT: by the transaction's last task on its composition lane when it may
// still be composing there, else by the ending thread.
#pragma once

#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/events/event.h"

namespace reach {

/// Bounded per-event-type history (ring buffer).
class LocalHistory {
 public:
  explicit LocalHistory(size_t capacity = 4096) : capacity_(capacity) {}

  void Append(EventOccurrencePtr occ);

  std::vector<EventOccurrencePtr> Snapshot() const;

  /// Total occurrences ever appended (not bounded by capacity).
  uint64_t total() const;

  size_t size() const;

 private:
  size_t capacity_;
  mutable std::mutex mu_;
  std::deque<EventOccurrencePtr> ring_;
  uint64_t total_ = 0;
};

/// Global history of events whose transactions committed (plus temporal
/// events, which commit by definition), merged at EOT. Like the
/// local histories it is bounded per event type: each type keeps its newest
/// `capacity` occurrences in sequence order, so a hot type never evicts a
/// rare one and memory does not grow with the number of events processed.
class GlobalHistory {
 public:
  explicit GlobalHistory(size_t capacity = 4096) : capacity_(capacity) {}

  void Merge(std::vector<EventOccurrencePtr> events);

  /// Every retained occurrence, all types, in sequence order.
  std::vector<EventOccurrencePtr> Snapshot() const;
  std::vector<EventOccurrencePtr> OfType(EventTypeId type) const;

  /// Occurrences retained (at most `capacity` per type).
  size_t size() const;
  /// Occurrences ever merged (not bounded by capacity).
  uint64_t total() const;
  uint64_t merge_batches() const;

 private:
  size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<EventTypeId, std::deque<EventOccurrencePtr>> rings_;
  size_t size_ = 0;
  uint64_t total_ = 0;
  uint64_t merges_ = 0;
};

}  // namespace reach
