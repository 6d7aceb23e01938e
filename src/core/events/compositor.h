// Compositor: one small detection automaton per composite event type
// (§6.3 — many small compositors instead of a monolithic event graph).
//
// The runtime is a tree of operator nodes mirroring the event expression.
// Leaf occurrences are fed in arrival order; each node buffers partial
// compositions and combines them according to the event type's consumption
// policy (§3.4). Life-span handling (§3.3):
//   * single-transaction scope — one automaton instance per transaction;
//     the whole instance is discarded at EOT (trivial garbage collection);
//   * cross-transaction scope — one global instance whose buffered
//     partials expire after the validity interval.
//
// Single-txn instances are independent by construction (§3.3), so the
// instance map is striped: `txn % kStripes` picks a cache-line-padded
// stripe with its own mutex, letting distinct transactions feed the same
// composite type in parallel. Cross-txn scope keeps its one global
// instance behind a single stripe's lock — its buffered state is shared
// and genuinely serial.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/events/event.h"
#include "core/events/event_registry.h"

namespace reach {

struct CompositorStats {
  uint64_t fed = 0;             // leaf occurrences consumed
  uint64_t completions = 0;     // composite occurrences raised
  uint64_t expired_partials = 0;
  uint64_t discarded_at_eot = 0;
};

class Compositor {
 public:
  explicit Compositor(const EventDescriptor* desc);
  ~Compositor();

  const EventDescriptor* descriptor() const { return desc_; }

  /// Feed a leaf occurrence. Completed composite occurrences (type =
  /// descriptor id) are appended to `out`. Thread-safe.
  void Feed(const EventOccurrencePtr& occ,
            std::vector<EventOccurrencePtr>* out);

  /// Single-txn scope: drop the automaton instance of `txn` (EOT GC).
  void OnTxnEnd(TxnId txn);

  /// Cross-txn scope: drop partials whose composition started before
  /// `cutoff` (validity-interval GC). No-op for single-txn scope.
  void ExpireOlderThan(Timestamp cutoff);

  /// Partially composed events currently buffered.
  size_t LivePartialCount() const;

  CompositorStats stats() const;

  // -- Durable event history (docs/EVENTS.md "Durability & recovery") ------

  /// Serialize the cross-txn instance's buffered partial state (feed floor
  /// + node-tree buffers). Empty for single-txn scope or before the first
  /// feed. The registry supplies type names so occurrences survive id
  /// reassignment across restarts.
  std::string SnapshotState(const EventRegistry* registry) const;

  /// Rebuild the cross-txn instance from SnapshotState output. The state
  /// must have been produced by a compositor with the same event
  /// expression; a shape mismatch is a Corruption error.
  Status RestoreState(const std::string& state, const EventRegistry* registry);

  /// Highest occurrence sequence ever fed to the cross-txn instance — the
  /// replay floor: logged occurrences at or below it are already reflected
  /// in SnapshotState.
  uint64_t last_fed_seq() const {
    return last_fed_seq_.load(std::memory_order_relaxed);
  }

  /// Observer invoked (under the instance stripe lock) after an explicit
  /// ExpireOlderThan drops partials; the EventManager logs expiry
  /// tombstones through it. Lazy feed-time GC is excluded: it re-derives
  /// deterministically from replayed timestamps. Set before the compositor
  /// is published to concurrent feeders.
  void set_gc_listener(std::function<void(Timestamp, uint64_t)> listener) {
    gc_listener_ = std::move(listener);
  }

  /// Instance-map stripes for single-txn scope (kCrossTxn uses exactly one).
  static constexpr size_t kStripes = 8;

 private:
  class Node;
  class PrimitiveNode;
  class SequenceNode;
  class ConjunctionNode;
  class DisjunctionNode;
  class NegationNode;
  class ClosureNode;
  class HistoryNode;

  // kSingleTxn: per-transaction instance trees, keyed txn % kStripes.
  // kCrossTxn: the single global instance lives in StripeFor(kNoTxn).
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::unordered_map<TxnId, std::unique_ptr<Node>> instances;
  };

  Stripe& StripeFor(TxnId key) const {
    return stripes_[static_cast<size_t>(key) % kStripes];
  }

  /// try_lock-then-block acquisition recording contended waits into the
  /// events.compositor.lock_wait_ns histogram (the buffer-pool shard idiom).
  static std::unique_lock<std::mutex> LockStripe(const Stripe& stripe);

  std::unique_ptr<Node> BuildTree(const EventExprPtr& expr) const;

  /// Find-or-create the instance for `key` (stripe lock held by caller).
  Node* InstanceFor(Stripe& stripe, TxnId key);

  /// The per-occurrence feed body: lazy validity GC, feed-floor update,
  /// node-tree feed, completion materialization. Stripe lock held.
  void FeedLocked(Node* root, TxnId key, const EventOccurrencePtr& occ,
                  std::vector<EventOccurrencePtr>* out);

  /// Root completions become composite event occurrences.
  EventOccurrencePtr MakeOccurrence(std::vector<EventOccurrencePtr> parts,
                                    Timestamp ts, uint64_t seq,
                                    TxnId txn) const;

  const EventDescriptor* desc_;
  mutable Stripe stripes_[kStripes];
  // Per-instance stats, lock-free so stats() never contends with Feed();
  // process-wide aggregates are mirrored into the obs::MetricsRegistry.
  std::atomic<uint64_t> fed_{0};
  std::atomic<uint64_t> completions_{0};
  std::atomic<uint64_t> expired_partials_{0};
  std::atomic<uint64_t> discarded_at_eot_{0};
  /// Written under the cross-txn stripe lock; read lock-free by
  /// last_fed_seq().
  std::atomic<uint64_t> last_fed_seq_{0};
  std::function<void(Timestamp, uint64_t)> gc_listener_;
};

}  // namespace reach
