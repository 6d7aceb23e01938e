#include "core/events/compositor.h"

#include <algorithm>
#include <cstring>

#include "core/events/event_durability.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace reach {

namespace {

/// Process-wide aggregates over all Compositor instances; the per-instance
/// counts in CompositorStats remain exact for tests and diagnostics.
struct CompositorMetrics {
  obs::Counter* fed;
  obs::Counter* completions;
  obs::Counter* expired_partials;
  obs::Counter* discarded_at_eot;
  obs::Histogram* lock_wait_ns;

  static const CompositorMetrics& Get() {
    static const CompositorMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
      return CompositorMetrics{reg.counter(obs::kCompositorFed),
                               reg.counter(obs::kCompositorCompletions),
                               reg.counter(obs::kCompositorExpired),
                               reg.counter(obs::kCompositorDiscardedEot),
                               reg.histogram(obs::kCompositorLockWaitNs)};
    }();
    return m;
  }
};

/// A (partially or fully) completed sub-composition travelling up the node
/// tree.
struct Partial {
  Timestamp first_ts = 0;  // start of composition (validity anchor)
  Timestamp last_ts = 0;
  uint64_t first_seq = 0;
  uint64_t last_seq = 0;
  Oid source;  // receiver of the first constituent (correlation key)
  std::vector<EventOccurrencePtr> parts;  // leaf occurrences, arrival order

  static Partial FromOccurrence(const EventOccurrencePtr& occ) {
    Partial p;
    p.first_ts = p.last_ts = occ->timestamp;
    p.first_seq = p.last_seq = occ->sequence;
    p.source = occ->source;
    p.parts = {occ};
    return p;
  }

  static Partial Merge(const Partial& a, const Partial& b) {
    Partial p;
    p.first_ts = std::min(a.first_ts, b.first_ts);
    p.last_ts = std::max(a.last_ts, b.last_ts);
    p.first_seq = std::min(a.first_seq, b.first_seq);
    p.last_seq = std::max(a.last_seq, b.last_seq);
    p.source = a.source.valid() ? a.source : b.source;
    p.parts.reserve(a.parts.size() + b.parts.size());
    p.parts = a.parts;
    p.parts.insert(p.parts.end(), b.parts.begin(), b.parts.end());
    return p;
  }
};

/// Does the operator's correlation constraint allow `a` and `b` to
/// combine?
bool CorrelationOk(Correlation correlation, const Partial& a,
                   const Partial& b) {
  if (correlation == Correlation::kNone) return true;
  return a.source.valid() && a.source == b.source;
}

void ExpireBuffer(std::vector<Partial>* buf, Timestamp cutoff,
                  uint64_t* dropped) {
  size_t before = buf->size();
  buf->erase(std::remove_if(buf->begin(), buf->end(),
                            [cutoff](const Partial& p) {
                              return p.first_ts < cutoff;
                            }),
             buf->end());
  *dropped += before - buf->size();
}

// -- Partial-state serialization (SnapshotState / RestoreState) ------------

/// Per-node-class tags validate that a restored state matches the event
/// expression's tree shape.
enum : uint8_t {
  kTagPrimitive = 1,
  kTagSequence = 2,
  kTagConjunction = 3,
  kTagDisjunction = 4,
  kTagNegation = 5,
  kTagClosure = 6,
  kTagHistory = 7,
};

constexpr uint8_t kStateVersion = 1;

template <typename T>
void PutScalar(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool GetScalar(const std::string& data, size_t* pos, T* v) {
  if (*pos + sizeof(T) > data.size()) return false;
  std::memcpy(v, data.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

void EncodeBuffer(const std::vector<Partial>& buf, const EventRegistry* reg,
                  std::string* out) {
  PutScalar<uint32_t>(out, static_cast<uint32_t>(buf.size()));
  for (const Partial& p : buf) {
    PutScalar<int64_t>(out, p.first_ts);
    PutScalar<int64_t>(out, p.last_ts);
    PutScalar<uint64_t>(out, p.first_seq);
    PutScalar<uint64_t>(out, p.last_seq);
    PutScalar<uint32_t>(out, p.source.page);
    PutScalar<uint16_t>(out, p.source.slot);
    PutScalar<uint16_t>(out, p.source.generation);
    PutScalar<uint32_t>(out, static_cast<uint32_t>(p.parts.size()));
    for (const EventOccurrencePtr& occ : p.parts) {
      eventlog::EncodeOccurrence(*occ, reg, out);
    }
  }
}

bool DecodeBuffer(const std::string& data, size_t* pos,
                  const EventRegistry* reg, std::vector<Partial>* buf) {
  uint32_t n = 0;
  if (!GetScalar(data, pos, &n)) return false;
  for (uint32_t i = 0; i < n; ++i) {
    Partial p;
    if (!GetScalar(data, pos, &p.first_ts)) return false;
    if (!GetScalar(data, pos, &p.last_ts)) return false;
    if (!GetScalar(data, pos, &p.first_seq)) return false;
    if (!GetScalar(data, pos, &p.last_seq)) return false;
    if (!GetScalar(data, pos, &p.source.page)) return false;
    if (!GetScalar(data, pos, &p.source.slot)) return false;
    if (!GetScalar(data, pos, &p.source.generation)) return false;
    uint32_t nparts = 0;
    if (!GetScalar(data, pos, &nparts)) return false;
    for (uint32_t k = 0; k < nparts; ++k) {
      auto occ = eventlog::DecodeOccurrence(data, pos, reg);
      if (!occ.ok()) return false;
      p.parts.push_back(std::move(*occ));
    }
    buf->push_back(std::move(p));
  }
  return true;
}

bool ReadTag(const std::string& data, size_t* pos, uint8_t expected) {
  uint8_t tag = 0;
  return GetScalar(data, pos, &tag) && tag == expected;
}

}  // namespace

// ---------------------------------------------------------------------------
// Node hierarchy
// ---------------------------------------------------------------------------

class Compositor::Node {
 public:
  explicit Node(ConsumptionPolicy policy,
                Correlation correlation = Correlation::kNone)
      : policy_(policy), correlation_(correlation) {}
  virtual ~Node() = default;

  /// Feed a leaf occurrence; append this node's completions to `out`.
  virtual void Feed(const EventOccurrencePtr& occ,
                    std::vector<Partial>* out) = 0;

  /// Drop partials whose composition started before `cutoff`.
  virtual void Expire(Timestamp cutoff, uint64_t* dropped) = 0;

  virtual size_t PartialCount() const = 0;

  /// Serialize this node's buffered partials (pre-order over the tree).
  virtual void SnapshotNode(const EventRegistry* reg,
                            std::string* out) const = 0;

  /// Mirror of SnapshotNode; false on any shape or framing mismatch.
  virtual bool RestoreNode(const std::string& data, size_t* pos,
                           const EventRegistry* reg) = 0;

 protected:
  ConsumptionPolicy policy_;
  Correlation correlation_;
};

class Compositor::PrimitiveNode : public Node {
 public:
  PrimitiveNode(ConsumptionPolicy policy, EventTypeId type)
      : Node(policy), type_(type) {}

  void Feed(const EventOccurrencePtr& occ,
            std::vector<Partial>* out) override {
    if (occ->type == type_) out->push_back(Partial::FromOccurrence(occ));
  }
  void Expire(Timestamp, uint64_t*) override {}
  size_t PartialCount() const override { return 0; }

  void SnapshotNode(const EventRegistry*, std::string* out) const override {
    PutScalar<uint8_t>(out, kTagPrimitive);
  }
  bool RestoreNode(const std::string& data, size_t* pos,
                   const EventRegistry*) override {
    return ReadTag(data, pos, kTagPrimitive);
  }

 private:
  EventTypeId type_;
};

// Sequence(left, right): left completes strictly before right completes.
class Compositor::SequenceNode : public Node {
 public:
  SequenceNode(ConsumptionPolicy policy, Correlation correlation,
               std::unique_ptr<Node> left, std::unique_ptr<Node> right)
      : Node(policy, correlation),
        left_(std::move(left)),
        right_(std::move(right)) {}

  void Feed(const EventOccurrencePtr& occ,
            std::vector<Partial>* out) override {
    std::vector<Partial> lc, rc;
    left_->Feed(occ, &lc);
    right_->Feed(occ, &rc);
    for (Partial& r : rc) CombineRight(r, out);
    for (Partial& l : lc) StoreLeft(std::move(l));
  }

  void Expire(Timestamp cutoff, uint64_t* dropped) override {
    ExpireBuffer(&lefts_, cutoff, dropped);
    left_->Expire(cutoff, dropped);
    right_->Expire(cutoff, dropped);
  }

  size_t PartialCount() const override {
    return lefts_.size() + left_->PartialCount() + right_->PartialCount();
  }

  void SnapshotNode(const EventRegistry* reg, std::string* out) const override {
    PutScalar<uint8_t>(out, kTagSequence);
    EncodeBuffer(lefts_, reg, out);
    left_->SnapshotNode(reg, out);
    right_->SnapshotNode(reg, out);
  }
  bool RestoreNode(const std::string& data, size_t* pos,
                   const EventRegistry* reg) override {
    return ReadTag(data, pos, kTagSequence) &&
           DecodeBuffer(data, pos, reg, &lefts_) &&
           left_->RestoreNode(data, pos, reg) &&
           right_->RestoreNode(data, pos, reg);
  }

 private:
  void StoreLeft(Partial l) {
    if (policy_ == ConsumptionPolicy::kRecent) {
      // Only the most recent initiator is kept (§3.4, sensor monitoring) —
      // per correlation group when a constraint is set.
      lefts_.erase(std::remove_if(lefts_.begin(), lefts_.end(),
                                  [&](const Partial& p) {
                                    return CorrelationOk(correlation_, p, l);
                                  }),
                   lefts_.end());
    }
    lefts_.push_back(std::move(l));
  }

  void CombineRight(const Partial& r, std::vector<Partial>* out) {
    // Eligible initiators completed strictly before the terminator.
    std::vector<size_t> eligible;
    for (size_t i = 0; i < lefts_.size(); ++i) {
      if (lefts_[i].last_seq < r.last_seq &&
          CorrelationOk(correlation_, lefts_[i], r)) {
        eligible.push_back(i);
      }
    }
    if (eligible.empty()) return;
    switch (policy_) {
      case ConsumptionPolicy::kRecent: {
        // Newest initiator, retained for later terminators.
        size_t best = eligible[0];
        for (size_t i : eligible) {
          if (lefts_[i].last_seq > lefts_[best].last_seq) best = i;
        }
        out->push_back(Partial::Merge(lefts_[best], r));
        break;
      }
      case ConsumptionPolicy::kChronicle: {
        // Oldest initiator, consumed.
        size_t best = eligible[0];
        for (size_t i : eligible) {
          if (lefts_[i].last_seq < lefts_[best].last_seq) best = i;
        }
        out->push_back(Partial::Merge(lefts_[best], r));
        lefts_.erase(lefts_.begin() + static_cast<long>(best));
        break;
      }
      case ConsumptionPolicy::kContinuous: {
        // Every open initiator pairs with the terminator; all consumed.
        for (size_t i : eligible) {
          out->push_back(Partial::Merge(lefts_[i], r));
        }
        for (auto it = eligible.rbegin(); it != eligible.rend(); ++it) {
          lefts_.erase(lefts_.begin() + static_cast<long>(*it));
        }
        break;
      }
      case ConsumptionPolicy::kCumulative: {
        // All initiators merged into one composite; all consumed.
        Partial acc = lefts_[eligible[0]];
        for (size_t k = 1; k < eligible.size(); ++k) {
          acc = Partial::Merge(acc, lefts_[eligible[k]]);
        }
        out->push_back(Partial::Merge(acc, r));
        for (auto it = eligible.rbegin(); it != eligible.rend(); ++it) {
          lefts_.erase(lefts_.begin() + static_cast<long>(*it));
        }
        break;
      }
    }
  }

  std::unique_ptr<Node> left_, right_;
  std::vector<Partial> lefts_;
};

// Conjunction(a, b): both sides, any order.
class Compositor::ConjunctionNode : public Node {
 public:
  ConjunctionNode(ConsumptionPolicy policy, Correlation correlation,
                  std::unique_ptr<Node> a, std::unique_ptr<Node> b)
      : Node(policy, correlation), a_(std::move(a)), b_(std::move(b)) {}

  void Feed(const EventOccurrencePtr& occ,
            std::vector<Partial>* out) override {
    std::vector<Partial> ac, bc;
    a_->Feed(occ, &ac);
    b_->Feed(occ, &bc);
    // Completions from this very occurrence may pair with buffered partials
    // of the other side but not with each other's source occurrence twice;
    // handle arrivals one side at a time.
    for (Partial& x : ac) Arrive(std::move(x), &buf_a_, &buf_b_, out);
    for (Partial& x : bc) Arrive(std::move(x), &buf_b_, &buf_a_, out);
  }

  void Expire(Timestamp cutoff, uint64_t* dropped) override {
    ExpireBuffer(&buf_a_, cutoff, dropped);
    ExpireBuffer(&buf_b_, cutoff, dropped);
    a_->Expire(cutoff, dropped);
    b_->Expire(cutoff, dropped);
  }

  size_t PartialCount() const override {
    return buf_a_.size() + buf_b_.size() + a_->PartialCount() +
           b_->PartialCount();
  }

  void SnapshotNode(const EventRegistry* reg, std::string* out) const override {
    PutScalar<uint8_t>(out, kTagConjunction);
    EncodeBuffer(buf_a_, reg, out);
    EncodeBuffer(buf_b_, reg, out);
    a_->SnapshotNode(reg, out);
    b_->SnapshotNode(reg, out);
  }
  bool RestoreNode(const std::string& data, size_t* pos,
                   const EventRegistry* reg) override {
    return ReadTag(data, pos, kTagConjunction) &&
           DecodeBuffer(data, pos, reg, &buf_a_) &&
           DecodeBuffer(data, pos, reg, &buf_b_) &&
           a_->RestoreNode(data, pos, reg) && b_->RestoreNode(data, pos, reg);
  }

 private:
  void StoreMine(Partial x, std::vector<Partial>* mine) {
    if (policy_ == ConsumptionPolicy::kRecent) {
      mine->erase(std::remove_if(mine->begin(), mine->end(),
                                 [&](const Partial& p) {
                                   return CorrelationOk(correlation_, p, x);
                                 }),
                  mine->end());
    }
    mine->push_back(std::move(x));
  }

  void Arrive(Partial x, std::vector<Partial>* mine,
              std::vector<Partial>* other, std::vector<Partial>* out) {
    std::vector<size_t> eligible;
    for (size_t i = 0; i < other->size(); ++i) {
      if (CorrelationOk(correlation_, (*other)[i], x)) eligible.push_back(i);
    }
    if (eligible.empty()) {
      StoreMine(std::move(x), mine);
      return;
    }
    switch (policy_) {
      case ConsumptionPolicy::kRecent: {
        // Pair with the newest eligible of the other side; both retained.
        size_t best = eligible[0];
        for (size_t i : eligible) {
          if ((*other)[i].last_seq > (*other)[best].last_seq) best = i;
        }
        out->push_back(Partial::Merge((*other)[best], x));
        StoreMine(std::move(x), mine);
        break;
      }
      case ConsumptionPolicy::kChronicle: {
        size_t best = eligible[0];
        for (size_t i : eligible) {
          if ((*other)[i].last_seq < (*other)[best].last_seq) best = i;
        }
        out->push_back(Partial::Merge((*other)[best], x));
        other->erase(other->begin() + static_cast<long>(best));
        break;
      }
      case ConsumptionPolicy::kContinuous: {
        for (size_t i : eligible) {
          out->push_back(Partial::Merge((*other)[i], x));
        }
        for (auto it = eligible.rbegin(); it != eligible.rend(); ++it) {
          other->erase(other->begin() + static_cast<long>(*it));
        }
        break;
      }
      case ConsumptionPolicy::kCumulative: {
        Partial acc = (*other)[eligible[0]];
        for (size_t k = 1; k < eligible.size(); ++k) {
          acc = Partial::Merge(acc, (*other)[eligible[k]]);
        }
        out->push_back(Partial::Merge(acc, x));
        for (auto it = eligible.rbegin(); it != eligible.rend(); ++it) {
          other->erase(other->begin() + static_cast<long>(*it));
        }
        break;
      }
    }
  }

  std::unique_ptr<Node> a_, b_;
  std::vector<Partial> buf_a_, buf_b_;
};

class Compositor::DisjunctionNode : public Node {
 public:
  DisjunctionNode(ConsumptionPolicy policy, std::unique_ptr<Node> a,
                  std::unique_ptr<Node> b)
      : Node(policy), a_(std::move(a)), b_(std::move(b)) {}

  void Feed(const EventOccurrencePtr& occ,
            std::vector<Partial>* out) override {
    a_->Feed(occ, out);
    b_->Feed(occ, out);
  }
  void Expire(Timestamp cutoff, uint64_t* dropped) override {
    a_->Expire(cutoff, dropped);
    b_->Expire(cutoff, dropped);
  }
  size_t PartialCount() const override {
    return a_->PartialCount() + b_->PartialCount();
  }

  void SnapshotNode(const EventRegistry* reg, std::string* out) const override {
    PutScalar<uint8_t>(out, kTagDisjunction);
    a_->SnapshotNode(reg, out);
    b_->SnapshotNode(reg, out);
  }
  bool RestoreNode(const std::string& data, size_t* pos,
                   const EventRegistry* reg) override {
    return ReadTag(data, pos, kTagDisjunction) &&
           a_->RestoreNode(data, pos, reg) && b_->RestoreNode(data, pos, reg);
  }

 private:
  std::unique_ptr<Node> a_, b_;
};

// Negation(start, neg, end): start; then end with no neg in between (SAMOS).
class Compositor::NegationNode : public Node {
 public:
  NegationNode(ConsumptionPolicy policy, Correlation correlation,
               std::unique_ptr<Node> start, std::unique_ptr<Node> neg,
               std::unique_ptr<Node> end)
      : Node(policy, correlation),
        start_(std::move(start)),
        neg_(std::move(neg)),
        end_(std::move(end)) {}

  void Feed(const EventOccurrencePtr& occ,
            std::vector<Partial>* out) override {
    std::vector<Partial> sc, nc, ec;
    start_->Feed(occ, &sc);
    neg_->Feed(occ, &nc);
    end_->Feed(occ, &ec);
    // An occurrence of the negated event invalidates every open interval
    // (only correlated ones when a constraint is set).
    for (const Partial& n : nc) {
      starts_.erase(std::remove_if(starts_.begin(), starts_.end(),
                                   [&](const Partial& p) {
                                     return CorrelationOk(correlation_, p, n);
                                   }),
                    starts_.end());
    }
    for (Partial& e : ec) CombineEnd(e, out);
    for (Partial& s : sc) {
      if (policy_ == ConsumptionPolicy::kRecent) starts_.clear();
      starts_.push_back(std::move(s));
    }
  }

  void Expire(Timestamp cutoff, uint64_t* dropped) override {
    ExpireBuffer(&starts_, cutoff, dropped);
    start_->Expire(cutoff, dropped);
    neg_->Expire(cutoff, dropped);
    end_->Expire(cutoff, dropped);
  }

  size_t PartialCount() const override {
    return starts_.size() + start_->PartialCount() + neg_->PartialCount() +
           end_->PartialCount();
  }

  void SnapshotNode(const EventRegistry* reg, std::string* out) const override {
    PutScalar<uint8_t>(out, kTagNegation);
    EncodeBuffer(starts_, reg, out);
    start_->SnapshotNode(reg, out);
    neg_->SnapshotNode(reg, out);
    end_->SnapshotNode(reg, out);
  }
  bool RestoreNode(const std::string& data, size_t* pos,
                   const EventRegistry* reg) override {
    return ReadTag(data, pos, kTagNegation) &&
           DecodeBuffer(data, pos, reg, &starts_) &&
           start_->RestoreNode(data, pos, reg) &&
           neg_->RestoreNode(data, pos, reg) &&
           end_->RestoreNode(data, pos, reg);
  }

 private:
  void CombineEnd(const Partial& e, std::vector<Partial>* out) {
    std::vector<size_t> eligible;
    for (size_t i = 0; i < starts_.size(); ++i) {
      if (starts_[i].last_seq < e.last_seq &&
          CorrelationOk(correlation_, starts_[i], e)) {
        eligible.push_back(i);
      }
    }
    if (eligible.empty()) return;
    switch (policy_) {
      case ConsumptionPolicy::kRecent: {
        size_t best = eligible[0];
        for (size_t i : eligible) {
          if (starts_[i].last_seq > starts_[best].last_seq) best = i;
        }
        out->push_back(Partial::Merge(starts_[best], e));
        break;
      }
      case ConsumptionPolicy::kChronicle: {
        size_t best = eligible[0];
        for (size_t i : eligible) {
          if (starts_[i].last_seq < starts_[best].last_seq) best = i;
        }
        out->push_back(Partial::Merge(starts_[best], e));
        starts_.erase(starts_.begin() + static_cast<long>(best));
        break;
      }
      case ConsumptionPolicy::kContinuous: {
        for (size_t i : eligible) {
          out->push_back(Partial::Merge(starts_[i], e));
        }
        for (auto it = eligible.rbegin(); it != eligible.rend(); ++it) {
          starts_.erase(starts_.begin() + static_cast<long>(*it));
        }
        break;
      }
      case ConsumptionPolicy::kCumulative: {
        Partial acc = starts_[eligible[0]];
        for (size_t k = 1; k < eligible.size(); ++k) {
          acc = Partial::Merge(acc, starts_[eligible[k]]);
        }
        out->push_back(Partial::Merge(acc, e));
        for (auto it = eligible.rbegin(); it != eligible.rend(); ++it) {
          starts_.erase(starts_.begin() + static_cast<long>(*it));
        }
        break;
      }
    }
  }

  std::unique_ptr<Node> start_, neg_, end_;
  std::vector<Partial> starts_;
};

// Closure(body, end): every body occurrence up to the terminator, raised
// once at the terminator (HiPAC closure / SNOOP cumulative flavour).
class Compositor::ClosureNode : public Node {
 public:
  ClosureNode(ConsumptionPolicy policy, std::unique_ptr<Node> body,
              std::unique_ptr<Node> end)
      : Node(policy), body_(std::move(body)), end_(std::move(end)) {}

  void Feed(const EventOccurrencePtr& occ,
            std::vector<Partial>* out) override {
    std::vector<Partial> bc, ec;
    body_->Feed(occ, &bc);
    end_->Feed(occ, &ec);
    for (Partial& e : ec) {
      Partial acc = e;
      // Bodies completed before the terminator are absorbed (possibly none).
      std::vector<Partial> kept;
      for (Partial& b : bodies_) {
        if (b.last_seq < e.last_seq) {
          acc = Partial::Merge(b, acc);
        } else {
          kept.push_back(std::move(b));
        }
      }
      bodies_ = std::move(kept);
      out->push_back(std::move(acc));
    }
    for (Partial& b : bc) bodies_.push_back(std::move(b));
  }

  void Expire(Timestamp cutoff, uint64_t* dropped) override {
    ExpireBuffer(&bodies_, cutoff, dropped);
    body_->Expire(cutoff, dropped);
    end_->Expire(cutoff, dropped);
  }

  size_t PartialCount() const override {
    return bodies_.size() + body_->PartialCount() + end_->PartialCount();
  }

  void SnapshotNode(const EventRegistry* reg, std::string* out) const override {
    PutScalar<uint8_t>(out, kTagClosure);
    EncodeBuffer(bodies_, reg, out);
    body_->SnapshotNode(reg, out);
    end_->SnapshotNode(reg, out);
  }
  bool RestoreNode(const std::string& data, size_t* pos,
                   const EventRegistry* reg) override {
    return ReadTag(data, pos, kTagClosure) &&
           DecodeBuffer(data, pos, reg, &bodies_) &&
           body_->RestoreNode(data, pos, reg) &&
           end_->RestoreNode(data, pos, reg);
  }

 private:
  std::unique_ptr<Node> body_, end_;
  std::vector<Partial> bodies_;
};

// History(body, n): raised on the n-th body completion (SAMOS TIMES).
class Compositor::HistoryNode : public Node {
 public:
  HistoryNode(ConsumptionPolicy policy, Correlation correlation,
              std::unique_ptr<Node> body, uint32_t n)
      : Node(policy, correlation), body_(std::move(body)), n_(n) {}

  void Feed(const EventOccurrencePtr& occ,
            std::vector<Partial>* out) override {
    std::vector<Partial> bc;
    body_->Feed(occ, &bc);
    for (Partial& b : bc) {
      acc_.push_back(std::move(b));
      // Count within the arrival's correlation group (everything when no
      // constraint is set).
      std::vector<size_t> group;
      for (size_t i = 0; i < acc_.size(); ++i) {
        if (CorrelationOk(correlation_, acc_[i], acc_.back())) {
          group.push_back(i);
        }
      }
      if (group.size() >= n_) {
        Partial merged = acc_[group[0]];
        for (size_t k = 1; k < group.size(); ++k) {
          merged = Partial::Merge(merged, acc_[group[k]]);
        }
        for (auto it = group.rbegin(); it != group.rend(); ++it) {
          acc_.erase(acc_.begin() + static_cast<long>(*it));
        }
        out->push_back(std::move(merged));
      }
    }
  }

  void Expire(Timestamp cutoff, uint64_t* dropped) override {
    ExpireBuffer(&acc_, cutoff, dropped);
    body_->Expire(cutoff, dropped);
  }

  size_t PartialCount() const override {
    return acc_.size() + body_->PartialCount();
  }

  void SnapshotNode(const EventRegistry* reg, std::string* out) const override {
    PutScalar<uint8_t>(out, kTagHistory);
    EncodeBuffer(acc_, reg, out);
    body_->SnapshotNode(reg, out);
  }
  bool RestoreNode(const std::string& data, size_t* pos,
                   const EventRegistry* reg) override {
    return ReadTag(data, pos, kTagHistory) &&
           DecodeBuffer(data, pos, reg, &acc_) &&
           body_->RestoreNode(data, pos, reg);
  }

 private:
  std::unique_ptr<Node> body_;
  uint32_t n_;
  std::vector<Partial> acc_;
};

// ---------------------------------------------------------------------------
// Compositor
// ---------------------------------------------------------------------------

Compositor::Compositor(const EventDescriptor* desc) : desc_(desc) {}
Compositor::~Compositor() = default;

std::unique_ptr<Compositor::Node> Compositor::BuildTree(
    const EventExprPtr& expr) const {
  ConsumptionPolicy p = desc_->policy;
  switch (expr->op()) {
    case EventOp::kPrimitive:
      return std::make_unique<PrimitiveNode>(p, expr->primitive_type());
    case EventOp::kSequence:
      return std::make_unique<SequenceNode>(p, expr->correlation(),
                                            BuildTree(expr->children()[0]),
                                            BuildTree(expr->children()[1]));
    case EventOp::kConjunction:
      return std::make_unique<ConjunctionNode>(
          p, expr->correlation(), BuildTree(expr->children()[0]),
          BuildTree(expr->children()[1]));
    case EventOp::kDisjunction:
      return std::make_unique<DisjunctionNode>(
          p, BuildTree(expr->children()[0]), BuildTree(expr->children()[1]));
    case EventOp::kNegation:
      return std::make_unique<NegationNode>(p, expr->correlation(),
                                            BuildTree(expr->children()[0]),
                                            BuildTree(expr->children()[1]),
                                            BuildTree(expr->children()[2]));
    case EventOp::kClosure:
      return std::make_unique<ClosureNode>(p, BuildTree(expr->children()[0]),
                                           BuildTree(expr->children()[1]));
    case EventOp::kHistory:
      return std::make_unique<HistoryNode>(p, expr->correlation(),
                                           BuildTree(expr->children()[0]),
                                           expr->history_count());
  }
  return nullptr;
}

EventOccurrencePtr Compositor::MakeOccurrence(
    std::vector<EventOccurrencePtr> parts, Timestamp ts, uint64_t seq,
    TxnId txn) const {
  auto occ = std::make_shared<EventOccurrence>();
  occ->type = desc_->id;
  occ->timestamp = ts;
  occ->sequence = seq;
  occ->txn = txn;
  occ->constituents = std::move(parts);
  // Event parameters of a composite: forwarded from its last constituent
  // (the terminator), which is what rules usually react to.
  if (!occ->constituents.empty()) {
    occ->params = occ->constituents.back()->params;
    occ->source = occ->constituents.back()->source;
  }
  return occ;
}

std::unique_lock<std::mutex> Compositor::LockStripe(const Stripe& stripe) {
  std::unique_lock<std::mutex> lock(stripe.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    const uint64_t start = obs::NowNanosIfEnabled();
    lock.lock();
    if (start != 0) {
      CompositorMetrics::Get().lock_wait_ns->RecordAlways(obs::NowNanos() -
                                                          start);
    }
  }
  return lock;
}

Compositor::Node* Compositor::InstanceFor(Stripe& stripe, TxnId key) {
  auto it = stripe.instances.find(key);
  if (it == stripe.instances.end()) {
    it = stripe.instances.emplace(key, BuildTree(desc_->expr)).first;
  }
  return it->second.get();
}

void Compositor::FeedLocked(Node* root, TxnId key,
                            const EventOccurrencePtr& occ,
                            std::vector<EventOccurrencePtr>* out) {
  if (desc_->scope == CompositeScope::kCrossTxn && desc_->validity_us > 0) {
    // Lazy validity GC keyed to the incoming occurrence's timestamp.
    uint64_t dropped = 0;
    root->Expire(occ->timestamp - desc_->validity_us, &dropped);
    if (dropped != 0) {
      expired_partials_.fetch_add(dropped, std::memory_order_relaxed);
      CompositorMetrics::Get().expired_partials->Inc(dropped);
    }
  }
  if (desc_->scope == CompositeScope::kCrossTxn &&
      occ->sequence > last_fed_seq_.load(std::memory_order_relaxed)) {
    last_fed_seq_.store(occ->sequence, std::memory_order_relaxed);
  }
  std::vector<Partial> completions;
  root->Feed(occ, &completions);
  for (Partial& p : completions) {
    completions_.fetch_add(1, std::memory_order_relaxed);
    CompositorMetrics::Get().completions->Inc();
    out->push_back(MakeOccurrence(std::move(p.parts), p.last_ts, p.last_seq,
                                  desc_->scope == CompositeScope::kSingleTxn
                                      ? key
                                      : kNoTxn));
  }
}

void Compositor::Feed(const EventOccurrencePtr& occ,
                      std::vector<EventOccurrencePtr>* out) {
  fed_.fetch_add(1, std::memory_order_relaxed);
  CompositorMetrics::Get().fed->Inc();
  TxnId key = kNoTxn;
  if (desc_->scope == CompositeScope::kSingleTxn) {
    if (occ->txn == kNoTxn) return;  // temporal events never reach 1tx trees
    key = occ->txn;
  }
  Stripe& stripe = StripeFor(key);
  auto lock = LockStripe(stripe);
  FeedLocked(InstanceFor(stripe, key), key, occ, out);
}

void Compositor::OnTxnEnd(TxnId txn) {
  if (desc_->scope != CompositeScope::kSingleTxn) return;
  Stripe& stripe = StripeFor(txn);
  auto lock = LockStripe(stripe);
  auto it = stripe.instances.find(txn);
  if (it == stripe.instances.end()) return;
  uint64_t discarded = it->second->PartialCount();
  if (discarded != 0) {
    discarded_at_eot_.fetch_add(discarded, std::memory_order_relaxed);
    CompositorMetrics::Get().discarded_at_eot->Inc(discarded);
  }
  stripe.instances.erase(it);
}

void Compositor::ExpireOlderThan(Timestamp cutoff) {
  if (desc_->scope != CompositeScope::kCrossTxn) return;
  Stripe& stripe = StripeFor(kNoTxn);
  auto lock = LockStripe(stripe);
  auto it = stripe.instances.find(kNoTxn);
  if (it == stripe.instances.end()) return;
  uint64_t dropped = 0;
  it->second->Expire(cutoff, &dropped);
  if (dropped != 0) {
    expired_partials_.fetch_add(dropped, std::memory_order_relaxed);
    CompositorMetrics::Get().expired_partials->Inc(dropped);
    if (gc_listener_) gc_listener_(cutoff, dropped);
  }
}

std::string Compositor::SnapshotState(const EventRegistry* registry) const {
  if (desc_->scope != CompositeScope::kCrossTxn) return {};
  Stripe& stripe = const_cast<Compositor*>(this)->StripeFor(kNoTxn);
  auto lock = LockStripe(stripe);
  auto it = stripe.instances.find(kNoTxn);
  if (it == stripe.instances.end()) return {};
  std::string out;
  PutScalar<uint8_t>(&out, kStateVersion);
  PutScalar<uint64_t>(&out, last_fed_seq_.load(std::memory_order_relaxed));
  it->second->SnapshotNode(registry, &out);
  return out;
}

Status Compositor::RestoreState(const std::string& state,
                                const EventRegistry* registry) {
  if (desc_->scope != CompositeScope::kCrossTxn || state.empty()) {
    return Status::OK();
  }
  size_t pos = 0;
  uint8_t version = 0;
  uint64_t floor = 0;
  if (!GetScalar(state, &pos, &version) || version != kStateVersion ||
      !GetScalar(state, &pos, &floor)) {
    return Status::Corruption("event checkpoint state header");
  }
  auto root = BuildTree(desc_->expr);
  if (!root->RestoreNode(state, &pos, registry) || pos != state.size()) {
    return Status::Corruption("event checkpoint state does not match " +
                              desc_->name + "'s expression shape");
  }
  Stripe& stripe = StripeFor(kNoTxn);
  auto lock = LockStripe(stripe);
  stripe.instances[kNoTxn] = std::move(root);
  last_fed_seq_.store(floor, std::memory_order_relaxed);
  return Status::OK();
}

size_t Compositor::LivePartialCount() const {
  size_t n = 0;
  for (const Stripe& stripe : stripes_) {
    auto lock = LockStripe(stripe);
    for (const auto& [_, root] : stripe.instances) n += root->PartialCount();
  }
  return n;
}

CompositorStats Compositor::stats() const {
  CompositorStats s;
  s.fed = fed_.load(std::memory_order_relaxed);
  s.completions = completions_.load(std::memory_order_relaxed);
  s.expired_partials = expired_partials_.load(std::memory_order_relaxed);
  s.discarded_at_eot = discarded_at_eot_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace reach
