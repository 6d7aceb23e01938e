// The REACH event algebra (§3.1). Inherits sequence, disjunction and
// closure from HiPAC and negation, conjunction and history (with validity
// intervals) from SAMOS.
//
//   Seq(a, b)            a then (strictly later) b
//   And(a, b)            both, in either order
//   Or(a, b)             either
//   Not(start, n, end)   start, then end with no n in between
//   Closure(body, end)   all body occurrences between start of composition
//                        and end, raised once at end
//   History(body, n)     raised on the n-th body occurrence
//   Prim(type)           leaf: occurrences of a registered event type
//
// Expressions are immutable trees shared via shared_ptr.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace reach {

enum class EventOp {
  kPrimitive,
  kSequence,
  kConjunction,
  kDisjunction,
  kNegation,
  kClosure,
  kHistory,
};

const char* EventOpName(EventOp op);

class EventExpr;
using EventExprPtr = std::shared_ptr<const EventExpr>;

/// Correlation constraint on a binary operator: which occurrences are
/// allowed to combine (an event-parameter predicate in the sense of the
/// SAMOS/SNOOP algebras).
enum class Correlation {
  kNone,        // any occurrences combine
  kSameSource,  // only occurrences on the same receiver object
};

class EventExpr {
 public:
  EventOp op() const { return op_; }
  EventTypeId primitive_type() const { return primitive_type_; }
  const std::vector<EventExprPtr>& children() const { return children_; }
  uint32_t history_count() const { return history_count_; }
  Correlation correlation() const { return correlation_; }

  /// Leaf event-type ids referenced anywhere in the tree (with duplicates
  /// removed) — these are the inputs the compositor subscribes to.
  std::vector<EventTypeId> LeafTypes() const;

  /// Structural sanity: arity per operator, n >= 1 for History, no
  /// primitive id of kInvalidEventType.
  Status Validate() const;

  std::string ToString() const;

  // Builders. The optional correlation restricts combination to
  // occurrences with the same source object (kSameSource).
  static EventExprPtr Prim(EventTypeId type);
  static EventExprPtr Seq(EventExprPtr a, EventExprPtr b,
                          Correlation correlation = Correlation::kNone);
  static EventExprPtr And(EventExprPtr a, EventExprPtr b,
                          Correlation correlation = Correlation::kNone);
  static EventExprPtr Or(EventExprPtr a, EventExprPtr b);
  /// start; then end with no `neg` between them.
  static EventExprPtr Not(EventExprPtr start, EventExprPtr neg,
                          EventExprPtr end,
                          Correlation correlation = Correlation::kNone);
  static EventExprPtr Closure(EventExprPtr body, EventExprPtr end);
  static EventExprPtr History(EventExprPtr body, uint32_t n,
                              Correlation correlation = Correlation::kNone);

 private:
  EventExpr(EventOp op, EventTypeId primitive_type,
            std::vector<EventExprPtr> children, uint32_t history_count,
            Correlation correlation = Correlation::kNone)
      : op_(op),
        primitive_type_(primitive_type),
        children_(std::move(children)),
        history_count_(history_count),
        correlation_(correlation) {}

  EventOp op_;
  EventTypeId primitive_type_ = kInvalidEventType;
  std::vector<EventExprPtr> children_;
  uint32_t history_count_ = 0;
  Correlation correlation_ = Correlation::kNone;

  void CollectLeaves(std::vector<EventTypeId>* out) const;
};

}  // namespace reach
