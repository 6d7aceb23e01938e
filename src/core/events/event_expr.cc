#include "core/events/event_expr.h"

#include <algorithm>

namespace reach {

const char* EventOpName(EventOp op) {
  switch (op) {
    case EventOp::kPrimitive: return "prim";
    case EventOp::kSequence: return "seq";
    case EventOp::kConjunction: return "and";
    case EventOp::kDisjunction: return "or";
    case EventOp::kNegation: return "not";
    case EventOp::kClosure: return "closure";
    case EventOp::kHistory: return "history";
  }
  return "?";
}

EventExprPtr EventExpr::Prim(EventTypeId type) {
  return EventExprPtr(new EventExpr(EventOp::kPrimitive, type, {}, 0));
}

EventExprPtr EventExpr::Seq(EventExprPtr a, EventExprPtr b,
                            Correlation correlation) {
  return EventExprPtr(new EventExpr(EventOp::kSequence, kInvalidEventType,
                                    {std::move(a), std::move(b)}, 0,
                                    correlation));
}

EventExprPtr EventExpr::And(EventExprPtr a, EventExprPtr b,
                            Correlation correlation) {
  return EventExprPtr(new EventExpr(EventOp::kConjunction, kInvalidEventType,
                                    {std::move(a), std::move(b)}, 0,
                                    correlation));
}

EventExprPtr EventExpr::Or(EventExprPtr a, EventExprPtr b) {
  return EventExprPtr(new EventExpr(EventOp::kDisjunction, kInvalidEventType,
                                    {std::move(a), std::move(b)}, 0));
}

EventExprPtr EventExpr::Not(EventExprPtr start, EventExprPtr neg,
                            EventExprPtr end, Correlation correlation) {
  return EventExprPtr(
      new EventExpr(EventOp::kNegation, kInvalidEventType,
                    {std::move(start), std::move(neg), std::move(end)}, 0,
                    correlation));
}

EventExprPtr EventExpr::Closure(EventExprPtr body, EventExprPtr end) {
  return EventExprPtr(new EventExpr(EventOp::kClosure, kInvalidEventType,
                                    {std::move(body), std::move(end)}, 0));
}

EventExprPtr EventExpr::History(EventExprPtr body, uint32_t n,
                                Correlation correlation) {
  return EventExprPtr(new EventExpr(EventOp::kHistory, kInvalidEventType,
                                    {std::move(body)}, n, correlation));
}

void EventExpr::CollectLeaves(std::vector<EventTypeId>* out) const {
  if (op_ == EventOp::kPrimitive) {
    if (std::find(out->begin(), out->end(), primitive_type_) == out->end()) {
      out->push_back(primitive_type_);
    }
    return;
  }
  for (const auto& c : children_) c->CollectLeaves(out);
}

std::vector<EventTypeId> EventExpr::LeafTypes() const {
  std::vector<EventTypeId> out;
  CollectLeaves(&out);
  return out;
}

Status EventExpr::Validate() const {
  switch (op_) {
    case EventOp::kPrimitive:
      if (primitive_type_ == kInvalidEventType) {
        return Status::InvalidArgument("primitive leaf with invalid type");
      }
      return Status::OK();
    case EventOp::kSequence:
    case EventOp::kConjunction:
    case EventOp::kDisjunction:
    case EventOp::kClosure:
      if (children_.size() != 2) {
        return Status::InvalidArgument(std::string(EventOpName(op_)) +
                                       " needs exactly 2 operands");
      }
      break;
    case EventOp::kNegation:
      if (children_.size() != 3) {
        return Status::InvalidArgument("not needs (start, neg, end)");
      }
      break;
    case EventOp::kHistory:
      if (children_.size() != 1) {
        return Status::InvalidArgument("history needs 1 operand");
      }
      if (history_count_ == 0) {
        return Status::InvalidArgument("history count must be >= 1");
      }
      break;
  }
  for (const auto& c : children_) {
    REACH_RETURN_IF_ERROR(c->Validate());
  }
  return Status::OK();
}

std::string EventExpr::ToString() const {
  if (op_ == EventOp::kPrimitive) {
    return "E" + std::to_string(primitive_type_);
  }
  std::string out = EventOpName(op_);
  out += "(";
  for (size_t i = 0; i < children_.size(); ++i) {
    if (i > 0) out += ", ";
    out += children_[i]->ToString();
  }
  if (op_ == EventOp::kHistory) {
    out += ", n=" + std::to_string(history_count_);
  }
  return out + ")";
}

}  // namespace reach
