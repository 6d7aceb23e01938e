#include "oodb/indexing_pm.h"

#include <algorithm>

namespace reach {

IndexingPm::IndexingPm(MetaBus* bus, TransactionManager* txns,
                       TypeSystem* types, PersistencePm* persistence)
    : bus_(bus), txns_(txns), types_(types), persistence_(persistence) {
  bus_->Subscribe(this, SentryKind::kStateChange);
  bus_->Subscribe(this, SentryKind::kPersist);
  bus_->Subscribe(this, SentryKind::kDelete);
  txns_->AddListener(this);
}

IndexingPm::~IndexingPm() {
  bus_->Unsubscribe(this);
  txns_->RemoveListener(this);
}

std::vector<IndexingPm::Index*> IndexingPm::Covering(
    const std::string& event_class, const std::string& attr) {
  std::vector<Index*> out;
  for (auto& [key, index] : indexes_) {
    if (!attr.empty() && index.attr != attr) continue;
    if (types_->IsSubclassOf(event_class, index.class_name)) {
      out.push_back(&index);
    }
  }
  return out;
}

namespace {
Value DecodeIndexKey(const std::string& key) {
  size_t pos = 0;
  auto v = Value::Decode(key, &pos);
  return v.ok() ? *v : Value();
}
}  // namespace

void IndexingPm::InsertEntry(Index* index, const Oid& oid,
                             const std::string& key, TxnId txn) {
  index->buckets[key].push_back(oid);
  index->reverse[oid] = key;
  if (index->kind == IndexKind::kOrdered) {
    index->ordered[DecodeIndexKey(key)].push_back(oid);
  }
  maintenance_ops_.fetch_add(1, std::memory_order_relaxed);
  if (txn != kNoTxn) {
    undo_[txn].push_back(
        {IndexKey(index->class_name, index->attr), true, oid, key});
  }
}

void IndexingPm::RemoveEntry(Index* index, const Oid& oid, TxnId txn) {
  auto rit = index->reverse.find(oid);
  if (rit == index->reverse.end()) return;
  std::string key = rit->second;
  auto bit = index->buckets.find(key);
  if (bit != index->buckets.end()) {
    auto& vec = bit->second;
    vec.erase(std::remove(vec.begin(), vec.end(), oid), vec.end());
    if (vec.empty()) index->buckets.erase(bit);
  }
  if (index->kind == IndexKind::kOrdered) {
    auto oit = index->ordered.find(DecodeIndexKey(key));
    if (oit != index->ordered.end()) {
      auto& vec = oit->second;
      vec.erase(std::remove(vec.begin(), vec.end(), oid), vec.end());
      if (vec.empty()) index->ordered.erase(oit);
    }
  }
  index->reverse.erase(rit);
  maintenance_ops_.fetch_add(1, std::memory_order_relaxed);
  if (txn != kNoTxn) {
    undo_[txn].push_back(
        {IndexKey(index->class_name, index->attr), false, oid, key});
  }
}

void IndexingPm::OnEvent(const SentryEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (event.kind) {
    case SentryKind::kStateChange: {
      // args = {old value, new value}
      if (event.args.size() != 2) return;
      for (Index* index : Covering(event.class_name, event.member)) {
        RemoveEntry(index, event.oid, event.txn);
        InsertEntry(index, event.oid, KeyOf(event.args[1]), event.txn);
      }
      break;
    }
    case SentryKind::kPersist: {
      // Index every covered attribute of the new object.
      for (Index* index : Covering(event.class_name, "")) {
        auto obj = persistence_->Fetch(event.txn, event.oid);
        if (!obj.ok()) return;
        InsertEntry(index, event.oid, KeyOf(obj->Get(index->attr)),
                    event.txn);
      }
      break;
    }
    case SentryKind::kDelete: {
      for (Index* index : Covering(event.class_name, "")) {
        RemoveEntry(index, event.oid, event.txn);
      }
      break;
    }
    default:
      break;
  }
}

void IndexingPm::OnCommit(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  undo_.erase(txn);
}

void IndexingPm::OnCommitChild(TxnId child, TxnId parent) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = undo_.find(child);
  if (it == undo_.end()) return;
  auto& parent_ops = undo_[parent];
  parent_ops.insert(parent_ops.end(),
                    std::make_move_iterator(it->second.begin()),
                    std::make_move_iterator(it->second.end()));
  undo_.erase(it);
}

void IndexingPm::OnAbort(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = undo_.find(txn);
  if (it == undo_.end()) return;
  std::vector<UndoOp> ops = std::move(it->second);
  undo_.erase(it);
  for (auto op = ops.rbegin(); op != ops.rend(); ++op) {
    auto iit = indexes_.find(op->index_key);
    if (iit == indexes_.end()) continue;
    Index& index = iit->second;
    if (op->was_insert) {
      // Revert an insert.
      auto bit = index.buckets.find(op->value_key);
      if (bit != index.buckets.end()) {
        auto& vec = bit->second;
        vec.erase(std::remove(vec.begin(), vec.end(), op->oid), vec.end());
        if (vec.empty()) index.buckets.erase(bit);
      }
      if (index.kind == IndexKind::kOrdered) {
        auto oit = index.ordered.find(DecodeIndexKey(op->value_key));
        if (oit != index.ordered.end()) {
          auto& vec = oit->second;
          vec.erase(std::remove(vec.begin(), vec.end(), op->oid), vec.end());
          if (vec.empty()) index.ordered.erase(oit);
        }
      }
      if (index.reverse[op->oid] == op->value_key) {
        index.reverse.erase(op->oid);
      }
    } else {
      // Revert a remove.
      index.buckets[op->value_key].push_back(op->oid);
      index.reverse[op->oid] = op->value_key;
      if (index.kind == IndexKind::kOrdered) {
        index.ordered[DecodeIndexKey(op->value_key)].push_back(op->oid);
      }
    }
  }
}

Status IndexingPm::CreateIndex(TxnId txn, const std::string& class_name,
                               const std::string& attr, IndexKind kind) {
  if (types_->ResolveAttribute(class_name, attr) == nullptr) {
    return Status::NotFound("attribute " + class_name + "." + attr);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (indexes_.contains(IndexKey(class_name, attr))) {
      return Status::AlreadyExists("index on " + IndexKey(class_name, attr));
    }
  }
  // Build outside the lock: extent scans fault objects in.
  Index fresh;
  fresh.class_name = class_name;
  fresh.attr = attr;
  fresh.kind = kind;
  for (const std::string& cls : types_->SelfAndSubclasses(class_name)) {
    REACH_ASSIGN_OR_RETURN(std::vector<Oid> extent,
                           persistence_->Extent(txn, cls));
    for (const Oid& oid : extent) {
      REACH_ASSIGN_OR_RETURN(DbObject obj, persistence_->Fetch(txn, oid));
      std::string key = KeyOf(obj.Get(attr));
      fresh.buckets[key].push_back(oid);
      fresh.reverse[oid] = key;
      if (kind == IndexKind::kOrdered) {
        fresh.ordered[obj.Get(attr)].push_back(oid);
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  indexes_[IndexKey(class_name, attr)] = std::move(fresh);
  return Status::OK();
}

Status IndexingPm::DropIndex(const std::string& class_name,
                             const std::string& attr) {
  std::lock_guard<std::mutex> lock(mu_);
  if (indexes_.erase(IndexKey(class_name, attr)) == 0) {
    return Status::NotFound("index on " + IndexKey(class_name, attr));
  }
  return Status::OK();
}

bool IndexingPm::HasIndex(const std::string& class_name,
                          const std::string& attr) const {
  std::lock_guard<std::mutex> lock(mu_);
  return indexes_.contains(IndexKey(class_name, attr));
}

bool IndexingPm::HasOrderedIndex(const std::string& class_name,
                                 const std::string& attr) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = indexes_.find(IndexKey(class_name, attr));
  return it != indexes_.end() && it->second.kind == IndexKind::kOrdered;
}

Status IndexingPm::RangeLookupInto(const std::string& class_name,
                                   const std::string& attr, const Value* lo,
                                   bool lo_inclusive, const Value* hi,
                                   bool hi_inclusive,
                                   std::vector<Oid>* out) const {
  out->clear();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = indexes_.find(IndexKey(class_name, attr));
  if (it == indexes_.end() || it->second.kind != IndexKind::kOrdered) {
    return Status::NotFound("ordered index on " +
                            IndexKey(class_name, attr));
  }
  const auto& ordered = it->second.ordered;
  auto begin = lo == nullptr
                   ? ordered.begin()
                   : (lo_inclusive ? ordered.lower_bound(*lo)
                                   : ordered.upper_bound(*lo));
  auto end = hi == nullptr
                 ? ordered.end()
                 : (hi_inclusive ? ordered.upper_bound(*hi)
                                 : ordered.lower_bound(*hi));
  for (auto cur = begin; cur != end; ++cur) {
    out->insert(out->end(), cur->second.begin(), cur->second.end());
  }
  return Status::OK();
}

Result<std::vector<Oid>> IndexingPm::RangeLookup(
    const std::string& class_name, const std::string& attr, const Value* lo,
    bool lo_inclusive, const Value* hi, bool hi_inclusive) const {
  std::vector<Oid> out;
  REACH_RETURN_IF_ERROR(RangeLookupInto(class_name, attr, lo, lo_inclusive,
                                        hi, hi_inclusive, &out));
  return out;
}

Status IndexingPm::LookupInto(const std::string& class_name,
                              const std::string& attr, const Value& value,
                              std::vector<Oid>* out) const {
  out->clear();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = indexes_.find(IndexKey(class_name, attr));
  if (it == indexes_.end()) {
    return Status::NotFound("index on " + IndexKey(class_name, attr));
  }
  auto bit = it->second.buckets.find(KeyOf(value));
  if (bit == it->second.buckets.end()) return Status::OK();
  out->assign(bit->second.begin(), bit->second.end());
  return Status::OK();
}

Result<std::vector<Oid>> IndexingPm::Lookup(const std::string& class_name,
                                            const std::string& attr,
                                            const Value& value) const {
  std::vector<Oid> out;
  REACH_RETURN_IF_ERROR(LookupInto(class_name, attr, value, &out));
  return out;
}

}  // namespace reach
