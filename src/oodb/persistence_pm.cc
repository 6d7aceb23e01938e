#include "oodb/persistence_pm.h"

namespace reach {

PersistencePm::PersistencePm(StorageManager* storage,
                             TransactionManager* txns,
                             DataDictionary* dictionary, TypeSystem* types,
                             MetaBus* bus)
    : storage_(storage),
      txns_(txns),
      dictionary_(dictionary),
      types_(types),
      bus_(bus) {
  txns_->AddListener(this);
}

PersistencePm::~PersistencePm() { txns_->RemoveListener(this); }

void PersistencePm::OnAbort(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(open_anchors_,
                [txn](const auto& entry) { return entry.second.first == txn; });
  auto it = touched_.find(txn);
  if (it == touched_.end()) return;
  for (const Oid& oid : it->second) cache_.erase(oid);
  touched_.erase(it);
}

void PersistencePm::OnCommit(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  touched_.erase(txn);
  std::erase_if(open_anchors_, [&](const auto& entry) {
    const auto& [creator, class_name] = entry.second;
    if (creator != txn) return false;
    anchors_.emplace(class_name, entry.first);
    return true;
  });
}

void PersistencePm::OnCommitChild(TxnId child, TxnId parent) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [anchor, created] : open_anchors_) {
    if (created.first == child) created.first = parent;
  }
  auto it = touched_.find(child);
  if (it == touched_.end()) return;
  touched_[parent].merge(it->second);
  touched_.erase(child);
}

void PersistencePm::TrackTouch(TxnId txn, const Oid& oid) {
  std::lock_guard<std::mutex> lock(mu_);
  touched_[txn].insert(oid);
}

Result<Oid> PersistencePm::Persist(TxnId txn, DbObject* obj) {
  if (txn == kNoTxn) {
    return Status::FailedPrecondition("persist outside a transaction");
  }
  if (obj->persistent()) {
    return Status::FailedPrecondition("object is already persistent");
  }
  if (!types_->IsRegistered(obj->class_name())) {
    return Status::NotFound("class " + obj->class_name() +
                            " not registered");
  }
  // The extent lock comes first: a scan holding it S must never see an
  // uncommitted cell on one of the class's pages.
  REACH_ASSIGN_OR_RETURN(
      Oid anchor, LockExtent(txn, obj->class_name(), LockMode::kExclusive));
  REACH_ASSIGN_OR_RETURN(
      Oid oid, storage_->objects()->Insert(txn, obj->Serialize(), anchor));
  obj->set_oid(oid);
  REACH_RETURN_IF_ERROR(
      txns_->locks()->Acquire(txn, oid, LockMode::kExclusive));
  {
    std::lock_guard<std::mutex> lock(mu_);
    cache_[oid] = std::make_shared<DbObject>(*obj);
  }
  TrackTouch(txn, oid);

  SentryEvent ev;
  ev.kind = SentryKind::kPersist;
  ev.class_name = obj->class_name();
  ev.oid = oid;
  ev.txn = txn;
  bus_->Announce(ev);
  return oid;
}

Result<std::shared_ptr<DbObject>> PersistencePm::Fetch(TxnId txn,
                                                       const Oid& oid) {
  if (txn == kNoTxn) {
    return Status::FailedPrecondition("fetch outside a transaction");
  }
  REACH_RETURN_IF_ERROR(txns_->locks()->Acquire(txn, oid, LockMode::kShared));
  std::shared_ptr<DbObject> obj;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(oid);
    if (it != cache_.end()) obj = it->second;
  }
  if (!obj) {
    REACH_ASSIGN_OR_RETURN(std::string bytes, storage_->objects()->Read(oid));
    REACH_ASSIGN_OR_RETURN(DbObject parsed, DbObject::Deserialize(bytes));
    parsed.set_oid(oid);
    obj = std::make_shared<DbObject>(std::move(parsed));
    std::lock_guard<std::mutex> lock(mu_);
    ++faults_;
    cache_[oid] = obj;
  }
  if (bus_->Monitored(SentryKind::kFetch, obj->class_name(), "")) {
    SentryEvent ev;
    ev.kind = SentryKind::kFetch;
    ev.class_name = obj->class_name();
    ev.oid = oid;
    ev.txn = txn;
    bus_->Announce(ev);
  }
  return obj;
}

Status PersistencePm::FetchMany(TxnId txn, const std::vector<Oid>& oids,
                                std::vector<std::shared_ptr<DbObject>>* out) {
  if (txn == kNoTxn) {
    return Status::FailedPrecondition("fetch outside a transaction");
  }
  REACH_RETURN_IF_ERROR(txns_->locks()->AcquireSharedBatch(txn, oids));
  out->clear();
  out->resize(oids.size());
  std::vector<size_t> misses;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < oids.size(); ++i) {
      auto it = cache_.find(oids[i]);
      if (it != cache_.end()) {
        (*out)[i] = it->second;
      } else {
        misses.push_back(i);
      }
    }
  }
  // Read and deserialize misses outside the cache mutex; the S locks keep
  // the stored bytes stable.
  for (size_t i : misses) {
    REACH_ASSIGN_OR_RETURN(std::string bytes,
                           storage_->objects()->Read(oids[i]));
    REACH_ASSIGN_OR_RETURN(DbObject parsed, DbObject::Deserialize(bytes));
    parsed.set_oid(oids[i]);
    (*out)[i] = std::make_shared<DbObject>(std::move(parsed));
  }
  if (!misses.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i : misses) {
      faults_++;
      // A concurrent fetch may have cached the object meanwhile; keep the
      // existing entry so every caller sees one shared instance.
      auto [it, inserted] = cache_.emplace(oids[i], (*out)[i]);
      if (!inserted) (*out)[i] = it->second;
    }
  }
  for (size_t i = 0; i < oids.size(); ++i) {
    const std::shared_ptr<DbObject>& obj = (*out)[i];
    if (bus_->Monitored(SentryKind::kFetch, obj->class_name(), "")) {
      SentryEvent ev;
      ev.kind = SentryKind::kFetch;
      ev.class_name = obj->class_name();
      ev.oid = oids[i];
      ev.txn = txn;
      bus_->Announce(ev);
    }
  }
  return Status::OK();
}

Status PersistencePm::Write(TxnId txn, const DbObject& obj) {
  if (txn == kNoTxn) {
    return Status::FailedPrecondition("write outside a transaction");
  }
  if (!obj.persistent()) {
    return Status::FailedPrecondition("object is not persistent");
  }
  REACH_RETURN_IF_ERROR(
      txns_->locks()->Acquire(txn, obj.oid(), LockMode::kExclusive));
  REACH_RETURN_IF_ERROR(
      storage_->objects()->Update(txn, obj.oid(), obj.Serialize()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    cache_[obj.oid()] = std::make_shared<DbObject>(obj);
  }
  TrackTouch(txn, obj.oid());
  return Status::OK();
}

Status PersistencePm::Delete(TxnId txn, const Oid& oid) {
  if (txn == kNoTxn) {
    return Status::FailedPrecondition("delete outside a transaction");
  }
  // Need the class to lock its extent and parameterize the delete event.
  // The extent X lock comes before the object's: a scan holds the extent S
  // while it S-locks objects, so the other order would deadlock a delete
  // with every scan covering its object. Freeing the cell is what takes the
  // object out of the extent.
  REACH_ASSIGN_OR_RETURN(std::shared_ptr<DbObject> obj, Fetch(txn, oid));
  REACH_RETURN_IF_ERROR(
      LockExtent(txn, obj->class_name(), LockMode::kExclusive).status());
  REACH_RETURN_IF_ERROR(
      txns_->locks()->Acquire(txn, oid, LockMode::kExclusive));

  // Announce before the storage delete so rules can still read the object
  // (the persistent-C++ destructor-event semantics of §4).
  SentryEvent ev;
  ev.kind = SentryKind::kDelete;
  ev.class_name = obj->class_name();
  ev.oid = oid;
  ev.txn = txn;
  bus_->Announce(ev);

  REACH_RETURN_IF_ERROR(storage_->objects()->Delete(txn, oid));
  {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.erase(oid);
  }
  TrackTouch(txn, oid);
  return Status::OK();
}

Result<Oid> PersistencePm::LockExtent(TxnId txn,
                                      const std::string& class_name,
                                      LockMode mode) {
  Oid cached;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = anchors_.find(class_name);
    if (it != anchors_.end()) cached = it->second;
  }
  if (cached.valid()) {
    REACH_RETURN_IF_ERROR(txns_->locks()->Acquire(txn, cached, mode));
    return cached;
  }
  const std::string name = ExtentName(class_name);
  for (;;) {
    auto found = dictionary_->Lookup(name);
    if (found.ok()) {
      REACH_RETURN_IF_ERROR(txns_->locks()->Acquire(txn, *found, mode));
      // The lock outwaits any other transaction that created the anchor
      // (it holds it X until it ends); an aborted creator's binding is
      // undone by then, so look again.
      auto again = dictionary_->Lookup(name);
      if (again.ok() && *again == *found) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!open_anchors_.contains(*found)) {
          anchors_.emplace(class_name, *found);
        }
        return *found;
      }
      if (!again.ok() && !again.status().IsNotFound()) return again.status();
      continue;
    }
    if (!found.status().IsNotFound() || mode == LockMode::kShared) {
      return found.status();
    }
    // First object of the class: create and bind its anchor. The anchor is
    // X-locked before it is bound, so no other transaction gets past the
    // lock above until this one has ended (and left open_anchors_).
    REACH_ASSIGN_OR_RETURN(Oid anchor,
                           storage_->objects()->Insert(txn, class_name));
    REACH_RETURN_IF_ERROR(
        txns_->locks()->Acquire(txn, anchor, LockMode::kExclusive));
    Status bind = dictionary_->Bind(txn, name, anchor);
    if (bind.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      open_anchors_.emplace(anchor, std::make_pair(txn, class_name));
      return anchor;
    }
    if (!bind.IsAlreadyExists()) return bind;
    // Another transaction bound the class first; use its anchor.
    REACH_RETURN_IF_ERROR(storage_->objects()->Delete(txn, anchor));
  }
}

Result<std::vector<PageId>> PersistencePm::ExtentPages(
    TxnId txn, const std::string& class_name) {
  auto anchor = LockExtent(txn, class_name, LockMode::kShared);
  if (anchor.status().IsNotFound()) return std::vector<PageId>{};
  if (!anchor.ok()) return anchor.status();
  return storage_->objects()->OwnedPages(*anchor);
}

Result<std::vector<Oid>> PersistencePm::Extent(TxnId txn,
                                               const std::string& class_name) {
  REACH_ASSIGN_OR_RETURN(std::vector<PageId> pages,
                         ExtentPages(txn, class_name));
  std::vector<Oid> out;
  for (PageId page : pages) {
    REACH_RETURN_IF_ERROR(storage_->objects()->AppendHomes(page, &out));
  }
  return out;
}

size_t PersistencePm::cached_objects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

}  // namespace reach
