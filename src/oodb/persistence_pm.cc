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
}

void PersistencePm::OnCommit(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
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
  REACH_ASSIGN_OR_RETURN(
      Oid oid, PersistRecord(txn, obj->class_name(), obj->Serialize()));
  obj->set_oid(oid);
  return oid;
}

Result<Oid> PersistencePm::PersistRecord(TxnId txn,
                                         const std::string& class_name,
                                         std::string_view record) {
  if (txn == kNoTxn) {
    return Status::FailedPrecondition("persist outside a transaction");
  }
  // The extent lock comes first: a scan holding it S must never see an
  // uncommitted cell on one of the class's pages.
  REACH_ASSIGN_OR_RETURN(Oid anchor,
                         LockExtent(txn, class_name, LockMode::kExclusive));
  REACH_ASSIGN_OR_RETURN(Oid oid,
                         storage_->objects()->Insert(txn, record, anchor));
  REACH_RETURN_IF_ERROR(
      txns_->locks()->Acquire(txn, oid, LockMode::kExclusive));

  SentryEvent ev;
  ev.kind = SentryKind::kPersist;
  ev.class_name = class_name;
  ev.oid = oid;
  ev.txn = txn;
  bus_->Announce(ev);
  return oid;
}

Result<std::string> PersistencePm::Load(TxnId txn, const Oid& oid) {
  if (txn == kNoTxn) {
    return Status::FailedPrecondition("fetch outside a transaction");
  }
  REACH_RETURN_IF_ERROR(txns_->locks()->Acquire(txn, oid, LockMode::kShared));
  REACH_ASSIGN_OR_RETURN(std::string record, storage_->objects()->Read(oid));
  REACH_ASSIGN_OR_RETURN(RecordView view, RecordView::Parse(record));
  AnnounceFetch(txn, oid, view.class_name());
  return record;
}

Result<DbObject> PersistencePm::Fetch(TxnId txn, const Oid& oid) {
  REACH_ASSIGN_OR_RETURN(std::string record, Load(txn, oid));
  REACH_ASSIGN_OR_RETURN(DbObject obj, DbObject::Deserialize(record));
  obj.set_oid(oid);
  return obj;
}

void PersistencePm::AnnounceFetch(TxnId txn, const Oid& oid,
                                  std::string_view class_name) {
  if (!bus_->Monitored(SentryKind::kFetch, class_name, "")) return;
  SentryEvent ev;
  ev.kind = SentryKind::kFetch;
  ev.class_name = std::string(class_name);
  ev.oid = oid;
  ev.txn = txn;
  bus_->Announce(ev);
}

Status PersistencePm::Update(TxnId txn, const Oid& oid,
                             const RecordPatch& patch) {
  if (txn == kNoTxn) {
    return Status::FailedPrecondition("write outside a transaction");
  }
  if (!oid.valid()) {
    return Status::FailedPrecondition("object is not persistent");
  }
  REACH_RETURN_IF_ERROR(LockOwner(txn, oid));
  REACH_RETURN_IF_ERROR(
      txns_->locks()->Acquire(txn, oid, LockMode::kExclusive));
  REACH_ASSIGN_OR_RETURN(std::string record, storage_->objects()->Read(oid));
  REACH_ASSIGN_OR_RETURN(RecordView view, RecordView::Parse(record));
  AnnounceFetch(txn, oid, view.class_name());
  REACH_ASSIGN_OR_RETURN(std::string patched, patch(view));
  return storage_->objects()->Update(txn, oid, patched);
}

Status PersistencePm::Delete(TxnId txn, const Oid& oid) {
  if (txn == kNoTxn) {
    return Status::FailedPrecondition("delete outside a transaction");
  }
  // Need the class to lock its extent and parameterize the delete event.
  // The extent X lock comes before the object's, the order every update
  // takes its extent IX and object X in. Freeing the cell is what takes the
  // object out of the extent.
  REACH_ASSIGN_OR_RETURN(std::string record, Load(txn, oid));
  REACH_ASSIGN_OR_RETURN(RecordView view, RecordView::Parse(record));
  const std::string class_name(view.class_name());
  REACH_RETURN_IF_ERROR(
      LockExtent(txn, class_name, LockMode::kExclusive).status());
  REACH_RETURN_IF_ERROR(
      txns_->locks()->Acquire(txn, oid, LockMode::kExclusive));

  // Announce before the storage delete so rules can still read the object
  // (the persistent-C++ destructor-event semantics of §4).
  SentryEvent ev;
  ev.kind = SentryKind::kDelete;
  ev.class_name = class_name;
  ev.oid = oid;
  ev.txn = txn;
  bus_->Announce(ev);

  return storage_->objects()->Delete(txn, oid);
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

Status PersistencePm::LockOwner(TxnId txn, const Oid& oid) {
  const Oid anchor = storage_->objects()->PageOwner(oid.page);
  if (!anchor.valid()) return Status::OK();
  return txns_->locks()->Acquire(txn, anchor, LockMode::kIntentExclusive);
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

}  // namespace reach
