// Persistence policy manager: object faulting, class extents, and
// write-through of attribute updates. Announces persist/fetch/delete events
// on the meta bus.
//
// The stored record is an object's only copy. A fetch decodes a fresh
// DbObject that no other reader shares; attribute reads and extent scans
// read the record through a RecordView, scans straight from the pinned
// page frame (ObjectStore::VisitHomes). So rolling back an aborted
// transaction is the store's undo alone, finished before its locks go.
//
// A class extent is the set of slotted pages its extent anchor owns
// (docs/STORAGE.md "Page owners"): Persist stores each object on a page of
// its class, and the extent is read back as the home cells of those pages,
// so no extent list is written per insert. The anchor — an object bound as
// "__extent::<Class>" in the dictionary — is also the extent's lock:
// inserters and deleters hold it X (taken before the store insert),
// updaters IX (taken before the object X), and scans S. A scan locks no
// object: its extent S keeps out phantoms and uncommitted updates alike.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "oodb/data_dictionary.h"
#include "oodb/db_object.h"
#include "oodb/meta_bus.h"
#include "oodb/type_system.h"
#include "storage/storage_manager.h"
#include "txn/transaction_manager.h"

namespace reach {

class PersistencePm : public PolicyManager, public TxnListener {
 public:
  PersistencePm(StorageManager* storage, TransactionManager* txns,
                DataDictionary* dictionary, TypeSystem* types, MetaBus* bus);
  ~PersistencePm() override;

  std::string name() const override { return "Persistence PM"; }
  void OnEvent(const SentryEvent& event) override { (void)event; }

  /// TxnListener: an extent anchor is known for good once its creator
  /// commits; an aborted creator's anchor is forgotten, and a committed
  /// child's passes to its parent.
  void OnAbort(TxnId txn) override;
  void OnCommit(TxnId txn) override;
  void OnCommitChild(TxnId child, TxnId parent) override;

  /// Make a transient object persistent: X-locks its class extent, stores
  /// it on a page of that extent (assigning the OID), announces kPersist.
  Result<Oid> Persist(TxnId txn, DbObject* obj);

  /// An object's stored record (RecordView reads it), S-locked first.
  /// Announces kFetch.
  Result<std::string> Load(TxnId txn, const Oid& oid);

  /// Fault an object in (S-locks it): a freshly decoded copy, the
  /// caller's own. Announces kFetch.
  Result<DbObject> Fetch(TxnId txn, const Oid& oid);

  /// Announce kFetch for `oid` when its class is monitored — for readers
  /// that take the record in place rather than through Load.
  void AnnounceFetch(TxnId txn, const Oid& oid, std::string_view class_name);

  /// Maps an object's current record to its replacement.
  using RecordPatch = std::function<Result<std::string>(const RecordView&)>;

  /// Read-modify-write of an object's stored record: IX-locks its class
  /// extent, X-locks the OID, announces kFetch, and stores what `patch`
  /// makes of the current record (nothing when `patch` fails).
  Status Update(TxnId txn, const Oid& oid, const RecordPatch& patch);

  /// Delete a persistent object: X-locks its class extent, announces
  /// kDelete (with the object's class so deletion-triggered rules fire —
  /// the §4 layered-architecture pain point), then frees storage.
  Status Delete(TxnId txn, const Oid& oid);

  /// OIDs in the extent of exactly `class_name`, in Oid order. S-locks
  /// the extent.
  Result<std::vector<Oid>> Extent(TxnId txn, const std::string& class_name);

  /// Pages of the extent of exactly `class_name`, ascending; their home
  /// cells are the extent (ObjectStore::AppendHomes). S-locks the extent.
  Result<std::vector<PageId>> ExtentPages(TxnId txn,
                                          const std::string& class_name);

 private:
  /// Extent anchors are named "__extent::<Class>" in the dictionary.
  static std::string ExtentName(const std::string& class_name) {
    return "__extent::" + class_name;
  }

  /// Resolve the anchor of `class_name`'s extent and lock it in `mode`.
  /// kExclusive creates the anchor on demand; kShared returns NotFound for
  /// a class with no anchor yet.
  Result<Oid> LockExtent(TxnId txn, const std::string& class_name,
                         LockMode mode);

  /// IX-lock the extent anchor owning `oid`'s home page, if any (anchors
  /// and dictionary records are on unowned pages and in no extent).
  Status LockOwner(TxnId txn, const Oid& oid);

  StorageManager* storage_;
  TransactionManager* txns_;
  DataDictionary* dictionary_;
  TypeSystem* types_;
  MetaBus* bus_;

  std::mutex mu_;
  // Class -> extent anchor, for anchors whose creator committed (an anchor
  // is never rebound once committed). Guarded by mu_.
  std::unordered_map<std::string, Oid> anchors_;
  // Anchors bound by unfinished transactions: anchor -> (creator, class).
  // The creator's commit moves them into anchors_; its abort drops them.
  std::unordered_map<Oid, std::pair<TxnId, std::string>> open_anchors_;
};

}  // namespace reach
