// Persistence policy manager: object faulting, the object cache, class
// extents, and write-through of attribute updates. Announces
// persist/fetch/delete events on the meta bus.
//
// A class extent is the set of slotted pages its extent anchor owns
// (docs/STORAGE.md "Page owners"): Persist stores each object on a page of
// its class, and the extent is read back as the home cells of those pages,
// so no extent list is written per insert. The anchor — an object bound as
// "__extent::<Class>" in the dictionary — is also the extent's lock:
// inserters and deleters hold it X (taken before the store insert), scans
// hold it S, which keeps phantoms out of a scan.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
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

  /// TxnListener: drop cached versions of objects an aborted transaction
  /// touched (the store already rolled them back).
  void OnAbort(TxnId txn) override;
  void OnCommit(TxnId txn) override;
  /// Nested commit: the child's touch set moves into the parent so a later
  /// parent abort still invalidates the child's cache entries.
  void OnCommitChild(TxnId child, TxnId parent) override;

  /// Make a transient object persistent: X-locks its class extent, stores
  /// it on a page of that extent (assigning the OID), announces kPersist.
  Result<Oid> Persist(TxnId txn, DbObject* obj);

  /// Fault an object in (S-locks it). Announces kFetch.
  Result<std::shared_ptr<DbObject>> Fetch(TxnId txn, const Oid& oid);

  /// Batch fault: S-locks all OIDs with one lock-manager pass, resolves
  /// cache hits under one mutex hold, reads misses outside any lock, then
  /// inserts them in one pass. `out` holds the objects in input order.
  /// Announces kFetch per object (when monitored), like Fetch. Safe to call
  /// from several threads of one transaction concurrently (query morsels).
  Status FetchMany(TxnId txn, const std::vector<Oid>& oids,
                   std::vector<std::shared_ptr<DbObject>>* out);

  /// Write an updated attribute set back to the store (X-locks the OID).
  Status Write(TxnId txn, const DbObject& obj);

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

  /// Cache statistics.
  size_t cached_objects() const;
  uint64_t faults() const { return faults_; }

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

  void TrackTouch(TxnId txn, const Oid& oid);

  StorageManager* storage_;
  TransactionManager* txns_;
  DataDictionary* dictionary_;
  TypeSystem* types_;
  MetaBus* bus_;

  mutable std::mutex mu_;
  std::unordered_map<Oid, std::shared_ptr<DbObject>> cache_;
  std::unordered_map<TxnId, std::unordered_set<Oid>> touched_;
  uint64_t faults_ = 0;
  // Class -> extent anchor, for anchors whose creator committed (an anchor
  // is never rebound once committed). Guarded by mu_.
  std::unordered_map<std::string, Oid> anchors_;
  // Anchors bound by unfinished transactions: anchor -> (creator, class).
  // The creator's commit moves them into anchors_; its abort drops them.
  std::unordered_map<Oid, std::pair<TxnId, std::string>> open_anchors_;
};

}  // namespace reach
