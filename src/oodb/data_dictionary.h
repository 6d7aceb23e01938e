// DataDictionary: the globally known repository of names. Maps external
// names ("Block A") to OIDs; persisted as a single root object whose OID
// lives in the storage meta page. Extent anchors and other system objects
// are registered here under reserved "__" names.
//
// Bind, Rebind and Unbind X-lock the root object for the binding
// transaction before reading it: the root is rewritten whole, so without
// the lock one transaction's abort (a physical undo of the root) would
// erase another's committed binding. Lookup reads the latest image
// without a lock.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/storage_manager.h"
#include "txn/lock_manager.h"

namespace reach {

class DataDictionary {
 public:
  DataDictionary(StorageManager* storage, LockManager* locks)
      : storage_(storage), locks_(locks) {}

  /// Load (or create) the dictionary root object. Runs in its own
  /// bootstrap transaction id supplied by the caller.
  Status Bootstrap(TxnId boot_txn);

  /// Bind `name` to `oid` (fails if already bound).
  Status Bind(TxnId txn, const std::string& name, const Oid& oid);

  /// Rebind `name` (inserts if absent).
  Status Rebind(TxnId txn, const std::string& name, const Oid& oid);

  Result<Oid> Lookup(const std::string& name);

  Status Unbind(TxnId txn, const std::string& name);

  Result<std::vector<std::string>> Names();

 private:
  /// Read and parse the dictionary object.
  Result<std::vector<std::pair<std::string, Oid>>> Load();
  Status Store(TxnId txn,
               const std::vector<std::pair<std::string, Oid>>& entries);

  StorageManager* storage_;
  LockManager* locks_;
  std::mutex mu_;
  Oid root_;
};

}  // namespace reach
