// Session: the application's handle onto a Database. Carries the current
// transaction stack (Begin inside an active transaction starts a nested
// subtransaction) and is the implicitly sentried path for object access:
// attribute writes raise state-change events and method invocations raise
// method events on the meta bus.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "oodb/database.h"
#include "oodb/db_object.h"

namespace reach {

class Session {
 public:
  explicit Session(Database* db) : db_(db) {}
  ~Session();

  Database* db() { return db_; }

  // -- Transactions ------------------------------------------------------

  /// Begin a transaction; nested if one is already active on this session.
  Status Begin();
  /// Commit the innermost active transaction.
  Status Commit();
  /// Abort the innermost active transaction.
  Status Abort();
  /// Abort everything on the stack (also run by the destructor).
  Status AbortAll();

  TxnId current_txn() const {
    return txn_stack_.empty() ? kNoTxn : txn_stack_.back();
  }
  size_t txn_depth() const { return txn_stack_.size(); }

  /// Run `fn` in its own (sub)transaction: commit on OK, abort on error.
  Status InTxn(const std::function<Status(Session&)>& fn);

  // -- Objects -----------------------------------------------------------

  /// Create a transient object of `class_name` with default attributes.
  Result<DbObject> New(const std::string& class_name);

  /// Make `obj` persistent; returns its new OID.
  Result<Oid> Persist(DbObject* obj);

  /// Create + persist in one step.
  Result<Oid> PersistNew(const std::string& class_name,
                         std::vector<std::pair<std::string, Value>> attrs);

  Result<std::shared_ptr<DbObject>> Fetch(const Oid& oid);
  Result<std::shared_ptr<DbObject>> FetchByName(const std::string& name);

  Status Delete(const Oid& oid);

  /// Bind / resolve dictionary names.
  Status Bind(const std::string& name, const Oid& oid);
  Result<Oid> Lookup(const std::string& name);
  Status Unbind(const std::string& name);

  // -- Sentried attribute access -----------------------------------------

  /// Write an attribute (write-through: X-locks the object and patches its
  /// stored record). Raises a state-change event with {old, new}
  /// parameters.
  Status SetAttr(const Oid& oid, const std::string& attr, Value value);

  /// Read one attribute through a view of the stored record (S-locks the
  /// object); null if the object does not carry it.
  Result<Value> GetAttr(const Oid& oid, const std::string& attr);

  // -- Sentried method invocation ----------------------------------------

  /// Invoke a method on a persistent object. Announces method-before, runs
  /// the most-derived implementation, announces method-after (with the
  /// result). Immediate rules run inside the announcement, so this call
  /// returns only after the go-ahead — the §6.4 semantics.
  Result<Value> Invoke(const Oid& oid, const std::string& method,
                       std::vector<Value> args = {});

  /// Invoke on a transient object.
  Result<Value> Invoke(DbObject* obj, const std::string& method,
                       std::vector<Value> args = {});

  /// Extent of `class_name` including subclasses.
  Result<std::vector<Oid>> Extent(const std::string& class_name,
                                  bool include_subclasses = true);

  /// An extent scan cut into morsels: the pages of the class's extent
  /// (subclasses included) in ascending page order, in consecutive runs of
  /// at most `morsel_pages` pages. A morsel's objects are the home cells of
  /// its pages (ObjectStore::AppendHomes), so concatenating the morsels in
  /// order visits the extent in Oid order. S-locks every extent scanned.
  using ExtentMorsel = std::vector<PageId>;
  Result<std::vector<ExtentMorsel>> ExtentMorsels(
      const std::string& class_name, size_t morsel_pages,
      bool include_subclasses = true);

  // -- Engine-internal transaction adoption --------------------------------

  /// Push an existing transaction onto this session's stack without
  /// beginning a new one. Used by the rule engine to run rule bodies
  /// inside subtransactions it manages itself.
  void AdoptTxn(TxnId txn) { txn_stack_.push_back(txn); }

  /// Pop the innermost transaction without committing or aborting it.
  TxnId ReleaseTxn() {
    TxnId txn = current_txn();
    if (!txn_stack_.empty()) txn_stack_.pop_back();
    return txn;
  }

 private:
  Result<Value> DoInvoke(DbObject* obj, const std::string& method,
                         std::vector<Value>* args);

  Status RequireTxn() const {
    return txn_stack_.empty()
               ? Status::FailedPrecondition("no active transaction")
               : Status::OK();
  }

  Database* db_;
  std::vector<TxnId> txn_stack_;
};

}  // namespace reach
