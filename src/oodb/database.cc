#include "oodb/database.h"

namespace reach {

void Database::TxnEventBridge::OnBegin(TxnId txn, TxnId parent) {
  SentryEvent ev;
  ev.kind = SentryKind::kTxnBegin;
  ev.txn = txn;
  ev.timestamp = db_->clock()->Now();
  if (parent != kNoTxn) ev.args.push_back(Value(static_cast<int64_t>(parent)));
  db_->bus_.Announce(ev);
}

void Database::TxnEventBridge::OnCommit(TxnId txn) {
  SentryEvent ev;
  ev.kind = SentryKind::kTxnCommit;
  ev.txn = txn;
  ev.timestamp = db_->clock()->Now();
  db_->bus_.Announce(ev);
}

void Database::TxnEventBridge::OnAbort(TxnId txn) {
  SentryEvent ev;
  ev.kind = SentryKind::kTxnAbort;
  ev.txn = txn;
  ev.timestamp = db_->clock()->Now();
  db_->bus_.Announce(ev);
}

Database::~Database() {
  if (txns_ && txn_bridge_) txns_->RemoveListener(txn_bridge_.get());
}

Result<std::unique_ptr<Database>> Database::Open(
    const std::string& base_path, const DatabaseOptions& options) {
  auto db = std::unique_ptr<Database>(new Database());
  if (options.clock != nullptr) {
    db->clock_ = options.clock;
  } else {
    db->owned_clock_ = std::make_unique<RealClock>();
    db->clock_ = db->owned_clock_.get();
  }
  REACH_ASSIGN_OR_RETURN(db->storage_,
                         StorageManager::Open(base_path, options.storage));
  db->txns_ = std::make_unique<TransactionManager>(db->storage_.get());
  db->dictionary_ = std::make_unique<DataDictionary>(db->storage_.get(),
                                                    db->txns_->locks());

  // Dictionary bootstrap runs in its own transaction.
  REACH_ASSIGN_OR_RETURN(TxnId boot, db->txns_->Begin());
  Status st = db->dictionary_->Bootstrap(boot);
  if (!st.ok()) {
    (void)db->txns_->Abort(boot);
    return st;
  }
  REACH_RETURN_IF_ERROR(db->txns_->Commit(boot));

  db->persistence_ = std::make_unique<PersistencePm>(
      db->storage_.get(), db->txns_.get(), db->dictionary_.get(),
      &db->types_, &db->bus_);
  db->change_ = std::make_unique<ChangePm>(&db->bus_, db->txns_.get());
  db->indexing_ = std::make_unique<IndexingPm>(
      &db->bus_, db->txns_.get(), &db->types_, db->persistence_.get());
  db->txn_bridge_ = std::make_unique<TxnEventBridge>(db.get());
  db->txns_->AddListener(db->txn_bridge_.get());
  return db;
}

}  // namespace reach
