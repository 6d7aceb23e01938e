#include "oodb/session.h"

#include <algorithm>

#include "obs/metrics.h"

namespace reach {

Session::~Session() { (void)AbortAll(); }

Status Session::Begin() {
  REACH_ASSIGN_OR_RETURN(TxnId txn, db_->txns()->Begin(current_txn()));
  txn_stack_.push_back(txn);
  return Status::OK();
}

Status Session::Commit() {
  REACH_RETURN_IF_ERROR(RequireTxn());
  TxnId txn = txn_stack_.back();
  txn_stack_.pop_back();
  Status st = db_->txns()->Commit(txn);
  // Failed commit implies rollback. Most failures (dependency misses,
  // pre-commit hooks) abort inside the transaction manager, but an early
  // failure (e.g. a log I/O error before the state change) can leave the
  // transaction active and still holding locks — roll it back here rather
  // than leak a lock-holding orphan that blocks later transactions.
  if (!st.ok() && db_->txns()->IsActive(txn)) {
    Status abort_st = db_->txns()->Abort(txn);
    (void)abort_st;
  }
  return st;
}

Status Session::Abort() {
  REACH_RETURN_IF_ERROR(RequireTxn());
  TxnId txn = txn_stack_.back();
  txn_stack_.pop_back();
  return db_->txns()->Abort(txn);
}

Status Session::AbortAll() {
  Status first = Status::OK();
  while (!txn_stack_.empty()) {
    TxnId txn = txn_stack_.back();
    txn_stack_.pop_back();
    if (db_->txns()->IsActive(txn)) {
      Status st = db_->txns()->Abort(txn);
      if (first.ok() && !st.ok()) first = st;
    }
  }
  return first;
}

Status Session::InTxn(const std::function<Status(Session&)>& fn) {
  REACH_RETURN_IF_ERROR(Begin());
  Status st = fn(*this);
  if (!st.ok()) {
    Status abort_st = Abort();
    (void)abort_st;
    return st;
  }
  return Commit();
}

Result<DbObject> Session::New(const std::string& class_name) {
  return DbObject::Create(*db_->types(), class_name);
}

Result<Oid> Session::Persist(DbObject* obj) {
  REACH_RETURN_IF_ERROR(RequireTxn());
  return db_->persistence()->Persist(current_txn(), obj);
}

Result<Oid> Session::PersistNew(
    const std::string& class_name,
    std::vector<std::pair<std::string, Value>> attrs) {
  REACH_ASSIGN_OR_RETURN(DbObject obj, New(class_name));
  for (auto& [name, value] : attrs) {
    if (db_->types()->ResolveAttribute(class_name, name) == nullptr) {
      return Status::NotFound("attribute " + class_name + "." + name);
    }
    obj.Set(name, std::move(value));
  }
  return Persist(&obj);
}

Result<std::shared_ptr<DbObject>> Session::Fetch(const Oid& oid) {
  REACH_RETURN_IF_ERROR(RequireTxn());
  REACH_ASSIGN_OR_RETURN(DbObject obj,
                         db_->persistence()->Fetch(current_txn(), oid));
  return std::make_shared<DbObject>(std::move(obj));
}

Result<std::shared_ptr<DbObject>> Session::FetchByName(
    const std::string& name) {
  REACH_ASSIGN_OR_RETURN(Oid oid, Lookup(name));
  return Fetch(oid);
}

Status Session::Delete(const Oid& oid) {
  REACH_RETURN_IF_ERROR(RequireTxn());
  return db_->persistence()->Delete(current_txn(), oid);
}

Status Session::Bind(const std::string& name, const Oid& oid) {
  REACH_RETURN_IF_ERROR(RequireTxn());
  return db_->dictionary()->Bind(current_txn(), name, oid);
}

Result<Oid> Session::Lookup(const std::string& name) {
  return db_->dictionary()->Lookup(name);
}

Status Session::Unbind(const std::string& name) {
  REACH_RETURN_IF_ERROR(RequireTxn());
  return db_->dictionary()->Unbind(current_txn(), name);
}

Status Session::SetAttr(const Oid& oid, const std::string& attr,
                        Value value) {
  REACH_RETURN_IF_ERROR(RequireTxn());
  // One locked read-modify-write (extent IX, then object X): the encoded
  // value is replaced in a copy of the record, and the copy written
  // through.
  std::string class_name;
  Result<Value> old = Value();
  REACH_RETURN_IF_ERROR(db_->persistence()->Update(
      current_txn(), oid,
      [&](const RecordView& view) -> Result<std::string> {
        class_name = view.class_name();
        if (db_->types()->ResolveAttribute(class_name, attr) == nullptr) {
          return Status::NotFound("attribute " + class_name + "." + attr);
        }
        old = view.Get(attr);
        if (!old.ok() && !old.status().IsNotFound()) return old.status();
        return view.With(attr, value);
      }));

  if (db_->bus()->Monitored(SentryKind::kStateChange, class_name, attr)) {
    SentryEvent ev;
    ev.detect_ns = obs::NowNanosIfEnabled();
    ev.kind = SentryKind::kStateChange;
    ev.class_name = class_name;
    ev.member = attr;
    ev.oid = oid;
    ev.txn = current_txn();
    ev.timestamp = db_->clock()->Now();
    ev.args = {old.value_or(Value()), std::move(value)};
    db_->bus()->Announce(ev);
  }
  return Status::OK();
}

Result<Value> Session::GetAttr(const Oid& oid, const std::string& attr) {
  REACH_RETURN_IF_ERROR(RequireTxn());
  REACH_ASSIGN_OR_RETURN(std::string record,
                         db_->persistence()->Load(current_txn(), oid));
  REACH_ASSIGN_OR_RETURN(RecordView view, RecordView::Parse(record));
  Result<Value> v = view.Get(attr);
  // An attribute the record does not carry reads as null.
  if (!v.ok() && v.status().IsNotFound()) return Value();
  return v;
}

Result<Value> Session::DoInvoke(DbObject* obj, const std::string& method,
                                std::vector<Value>* args) {
  const MethodDescriptor* m =
      db_->types()->ResolveMethod(obj->class_name(), method);
  if (m == nullptr) {
    return Status::NotFound("method " + obj->class_name() + "::" + method);
  }
  bool before = db_->bus()->Monitored(SentryKind::kMethodBefore,
                                      obj->class_name(), method);
  bool after = db_->bus()->Monitored(SentryKind::kMethodAfter,
                                     obj->class_name(), method);
  SentryEvent ev;
  if (before || after) {
    ev.detect_ns = obs::NowNanosIfEnabled();
    ev.class_name = obj->class_name();
    ev.member = method;
    ev.oid = obj->oid();
    ev.txn = current_txn();
    ev.args = *args;
  }
  if (before) {
    ev.kind = SentryKind::kMethodBefore;
    ev.timestamp = db_->clock()->Now();
    db_->bus()->Announce(ev);
  }
  REACH_ASSIGN_OR_RETURN(Value result, m->impl(*this, *obj, *args));
  if (after) {
    ev.kind = SentryKind::kMethodAfter;
    ev.timestamp = db_->clock()->Now();
    // Detection of the after-event is now, not before the method body ran.
    ev.detect_ns = obs::NowNanosIfEnabled();
    ev.result = result;
    db_->bus()->Announce(ev);
  }
  return result;
}

Result<Value> Session::Invoke(const Oid& oid, const std::string& method,
                              std::vector<Value> args) {
  REACH_RETURN_IF_ERROR(RequireTxn());
  // A fresh copy: method bodies change the object through SetAttr
  // (sentried), never through what they were handed.
  REACH_ASSIGN_OR_RETURN(DbObject obj,
                         db_->persistence()->Fetch(current_txn(), oid));
  return DoInvoke(&obj, method, &args);
}

Result<Value> Session::Invoke(DbObject* obj, const std::string& method,
                              std::vector<Value> args) {
  return DoInvoke(obj, method, &args);
}

Result<std::vector<Oid>> Session::Extent(const std::string& class_name,
                                         bool include_subclasses) {
  REACH_RETURN_IF_ERROR(RequireTxn());
  std::vector<Oid> out;
  std::vector<std::string> classes =
      include_subclasses ? db_->types()->SelfAndSubclasses(class_name)
                         : std::vector<std::string>{class_name};
  for (const std::string& cls : classes) {
    REACH_ASSIGN_OR_RETURN(std::vector<Oid> part,
                           db_->persistence()->Extent(current_txn(), cls));
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

Result<std::vector<Session::ExtentMorsel>> Session::ExtentMorsels(
    const std::string& class_name, size_t morsel_pages,
    bool include_subclasses) {
  REACH_RETURN_IF_ERROR(RequireTxn());
  if (morsel_pages == 0) morsel_pages = 1;
  std::vector<PageId> pages;
  std::vector<std::string> classes =
      include_subclasses ? db_->types()->SelfAndSubclasses(class_name)
                         : std::vector<std::string>{class_name};
  for (const std::string& cls : classes) {
    REACH_ASSIGN_OR_RETURN(
        std::vector<PageId> part,
        db_->persistence()->ExtentPages(current_txn(), cls));
    pages.insert(pages.end(), part.begin(), part.end());
  }
  // Each page has one owner, so sorting the union keeps page order (and
  // with it Oid order) across a class and its subclasses.
  std::sort(pages.begin(), pages.end());
  std::vector<ExtentMorsel> morsels;
  for (size_t i = 0; i < pages.size(); i += morsel_pages) {
    morsels.emplace_back(
        pages.begin() + i,
        pages.begin() + std::min(pages.size(), i + morsel_pages));
  }
  return morsels;
}

}  // namespace reach
