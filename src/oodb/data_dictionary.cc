#include "oodb/data_dictionary.h"

#include <cstring>

#include "storage/slotted_page.h"

namespace reach {

namespace {
void PutString(std::string* out, const std::string& s) {
  uint32_t len = static_cast<uint32_t>(s.size());
  out->append(reinterpret_cast<const char*>(&len), sizeof(len));
  out->append(s);
}

bool GetString(const std::string& data, size_t* pos, std::string* s) {
  uint32_t len = 0;
  if (*pos + sizeof(len) > data.size()) return false;
  std::memcpy(&len, data.data() + *pos, sizeof(len));
  *pos += sizeof(len);
  if (*pos + len > data.size()) return false;
  s->assign(data.data() + *pos, len);
  *pos += len;
  return true;
}
}  // namespace

Status DataDictionary::Bootstrap(TxnId boot_txn) {
  std::lock_guard<std::mutex> lock(mu_);
  REACH_ASSIGN_OR_RETURN(Oid root, storage_->GetMetaRoot());
  if (root.valid()) {
    root_ = root;
    return Status::OK();
  }
  // First open: create an empty dictionary object.
  std::string bytes;
  uint32_t count = 0;
  bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
  REACH_ASSIGN_OR_RETURN(root_,
                         storage_->objects()->Insert(boot_txn, bytes));
  return storage_->SetMetaRoot(root_);
}

Result<std::vector<std::pair<std::string, Oid>>> DataDictionary::Load() {
  REACH_ASSIGN_OR_RETURN(std::string bytes, storage_->objects()->Read(root_));
  std::vector<std::pair<std::string, Oid>> entries;
  size_t pos = 0;
  uint32_t count = 0;
  if (bytes.size() < sizeof(count)) {
    return Status::Corruption("dictionary: truncated header");
  }
  std::memcpy(&count, bytes.data(), sizeof(count));
  pos += sizeof(count);
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    if (!GetString(bytes, &pos, &name)) {
      return Status::Corruption("dictionary: truncated name");
    }
    if (pos + SlottedPage::kOidEncodedSize > bytes.size()) {
      return Status::Corruption("dictionary: truncated oid");
    }
    Oid oid = SlottedPage::DecodeOid(bytes.data() + pos);
    pos += SlottedPage::kOidEncodedSize;
    entries.emplace_back(std::move(name), oid);
  }
  return entries;
}

Status DataDictionary::Store(
    TxnId txn, const std::vector<std::pair<std::string, Oid>>& entries) {
  std::string bytes;
  uint32_t count = static_cast<uint32_t>(entries.size());
  bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& [name, oid] : entries) {
    PutString(&bytes, name);
    char buf[SlottedPage::kOidEncodedSize];
    SlottedPage::EncodeOid(oid, buf);
    bytes.append(buf, sizeof(buf));
  }
  return storage_->objects()->Update(txn, root_, bytes);
}

Status DataDictionary::Bind(TxnId txn, const std::string& name,
                            const Oid& oid) {
  // Before mu_: waiting here must not block other transactions' Lookups.
  REACH_RETURN_IF_ERROR(locks_->Acquire(txn, root_, LockMode::kExclusive));
  std::lock_guard<std::mutex> lock(mu_);
  REACH_ASSIGN_OR_RETURN(auto entries, Load());
  for (const auto& [n, _] : entries) {
    if (n == name) return Status::AlreadyExists("name " + name);
  }
  entries.emplace_back(name, oid);
  return Store(txn, entries);
}

Status DataDictionary::Rebind(TxnId txn, const std::string& name,
                              const Oid& oid) {
  REACH_RETURN_IF_ERROR(locks_->Acquire(txn, root_, LockMode::kExclusive));
  std::lock_guard<std::mutex> lock(mu_);
  REACH_ASSIGN_OR_RETURN(auto entries, Load());
  for (auto& [n, o] : entries) {
    if (n == name) {
      o = oid;
      return Store(txn, entries);
    }
  }
  entries.emplace_back(name, oid);
  return Store(txn, entries);
}

Result<Oid> DataDictionary::Lookup(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  REACH_ASSIGN_OR_RETURN(auto entries, Load());
  for (const auto& [n, oid] : entries) {
    if (n == name) return oid;
  }
  return Status::NotFound("name " + name);
}

Status DataDictionary::Unbind(TxnId txn, const std::string& name) {
  REACH_RETURN_IF_ERROR(locks_->Acquire(txn, root_, LockMode::kExclusive));
  std::lock_guard<std::mutex> lock(mu_);
  REACH_ASSIGN_OR_RETURN(auto entries, Load());
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].first == name) {
      entries.erase(entries.begin() + i);
      return Store(txn, entries);
    }
  }
  return Status::NotFound("name " + name);
}

Result<std::vector<std::string>> DataDictionary::Names() {
  std::lock_guard<std::mutex> lock(mu_);
  REACH_ASSIGN_OR_RETURN(auto entries, Load());
  std::vector<std::string> names;
  names.reserve(entries.size());
  for (const auto& [n, _] : entries) names.push_back(n);
  return names;
}

}  // namespace reach
