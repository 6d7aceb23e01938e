// Shared test helpers.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/storage_manager.h"

namespace reach::testing {

/// Append a commit record for `txn` and wait for it to become durable —
/// what TransactionManager::Commit does at its durability point. Tests that
/// drive StorageManager directly use this before simulating a crash.
inline Status DurableLogCommit(StorageManager* sm, TxnId txn) {
  auto lsn = sm->LogCommit(txn);
  if (!lsn.ok()) return lsn.status();
  return sm->wal()->WaitDurable(*lsn);
}

/// Collect every record Wal::Scan visits, decoding through a read window of
/// `window_bytes`.
inline Status ScanRecords(Wal* wal, std::vector<WalRecord>* out,
                          size_t window_bytes = Wal::kScanWindowBytes) {
  return wal->Scan(
      [out](WalRecord& rec) {
        out->push_back(std::move(rec));
        return Status::OK();
      },
      window_bytes);
}

/// Unique scratch directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    auto base = std::filesystem::temp_directory_path() / "reach_test_XXXXXX";
    std::string tmpl = base.string();
    char* made = ::mkdtemp(tmpl.data());
    path_ = made != nullptr ? made : base.string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  /// Path for a database file base inside the directory.
  std::string DbPath(const std::string& name = "db") const {
    return (std::filesystem::path(path_) / name).string();
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace reach::testing
