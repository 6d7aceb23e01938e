// Shared test helpers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
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

/// Run `fn` on its own thread. A run still going after `limit` ends the
/// whole test binary with a failure instead of hanging it: the stuck
/// thread cannot be joined, and nothing it holds can be torn down.
inline void RunBounded(const std::function<void()>& fn,
                       std::chrono::seconds limit) {
  std::atomic<bool> done{false};
  std::thread runner([&] {
    fn();
    done = true;
  });
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!done) {
    std::fprintf(stderr, "FAILED: still running after %lld s\n",
                 static_cast<long long>(limit.count()));
    std::fflush(stderr);
    std::_Exit(1);
  }
  runner.join();
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
