// Page-granular file I/O. One database = one data file + one WAL file,
// managed by DiskManager and Wal respectively. Every call runs pread/pwrite
// synchronously on the calling thread; the batched ReadPages/WritePages
// entry points range-check the whole batch before touching the file.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"

namespace reach {

/// One page-granular read: fill `buf` (kPageSize bytes) from `page`.
struct PageReadRequest {
  PageId page = kInvalidPageId;
  char* buf = nullptr;
};

class DiskManager {
 public:
  ~DiskManager();

  /// Open (creating if necessary) the data file at `path`.
  static Result<std::unique_ptr<DiskManager>> Open(const std::string& path);

  Status ReadPage(PageId page_id, char* out);
  Status WritePage(PageId page_id, const char* data);

  /// Read every page in `batch` (readahead for ObjectStore::ScanAll), in
  /// batch order. A member past the end fails the whole batch with
  /// OutOfRange before any page is read; otherwise the first I/O error
  /// wins. Fires disk.backend.{submit,complete} even when empty.
  Status ReadPages(const std::vector<PageReadRequest>& batch);

  /// Write every (page, frame-image) pair in `batch` (BufferPool::FlushAll
  /// / checkpoint) in ascending page order. A member past the end fails the
  /// whole batch with OutOfRange before any page is written. Buffers must
  /// stay valid for the duration of the call.
  Status WritePages(std::vector<std::pair<PageId, const char*>> batch);

  /// Extend the file by one page and return its id.
  Result<PageId> AllocatePage();

  /// Flush OS buffers to stable storage.
  Status Sync();

  PageId num_pages() const {
    return num_pages_.load(std::memory_order_acquire);
  }

  const std::string& path() const { return path_; }

 private:
  DiskManager(std::string path, int fd, PageId num_pages)
      : path_(std::move(path)), fd_(fd), num_pages_(num_pages) {}

  std::string path_;
  int fd_ = -1;
  std::mutex extend_mu_;  // serializes AllocatePage file extension
  std::atomic<PageId> num_pages_{0};
};

}  // namespace reach
