#include "storage/disk_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "testing/fault_points.h"
#include "testing/fault_registry.h"

namespace reach {

namespace {

struct DiskMetrics {
  obs::Histogram* batch_pages;
  obs::Gauge* submit_depth;
  obs::Histogram* complete_ns;

  static DiskMetrics& Instance() {
    static DiskMetrics metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
      return DiskMetrics{reg.histogram(obs::kDiskBatchPages),
                         reg.gauge(obs::kDiskSubmitDepth),
                         reg.histogram(obs::kDiskCompleteNs)};
    }();
    return metrics;
  }
};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Status PreadPage(int fd, PageId page_id, char* out) {
  ssize_t n =
      ::pread(fd, out, kPageSize, static_cast<off_t>(page_id) * kPageSize);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IoError("pread page " + std::to_string(page_id));
  }
  return Status::OK();
}

Status PwritePage(int fd, PageId page_id, const char* data) {
  ssize_t n =
      ::pwrite(fd, data, kPageSize, static_cast<off_t>(page_id) * kPageSize);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IoError("pwrite page " + std::to_string(page_id));
  }
  return Status::OK();
}

}  // namespace

DiskManager::~DiskManager() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<DiskManager>> DiskManager::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::IoError("lseek " + path + ": " + std::strerror(errno));
  }
  if (size % static_cast<off_t>(kPageSize) != 0) {
    ::close(fd);
    return Status::Corruption(path + ": size not a multiple of page size");
  }
  auto pages = static_cast<PageId>(size / static_cast<off_t>(kPageSize));
  return std::unique_ptr<DiskManager>(new DiskManager(path, fd, pages));
}

Status DiskManager::ReadPage(PageId page_id, char* out) {
  REACH_FAULT_POINT(faults::kDiskReadPage);
  if (page_id >= num_pages()) {
    return Status::OutOfRange("read past end: page " +
                              std::to_string(page_id));
  }
  return PreadPage(fd_, page_id, out);
}

Status DiskManager::WritePage(PageId page_id, const char* data) {
  REACH_FAULT_POINT(faults::kDiskWritePage);
  if (page_id >= num_pages()) {
    return Status::OutOfRange("write past end: page " +
                              std::to_string(page_id));
  }
  return PwritePage(fd_, page_id, data);
}

Status DiskManager::ReadPages(const std::vector<PageReadRequest>& batch) {
  // submit/complete fire unconditionally — even for empty batches — so every
  // readahead pass crosses both points.
  REACH_FAULT_POINT(faults::kDiskBackendSubmit);
  Status st;
  if (!batch.empty()) {
    const PageId limit = num_pages();
    for (const PageReadRequest& req : batch) {
      if (req.page >= limit) {
        return Status::OutOfRange("read past end: page " +
                                  std::to_string(req.page));
      }
    }
    DiskMetrics& metrics = DiskMetrics::Instance();
    metrics.batch_pages->Record(batch.size());
    metrics.submit_depth->Set(static_cast<int64_t>(batch.size()));
    const uint64_t start = NowNs();
    for (const PageReadRequest& req : batch) {
      st = PreadPage(fd_, req.page, req.buf);
      if (!st.ok()) break;
    }
    metrics.complete_ns->Record(NowNs() - start);
  }
  REACH_FAULT_POINT(faults::kDiskBackendComplete);
  return st;
}

Status DiskManager::WritePages(
    std::vector<std::pair<PageId, const char*>> batch) {
  REACH_FAULT_POINT(faults::kDiskBackendSubmit);
  Status st;
  if (!batch.empty()) {
    const PageId limit = num_pages();
    for (const auto& [page, data] : batch) {
      if (page >= limit) {
        return Status::OutOfRange("write past end: page " +
                                  std::to_string(page));
      }
    }
    DiskMetrics& metrics = DiskMetrics::Instance();
    metrics.batch_pages->Record(batch.size());
    metrics.submit_depth->Set(static_cast<int64_t>(batch.size()));
    std::sort(batch.begin(), batch.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const uint64_t start = NowNs();
    for (const auto& [page, data] : batch) {
      st = PwritePage(fd_, page, data);
      if (!st.ok()) break;
    }
    metrics.complete_ns->Record(NowNs() - start);
  }
  REACH_FAULT_POINT(faults::kDiskBackendComplete);
  return st;
}

Result<PageId> DiskManager::AllocatePage() {
  REACH_FAULT_POINT(faults::kDiskAllocatePage);
  std::lock_guard<std::mutex> lock(extend_mu_);
  PageId id = num_pages_.load(std::memory_order_relaxed);
  char zeros[kPageSize] = {};
  ssize_t n =
      ::pwrite(fd_, zeros, kPageSize, static_cast<off_t>(id) * kPageSize);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IoError("extend to page " + std::to_string(id));
  }
  num_pages_.store(id + 1, std::memory_order_release);
  return id;
}

Status DiskManager::Sync() {
  REACH_FAULT_POINT(faults::kDiskSync);
  if (::fsync(fd_) != 0) {
    return Status::IoError(std::string("fsync: ") + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace reach
