#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "testing/fault_points.h"
#include "testing/fault_registry.h"

namespace reach {

namespace {

/// Registry handles resolved once; recording through them is lock-free.
struct WalMetrics {
  obs::Counter* appends;
  obs::Counter* fsyncs;
  obs::Counter* flushed_bytes;
  obs::Counter* fsync_saved;
  obs::Histogram* fsync_ns;
  obs::Histogram* group_size;
  obs::Histogram* group_wait_ns;

  static const WalMetrics& Get() {
    static const WalMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
      return WalMetrics{reg.counter(obs::kWalAppendCount),
                        reg.counter(obs::kWalFsyncCount),
                        reg.counter(obs::kWalFlushedBytes),
                        reg.counter(obs::kWalFsyncSaved),
                        reg.histogram(obs::kWalFsyncNs),
                        reg.histogram(obs::kWalGroupSize),
                        reg.histogram(obs::kWalGroupWaitNs)};
    }();
    return m;
  }
};

/// Frame checksum over a record body: eight bytes per step, each step
/// `h = (h ^ word) * odd` then a xorshift, seeded with the length so a
/// changed length changes the sum. Both halves of a step are bijections, so
/// any change to one word changes the 64-bit state for good; the fold to 32
/// bits is the only place two bodies can collide.
uint32_t FrameChecksum(const char* data, size_t len) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  uint64_t h = (uint64_t{len} + 1) * kMul;
  auto step = [&h](uint64_t word) {
    h = (h ^ word) * kMul;
    h ^= h >> 29;
  };
  size_t i = 0;
  for (; i + sizeof(uint64_t) <= len; i += sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, data + i, sizeof(word));
    step(word);
  }
  if (i < len) {
    uint64_t word = 0;
    std::memcpy(&word, data + i, len - i);
    step(word);
  }
  h *= kMul;
  return static_cast<uint32_t>(h >> 32) ^ static_cast<uint32_t>(h);
}

template <typename T>
void PutScalar(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool GetScalar(const char* data, size_t len, size_t* pos, T* v) {
  if (*pos + sizeof(T) > len) return false;
  std::memcpy(v, data + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

void PutImage(std::string* out, const WalCellImage& img) {
  PutScalar<uint16_t>(out, img.flag);
  PutScalar<uint16_t>(out, img.generation);
  PutScalar<uint32_t>(out, static_cast<uint32_t>(img.bytes.size()));
  out->append(img.bytes);
}

bool GetImage(const char* data, size_t len, size_t* pos, WalCellImage* img) {
  uint32_t n = 0;
  if (!GetScalar(data, len, pos, &img->flag)) return false;
  if (!GetScalar(data, len, pos, &img->generation)) return false;
  if (!GetScalar(data, len, pos, &n)) return false;
  if (*pos + n > len) return false;
  img->bytes.assign(data + *pos, n);
  *pos += n;
  return true;
}

}  // namespace

Wal::~Wal() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  durable_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                       const WalOptions& options) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  auto wal = std::unique_ptr<Wal>(new Wal(path, fd, options));
  // Restore next_lsn from the existing log tail; everything already in the
  // file is durable as far as this process can know.
  Lsn next = 1;
  REACH_RETURN_IF_ERROR(wal->Scan(WalTypeSet{}, [&next](WalRecord& r) {
    next = std::max(next, r.lsn + 1);
    return Status::OK();
  }));
  wal->next_lsn_ = next;
  wal->durable_lsn_.store(next - 1, std::memory_order_release);
  if (options.group_commit) {
    wal->flusher_ = std::thread(&Wal::FlusherLoop, wal.get());
  }
  return wal;
}

void Wal::EncodeRecord(const WalRecord& rec, Lsn lsn, std::string* out) {
  const size_t frame = out->size();
  PutScalar<uint32_t>(out, 0);  // body_len, known once the body is in
  PutScalar<uint8_t>(out, static_cast<uint8_t>(rec.type));
  PutScalar<uint64_t>(out, lsn);
  PutScalar<uint64_t>(out, rec.txn);
  if (rec.type == WalRecordType::kPhysical) {
    PutScalar<uint32_t>(out, rec.page);
    PutScalar<uint16_t>(out, rec.slot);
    PutImage(out, rec.before);
    PutImage(out, rec.after);
  } else if (rec.type == WalRecordType::kPageFormat) {
    PutScalar<uint32_t>(out, rec.page);
    PutScalar<uint32_t>(out, rec.owner.page);
    PutScalar<uint16_t>(out, rec.owner.slot);
    PutScalar<uint16_t>(out, rec.owner.generation);
  } else if (IsEventRecord(rec.type)) {
    PutScalar<uint32_t>(out, static_cast<uint32_t>(rec.payload.size()));
    out->append(rec.payload);
  }
  const size_t body = frame + sizeof(uint32_t);
  const auto body_len = static_cast<uint32_t>(out->size() - body);
  std::memcpy(out->data() + frame, &body_len, sizeof(body_len));
  PutScalar<uint32_t>(out, FrameChecksum(out->data() + body, body_len));
}

bool Wal::DecodeRecord(const char* data, size_t len, WalTypeSet bodies,
                       size_t* consumed, WalRecord* out) {
  size_t pos = 0;
  uint32_t body_len = 0;
  if (!GetScalar(data, len, &pos, &body_len)) return false;
  if (pos + body_len + sizeof(uint32_t) > len) return false;
  const char* body = data + pos;
  uint32_t sum_stored = 0;
  size_t sum_pos = pos + body_len;
  if (!GetScalar(data, len, &sum_pos, &sum_stored)) return false;
  if (FrameChecksum(body, body_len) != sum_stored) return false;

  size_t bpos = 0;
  uint8_t type = 0;
  uint64_t lsn = 0, txn = 0;
  if (!GetScalar(body, body_len, &bpos, &type)) return false;
  if (!GetScalar(body, body_len, &bpos, &lsn)) return false;
  if (!GetScalar(body, body_len, &bpos, &txn)) return false;
  out->type = static_cast<WalRecordType>(type);
  out->lsn = lsn;
  out->txn = txn;
  *consumed = pos + body_len + sizeof(uint32_t);
  if (!bodies.contains(out->type)) return true;
  if (out->type == WalRecordType::kPhysical) {
    uint32_t page = 0;
    uint16_t slot = 0;
    if (!GetScalar(body, body_len, &bpos, &page)) return false;
    if (!GetScalar(body, body_len, &bpos, &slot)) return false;
    out->page = page;
    out->slot = slot;
    if (!GetImage(body, body_len, &bpos, &out->before)) return false;
    if (!GetImage(body, body_len, &bpos, &out->after)) return false;
  } else if (out->type == WalRecordType::kPageFormat) {
    uint32_t page = 0, owner_page = 0;
    uint16_t owner_slot = 0, owner_gen = 0;
    if (!GetScalar(body, body_len, &bpos, &page)) return false;
    if (!GetScalar(body, body_len, &bpos, &owner_page)) return false;
    if (!GetScalar(body, body_len, &bpos, &owner_slot)) return false;
    if (!GetScalar(body, body_len, &bpos, &owner_gen)) return false;
    out->page = page;
    out->owner = Oid{owner_page, owner_slot, owner_gen};
  } else if (IsEventRecord(out->type)) {
    uint32_t n = 0;
    if (!GetScalar(body, body_len, &bpos, &n)) return false;
    if (bpos + n > body_len) return false;
    out->payload.assign(body + bpos, n);
  }
  return true;
}

Result<Lsn> Wal::Append(const WalRecord& record) {
  REACH_FAULT_POINT(faults::kWalAppend);
  std::lock_guard<std::mutex> lock(mu_);
  if (!crash_point_.empty()) throw FaultInjectedCrash(crash_point_);
  const Lsn lsn = next_lsn_++;
  EncodeRecord(record, lsn, &buffer_);
  ++buffer_count_;
  WalMetrics::Get().appends->Inc();
  return lsn;
}

Status Wal::WriteAndSync(const std::string& data, bool* wrote) {
  *wrote = data.empty();
  if (!data.empty()) {
    // Crash here: the buffered records are lost entirely.
    REACH_FAULT_POINT(faults::kWalFlushWrite);
    ssize_t n = ::write(fd_, data.data(), data.size());
    if (n != static_cast<ssize_t>(data.size())) {
      return Status::IoError("wal write");
    }
    *wrote = true;
    WalMetrics::Get().flushed_bytes->Inc(data.size());
  }
  // Crash here: records reached the file but were never fsynced (with no OS
  // crash behind it they still replay — the durability-uncertain window).
  REACH_FAULT_POINT(faults::kWalFlushFsync);
  {
    obs::ScopedLatencyTimer timer(WalMetrics::Get().fsync_ns);
    if (::fsync(fd_) != 0) {
      return Status::IoError(std::string("wal fsync: ") +
                             std::strerror(errno));
    }
  }
  WalMetrics::Get().fsyncs->Inc();
  return Status::OK();
}

Status Wal::Flush() {
  Lsn target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!crash_point_.empty()) throw FaultInjectedCrash(crash_point_);
    if (!options_.group_commit) {
      bool wrote = false;
      Status st = WriteAndSync(buffer_, &wrote);
      if (wrote) {
        buffer_.clear();
        buffer_count_ = 0;
      }
      if (st.ok()) {
        durable_lsn_.store(next_lsn_ - 1, std::memory_order_release);
      }
      return st;
    }
    target = next_lsn_ - 1;
  }
  return WaitDurable(target);
}

Status Wal::WaitDurable(Lsn lsn) {
  if (lsn <= durable_lsn_.load(std::memory_order_acquire)) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  if (!options_.group_commit) {
    // Inline mode: flush everything appended so far, which covers `lsn`.
    lock.unlock();
    return Flush();
  }
  if (!crash_point_.empty()) throw FaultInjectedCrash(crash_point_);
  if (lsn >= next_lsn_) lsn = next_lsn_ - 1;  // clamp to appended records
  if (lsn <= durable_lsn_.load(std::memory_order_relaxed)) return Status::OK();

  const uint64_t wait_start = obs::NowNanosIfEnabled();
  auto it = wait_targets_.insert(lsn);
  uint64_t seen_fail_seq = flush_fail_seq_;
  work_cv_.notify_one();
  Status result;
  for (;;) {
    if (!crash_point_.empty()) {
      wait_targets_.erase(it);
      throw FaultInjectedCrash(crash_point_);
    }
    if (durable_lsn_.load(std::memory_order_relaxed) >= lsn) break;
    if (flush_fail_seq_ != seen_fail_seq) {
      seen_fail_seq = flush_fail_seq_;
      if (flush_fail_upto_ >= lsn) {
        // The attempt that covered this LSN failed: every waiter of the
        // batch takes the same status.
        result = flush_fail_status_;
        break;
      }
    }
    if (stop_) {
      result = Status::Aborted("wal closed");
      break;
    }
    durable_cv_.wait(lock);
  }
  wait_targets_.erase(it);
  if (wait_start != 0) {
    WalMetrics::Get().group_wait_ns->RecordAlways(obs::NowNanos() -
                                                  wait_start);
  }
  return result;
}

void Wal::FlusherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || HasPendingWork(); });
    if (stop_) return;
    std::string batch;
    batch.swap(buffer_);
    const size_t batch_records = buffer_count_;
    buffer_count_ = 0;
    const Lsn target = next_lsn_ - 1;
    io_in_flight_ = true;
    lock.unlock();

    Status st;
    bool wrote = false;
    bool crashed = false;
    std::string crash_at;
    try {
      st = REACH_FAULT_HIT(faults::kWalFlusherBatch);
      if (st.ok()) st = WriteAndSync(batch, &wrote);
    } catch (const FaultInjectedCrash& crash) {
      crashed = true;
      crash_at = crash.point();
    }

    lock.lock();
    io_in_flight_ = false;
    if (crashed) {
      // Simulated process death (see fault_registry.h: a crash escaping a
      // background thread would terminate for real). Park the dead WAL;
      // WaitDurable/Append/Flush rethrow on the committer threads.
      crash_point_ = crash_at;
      durable_cv_.notify_all();
      return;
    }
    if (st.ok()) {
      if (target > durable_lsn_.load(std::memory_order_relaxed)) {
        durable_lsn_.store(target, std::memory_order_release);
      }
      const auto& m = WalMetrics::Get();
      size_t released = static_cast<size_t>(std::distance(
          wait_targets_.begin(), wait_targets_.upper_bound(target)));
      m.group_size->Record(static_cast<uint64_t>(released));
      if (released > 1) m.fsync_saved->Inc(released - 1);
    } else {
      if (!wrote && !batch.empty()) {
        // The records never reached the file: restore them (in order) so a
        // later flush retries the whole batch.
        buffer_.insert(0, batch);
        buffer_count_ += batch_records;
      }
      ++flush_fail_seq_;
      flush_fail_status_ = st;
      flush_fail_upto_ = target;
    }
    durable_cv_.notify_all();
  }
}

void Wal::EnsureNextLsnAtLeast(Lsn floor) {
  std::lock_guard<std::mutex> lock(mu_);
  if (next_lsn_ < floor) {
    // Everything-durable stays everything-durable: the skipped LSNs have no
    // records, so raising the watermark with the counter avoids a useless
    // fsync-only batch on the next Flush.
    if (durable_lsn_.load(std::memory_order_relaxed) == next_lsn_ - 1) {
      durable_lsn_.store(floor - 1, std::memory_order_release);
    }
    next_lsn_ = floor;
  }
}

Status Wal::Scan(WalTypeSet bodies, const ScanVisitor& visit,
                 size_t window_bytes) {
  uint64_t file_size = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    durable_cv_.wait(lock, [this] { return !io_in_flight_; });
    off_t size = ::lseek(fd_, 0, SEEK_END);
    if (size < 0) return Status::IoError("wal lseek");
    file_size = static_cast<uint64_t>(size);
  }
  // Bytes [0, file_size) stay put without the lock: the flusher only
  // appends past them, and Truncate never overlaps a scan.
  std::string window;     // undecoded file bytes end at read_off
  size_t pos = 0;         // next record's offset in window
  uint64_t read_off = 0;  // next file offset to read
  for (;;) {
    // A record is framed as [u32 body_len][body][u32 checksum].
    const size_t avail = window.size() - pos;
    size_t need = sizeof(uint32_t);
    if (avail >= sizeof(uint32_t)) {
      uint32_t body_len = 0;
      std::memcpy(&body_len, window.data() + pos, sizeof(body_len));
      need = sizeof(uint32_t) + size_t{body_len} + sizeof(uint32_t);
    }
    if (avail < need) {
      const uint64_t left = file_size - read_off;
      // Torn tail: the file ends inside this record.
      if (avail + left < need) break;
      // Slide the partial record to the front, then refill to one window,
      // or to the record's declared length when that is larger.
      window.erase(0, pos);
      pos = 0;
      const size_t fill = static_cast<size_t>(std::min<uint64_t>(
          left, std::max(window_bytes, need) - window.size()));
      const size_t old = window.size();
      window.resize(old + fill);
      ssize_t n = ::pread(fd_, window.data() + old, fill,
                          static_cast<off_t>(read_off));
      if (n != static_cast<ssize_t>(fill)) return Status::IoError("wal read");
      read_off += fill;
      continue;
    }
    WalRecord rec;
    size_t consumed = 0;
    // A bad checksum ends the log like a torn tail: stop at the last good
    // record.
    if (!DecodeRecord(window.data() + pos, avail, bodies, &consumed, &rec)) {
      break;
    }
    pos += consumed;
    REACH_RETURN_IF_ERROR(visit(rec));
  }
  return Status::OK();
}

Status Wal::Truncate() {
  REACH_FAULT_POINT(faults::kWalTruncate);
  std::unique_lock<std::mutex> lock(mu_);
  durable_cv_.wait(lock, [this] { return !io_in_flight_; });
  buffer_.clear();
  buffer_count_ = 0;
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IoError(std::string("wal truncate: ") +
                           std::strerror(errno));
  }
  if (::fsync(fd_) != 0) return Status::IoError("wal fsync");
  // An empty log is trivially durable up to the last assigned LSN; release
  // any waiter whose records the checkpoint just made redundant.
  durable_lsn_.store(next_lsn_ - 1, std::memory_order_release);
  durable_cv_.notify_all();
  return Status::OK();
}

}  // namespace reach
