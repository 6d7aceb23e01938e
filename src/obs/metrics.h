// Low-overhead process-wide metrics. A MetricsRegistry (mirroring the
// FaultRegistry pattern from src/testing/) owns named counters, gauges, and
// sharded atomic histograms; components cache stable pointers at
// construction and record through them on hot paths.
//
// Overhead when disabled: every Record/Inc first consults a process-wide
// relaxed atomic bool (MetricsEnabled) and returns — the same bar
// REACH_FAULT_POINT sets for disabled fault injection, pinned by
// bench_obs_overhead. When enabled, counters are one relaxed fetch_add and
// histogram recording is two relaxed fetch_adds plus a CAS-free max update
// into a per-thread shard (no locks, no allocation).
//
// Enable programmatically (MetricsRegistry::Instance().SetEnabled(true)) or
// via the REACH_METRICS environment variable (grammar in
// docs/OBSERVABILITY.md): "on" enables, "dump=<path>" additionally writes
// SnapshotJson() to <path> at process exit.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"

namespace reach::obs {

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// Fast global gate: one relaxed load. All recording is a no-op when false.
inline bool MetricsEnabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Monotonic nanoseconds for span/latency measurement. Metrics measure
/// real elapsed time (steady_clock), independent of the logical Clock that
/// drives temporal events.
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// NowNanos() when metrics are on, 0 otherwise — the idiom for stamping
/// origin timestamps (0 = "not measured") without paying for the clock read
/// in the disabled case.
inline uint64_t NowNanosIfEnabled() {
  return MetricsEnabled() ? NowNanos() : 0;
}

class Counter {
 public:
  void Inc(uint64_t n = 1) {
    if (!MetricsEnabled()) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Unconditional add (callers that already checked the gate).
  void IncAlways(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  void Set(int64_t v) {
    if (!MetricsEnabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t n) {
    if (!MetricsEnabled()) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Point-in-time aggregation of one histogram (see Histogram::Snapshot).
/// Percentiles are lower-bound estimates: exact for values < 8, within
/// one sub-bucket (≤ 12.5% relative error) above that. `max` is exact.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::vector<uint64_t> buckets;  // aggregated per-bucket counts

  /// Smallest recorded-value lower bound v such that at least p percent of
  /// recordings were <= bucket(v). p in (0, 100]. Returns 0 when empty.
  uint64_t ValueAtPercentile(double p) const;
  double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) /
                                                      static_cast<double>(count); }
};

/// Lock-free histogram with exponential buckets (8 linear sub-buckets per
/// power of two) sharded over threads to keep concurrent recording off a
/// single cache line. Value domain: uint64 (nanoseconds, bytes, counts).
class Histogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr int kSubBuckets = 1 << kSubBits;  // 8
  // Index 0..7 exact; octave o >= 1 covers [8<<(o-1), 16<<(o-1)).
  static constexpr size_t kNumBuckets = (64 - kSubBits + 1) * kSubBuckets;
  static constexpr size_t kShards = 8;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    if (!MetricsEnabled()) return;
    RecordAlways(value);
  }
  void RecordAlways(uint64_t value);

  /// Aggregate all shards. Safe while other threads record (relaxed reads;
  /// the snapshot is a consistent-enough view, never torn per counter).
  HistogramSnapshot Snapshot() const;

  void Reset();

  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketLowerBound(size_t index);

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kNumBuckets] = {};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  Shard shards_[kShards];
};

/// Records elapsed nanoseconds into `hist` on destruction. When metrics are
/// disabled at construction the clock is never read and the destructor is a
/// no-op (start_ == 0).
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* hist)
      : hist_(hist), start_(NowNanosIfEnabled()) {}
  ~ScopedLatencyTimer() {
    if (start_ != 0) hist_->RecordAlways(NowNanos() - start_);
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram* hist_;
  uint64_t start_;
};

/// A parsed REACH_METRICS spec (grammar in docs/OBSERVABILITY.md).
struct MetricsSpec {
  bool enabled = false;
  std::string dump_path;  // non-empty: write SnapshotJson() here at exit

  /// Parse through the shared REACH_* grammar (common/spec.h). An unknown
  /// entry or a malformed one (`dump=` without a path) is InvalidArgument
  /// naming the entry; ReachDb::Open refuses to open on one.
  static Result<MetricsSpec> Parse(const char* spec);
};

class MetricsRegistry {
 public:
  /// Process-wide singleton. First call applies REACH_METRICS from the
  /// environment (a spec MetricsSpec::Parse rejects leaves metrics off).
  static MetricsRegistry& Instance();

  static bool enabled() { return MetricsEnabled(); }
  void SetEnabled(bool on) {
    internal::g_enabled.store(on, std::memory_order_relaxed);
  }

  /// Find-or-create by name. Returned pointers are stable for the process
  /// lifetime (metrics are never deleted; ResetAll zeroes in place), so
  /// components cache them at construction and record lock-free.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Zero every registered metric (tests, bench warm-up isolation).
  void ResetAll();

  /// Registered metric names, sorted, prefixed by kind ("counter/...").
  std::vector<std::string> Names() const;

  /// JSON object with all counters, gauges, and histogram summaries
  /// (count/sum/max/p50/p95/p99), keys sorted for deterministic output.
  std::string SnapshotJson() const;

  /// Write SnapshotJson() to `path` (used by the REACH_METRICS=dump=...
  /// at-exit hook and by benchmarks that record baselines).
  bool DumpJson(const std::string& path) const;

 private:
  MetricsRegistry();

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace reach::obs
