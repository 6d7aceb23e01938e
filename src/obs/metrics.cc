#include "obs/metrics.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/spec.h"

namespace reach::obs {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

/// Stable per-thread shard assignment: threads round-robin over shards in
/// creation order, so a fixed thread population spreads evenly.
size_t ThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % Histogram::kShards;
  return shard;
}

void AppendJsonKey(std::string* out, const std::string& key) {
  out->push_back('"');
  // Metric names are plain identifiers (dots, dashes, alnum); escape the two
  // characters that could break the quoting anyway.
  for (char c : key) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->append("\":");
}

}  // namespace

size_t Histogram::BucketIndex(uint64_t value) {
  if (value < kSubBuckets) return static_cast<size_t>(value);
  int msb = 63 - std::countl_zero(value);
  int shift = msb - kSubBits;
  size_t sub = (value >> shift) & (kSubBuckets - 1);
  return static_cast<size_t>(msb - kSubBits + 1) * kSubBuckets + sub;
}

uint64_t Histogram::BucketLowerBound(size_t index) {
  if (index < kSubBuckets) return index;
  size_t octave = index / kSubBuckets;
  uint64_t sub = index % kSubBuckets;
  return (static_cast<uint64_t>(kSubBuckets) + sub) << (octave - 1);
}

void Histogram::RecordAlways(uint64_t value) {
  Shard& s = shards_[ThreadShard()];
  s.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  uint64_t prev = s.max.load(std::memory_order_relaxed);
  while (value > prev &&
         !s.max.compare_exchange_weak(prev, value,
                                      std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.assign(kNumBuckets, 0);
  for (const Shard& s : shards_) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      snap.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
    snap.max = std::max(snap.max, s.max.load(std::memory_order_relaxed));
  }
  for (uint64_t n : snap.buckets) snap.count += n;
  return snap;
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

uint64_t HistogramSnapshot::ValueAtPercentile(double p) const {
  if (count == 0) return 0;
  if (p > 100.0) p = 100.0;
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return Histogram::BucketLowerBound(i);
  }
  return max;
}

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

// REACH_METRICS grammar (entries separated by ',' or ';'):
//   on | 1 | true     enable collection
//   off | 0 | false   disable collection (overrides an earlier enable)
//   dump=<path>       enable, and write SnapshotJson() to <path> at exit
Result<MetricsSpec> MetricsSpec::Parse(const char* spec) {
  MetricsSpec out;
  REACH_RETURN_IF_ERROR(ForEachSpecEntry(
      spec, [&out](const std::string& entry, const std::string& key,
                   const std::string& value) {
        if (key == "dump" && entry.find('=') != std::string::npos) {
          if (value.empty()) {
            return Status::InvalidArgument(
                "REACH_METRICS: malformed value in '" + entry + "'");
          }
          out.enabled = true;
          out.dump_path = value;
          return Status::OK();
        }
        if (entry != key || !ParseSpecBool(key, &out.enabled)) {
          return Status::InvalidArgument("REACH_METRICS: unknown setting '" +
                                         entry + "'");
        }
        return Status::OK();
      }));
  return out;
}

MetricsRegistry::MetricsRegistry() {
  auto spec = MetricsSpec::Parse(std::getenv("REACH_METRICS"));
  if (!spec.ok()) return;
  if (spec->enabled) SetEnabled(true);
  if (!spec->dump_path.empty()) {
    static std::string dump_path;  // read by the single atexit hook
    dump_path = spec->dump_path;
    std::atexit([] { MetricsRegistry::Instance().DumpJson(dump_path); });
  }
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [_, c] : counters_) c->Reset();
  for (auto& [_, g] : gauges_) g->Reset();
  for (auto& [_, h] : histograms_) h->Reset();
}

std::vector<std::string> MetricsRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, _] : counters_) out.push_back("counter/" + name);
  for (const auto& [name, _] : gauges_) out.push_back("gauge/" + name);
  for (const auto& [name, _] : histograms_) out.push_back("histogram/" + name);
  return out;  // each map is sorted; kinds grouped
}

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"enabled\": ";
  out += MetricsEnabled() ? "true" : "false";
  out += ",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonKey(&out, name);
    out += " " + std::to_string(c->value());
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonKey(&out, name);
    out += " " + std::to_string(g->value());
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot snap = h->Snapshot();
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonKey(&out, name);
    out += " {\"count\": " + std::to_string(snap.count);
    out += ", \"sum\": " + std::to_string(snap.sum);
    out += ", \"max\": " + std::to_string(snap.max);
    out += ", \"p50\": " + std::to_string(snap.ValueAtPercentile(50));
    out += ", \"p95\": " + std::to_string(snap.ValueAtPercentile(95));
    out += ", \"p99\": " + std::to_string(snap.ValueAtPercentile(99));
    out += "}";
  }
  out += "\n  }\n}\n";
  return out;
}

bool MetricsRegistry::DumpJson(const std::string& path) const {
  std::string json = SnapshotJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t n = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return n == json.size();
}

namespace {
// Nothing would ever parse REACH_METRICS in a process that only records
// through cached metric pointers; constructing the registry at program
// start closes that hole (same trick as the FaultRegistry).
[[maybe_unused]] const bool kEnvParsedAtStartup =
    (MetricsRegistry::Instance(), true);
}  // namespace

}  // namespace reach::obs
