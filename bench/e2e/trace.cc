#include "trace.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace e2e::trace {

namespace internal {
std::atomic<bool> g_on{false};
}  // namespace internal

namespace {

struct SpanRecord {
  const char* name;
  uint64_t trace;
  uint64_t id;
  uint64_t parent;
  int64_t start_ns;
  int64_t end_ns;
  int64_t runq_ns;  // run-queue wait while open; sampled trace roots only
};

struct Frame {
  const char* name;
  uint64_t trace;
  uint64_t id;
  uint64_t parent;
  int64_t start_ns;
  int64_t child_ns;
  uint64_t saved_trace;  // the thread's trace id before this span opened
};

/// One thread's recorder. The stack and trace context are touched only by
/// the owning thread; `agg` and `sampled` are also read by Collect and the
/// exporter, hence `mu` (uncontended on the recording path).
struct ThreadBuf {
  ~ThreadBuf() {
    if (schedstat_fd >= 0) ::close(schedstat_fd);
  }
  uint32_t tid = 0;
  int schedstat_fd = -2;  // -2: not opened yet
  uint64_t next_id = 0;
  uint64_t current_trace = 0;
  std::vector<Frame> stack;
  std::mutex mu;
  std::unordered_map<const char*, NameStats> agg;
  // A deque grows without copying the records it holds, so keeping one
  // never costs a long copy inside the span being recorded.
  std::deque<SpanRecord> sampled;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_buffers;  // outlive their threads
int64_t g_epoch_ns = 0;

ThreadBuf* Local() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_buffers.push_back(std::make_unique<ThreadBuf>());
    buf = g_buffers.back().get();
    buf->tid = static_cast<uint32_t>(g_buffers.size());
  }
  return buf;
}

}  // namespace

void SetEnabled(bool on) {
  if (on && g_epoch_ns == 0) g_epoch_ns = NowNs();
  internal::g_on.store(on, std::memory_order_relaxed);
}

int64_t Span::RunQueueNs() {
  ThreadBuf* buf = Local();
  if (buf->schedstat_fd == -2) {
    buf->schedstat_fd =
        ::open("/proc/thread-self/schedstat", O_RDONLY | O_CLOEXEC);
  }
  if (buf->schedstat_fd < 0) return -1;
  char text[96];
  ssize_t n = ::pread(buf->schedstat_fd, text, sizeof(text) - 1, 0);
  if (n <= 0) return -1;
  text[n] = '\0';
  // "<on-cpu ns> <run-queue wait ns> <timeslices>"
  unsigned long long on_cpu = 0, wait = 0;
  if (std::sscanf(text, "%llu %llu", &on_cpu, &wait) != 2) return -1;
  return static_cast<int64_t>(wait);
}

// A span's own recording work falls inside it: Open reads the clock first
// and Close last, so the gap between two sibling spans holds only the
// caller's code and the children of a span account for nearly all of it.

void Span::Open(const char* name, uint64_t trace_id) {
  Frame f;
  f.start_ns = NowNs();
  ThreadBuf* buf = Local();
  f.name = name;
  f.saved_trace = buf->current_trace;
  if (trace_id != 0) buf->current_trace = trace_id;
  f.trace = buf->current_trace;
  f.id = (static_cast<uint64_t>(buf->tid) << 40) | ++buf->next_id;
  f.parent = buf->stack.empty() ? 0 : buf->stack.back().id;
  f.child_ns = 0;
  buf->stack.push_back(f);
  open_ = true;
}

void Span::Close() {
  ThreadBuf* buf = Local();
  Frame f = buf->stack.back();
  buf->stack.pop_back();
  buf->current_trace = f.saved_trace;
  std::lock_guard<std::mutex> lock(buf->mu);
  NameStats& a = buf->agg[f.name];
  SpanRecord* record = nullptr;
  if (Sampled(f.trace)) record = &buf->sampled.emplace_back();
  const int64_t end = NowNs();
  const int64_t dur = end - f.start_ns;
  const int64_t self = std::max<int64_t>(0, dur - f.child_ns);
  if (!buf->stack.empty()) buf->stack.back().child_ns += dur;
  ++a.count;
  a.total_ns += dur;
  a.self_ns += self;
  a.total.Add(static_cast<uint64_t>(dur));
  a.self.Add(static_cast<uint64_t>(self));
  if (record != nullptr) {
    *record = {f.name, f.trace, f.id, f.parent, f.start_ns, end, 0};
    if (runq_start_ns_ >= 0) {
      int64_t runq = RunQueueNs();
      if (runq >= 0) record->runq_ns = runq - runq_start_ns_;
    }
  }
}

std::map<std::string, NameStats> Collect() {
  std::map<std::string, NameStats> out;
  std::lock_guard<std::mutex> reg(g_registry_mu);
  for (const auto& buf : g_buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    for (const auto& [name, a] : buf->agg) {
      NameStats& s = out[name];
      s.count += a.count;
      s.total_ns += a.total_ns;
      s.self_ns += a.self_ns;
      s.total.Merge(a.total);
      s.self.Merge(a.self);
    }
  }
  return out;
}

namespace {

/// Every sampled span, each tagged with its thread id.
std::vector<std::pair<uint32_t, SpanRecord>> SampledSpans() {
  std::vector<std::pair<uint32_t, SpanRecord>> out;
  std::lock_guard<std::mutex> reg(g_registry_mu);
  for (const auto& buf : g_buffers) {
    std::lock_guard<std::mutex> lock(buf->mu);
    for (const SpanRecord& r : buf->sampled) out.emplace_back(buf->tid, r);
  }
  return out;
}

}  // namespace

int64_t WriteChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return -1;
  auto spans = SampledSpans();
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    return a.second.start_ns < b.second.start_ns;
  });
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const auto& [tid, r] : spans) {
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"cat\":\"reach\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"trace\":%llu,"
        "\"span\":%llu,\"parent\":%llu,\"runq_us\":%.3f}}",
        first ? "" : ",\n", r.name,
        static_cast<double>(r.start_ns - g_epoch_ns) / 1e3,
        static_cast<double>(r.end_ns - r.start_ns) / 1e3, tid,
        static_cast<unsigned long long>(r.trace),
        static_cast<unsigned long long>(r.id),
        static_cast<unsigned long long>(r.parent),
        static_cast<double>(r.runq_ns) / 1e3);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  bool ok = std::fclose(f) == 0;
  return ok ? static_cast<int64_t>(spans.size()) : -1;
}

std::vector<double> RootCoverage(const std::string& root) {
  auto spans = SampledSpans();
  // Children run on their parent's thread one after another, so the time
  // they cover is the sum of their durations.
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const auto& [tid, r] : spans) {
    if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::vector<double> out;
  for (const auto& [tid, r] : spans) {
    if (root != r.name || r.end_ns <= r.start_ns) continue;
    out.push_back(std::min(
        1.0, static_cast<double>(child_ns[r.id] + r.runq_ns) /
                 static_cast<double>(r.end_ns - r.start_ns)));
  }
  return out;
}

}  // namespace e2e::trace
