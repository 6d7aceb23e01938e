// Bench-side span recorder for the traced run. Spans wrap the benchmark's
// calls into each layer's public functions (Begin, Invoke, SetAttr,
// GetAttr, Commit, Query) plus method bodies and rule lambdas. Each thread
// keeps its spans in memory: every span feeds a per-name aggregate (count,
// total and self time, where self = span - direct children), and spans of
// sampled trace ids (1 in 64) are kept whole for the Chrome trace export.
//
// Off (the default), a Span costs one relaxed atomic load and reads no
// clock, so the end-to-end numbers are measured with tracing off.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace e2e::trace {

namespace internal {
extern std::atomic<bool> g_on;
}  // namespace internal

inline bool Enabled() {
  return internal::g_on.load(std::memory_order_relaxed);
}
void SetEnabled(bool on);

/// 1 in 64 trace ids, picked by hash so every session is sampled, is kept
/// whole for the Chrome export.
inline bool Sampled(uint64_t trace_id) {
  return trace_id != 0 && Mix(trace_id, 0x5A) % 64 == 0;
}

class Span {
 public:
  /// Child of the innermost open span on this thread (same trace id).
  explicit Span(const char* name) {
    if (Enabled()) Open(name, 0);
  }
  /// Opens trace `trace_id` (the request seq) on this thread; spans opened
  /// inside it inherit the id. Used for request roots and for rule lambdas
  /// on detached-rule threads, which link back to their trigger this way.
  /// When the id is sampled, the span also records how long its thread
  /// waited in the run queue while it was open.
  Span(const char* name, uint64_t trace_id) {
    if (Enabled()) {
      if (Sampled(trace_id)) runq_start_ns_ = RunQueueNs();
      Open(name, trace_id);
    }
  }
  ~Span() {
    if (open_) Close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  /// This thread's total run-queue wait (/proc/thread-self/schedstat), or
  /// -1 when the kernel does not report it.
  static int64_t RunQueueNs();
  void Open(const char* name, uint64_t trace_id);
  void Close();
  bool open_ = false;
  int64_t runq_start_ns_ = -1;
};

/// Spans of one name: count, summed total and self time, and their
/// distributions. Collect merges every thread's.
struct NameStats {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  LogHist total;
  LogHist self;
};
std::map<std::string, NameStats> Collect();

/// Write the sampled spans as Chrome trace-event JSON ("X" events). Returns
/// the number of events written, or -1 if the file could not be written.
int64_t WriteChromeTrace(const std::string& path);

/// For every sampled span named `root`: the fraction of its duration that
/// its direct children cover, counting as covered the time its thread
/// waited in the run queue. A thread preempted between two calls leaves a
/// gap no span can cover; that time is the scheduler's, not uncovered code.
std::vector<double> RootCoverage(const std::string& root);

}  // namespace e2e::trace
