// The benchmark's calls into each REACH layer, wrapped in trace spans, and
// the measured window that turns spans, obs::MetricsRegistry counters and
// process counters into the per-layer metrics of a traced run.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/reach/reach_db.h"
#include "harness.h"

namespace e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Total measured seconds of the workload's phases; 0 keeps each
  /// workload's default phase lengths.
  double seconds = 0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir;  // database files
  std::string out_dir;   // Chrome traces

  /// Multiplier for a workload whose default phases total `default_s`.
  double Scale(double default_s) const;
};

/// Base path of a fresh database `name` under the work directory (any
/// files left from an earlier repetition are removed).
std::string FreshDb(const Options& opt, const std::string& name);
void RemoveDb(const std::string& base);

/// One application session per load-generator session.
std::vector<std::unique_ptr<reach::Session>> OpenSessions(reach::ReachDb* db,
                                                          int n);

/// Times `setup` (open, register, define, load) at least 3 times and until
/// about 2 s have been spent, calling `reset` (drop the previous state,
/// remove its files; untimed) before each. Sets setup_s to the median and
/// leaves the last repetition's state in place. The host's speed drifts
/// on a scale of seconds, so a set-up of a few milliseconds is repeated
/// over seconds rather than timed in one burst.
reach::Status RepeatSetup(const std::function<void()>& reset,
                          const std::function<reach::Status()>& setup,
                          RunResult* out);

// -- Traced calls into the layers ------------------------------------------
//
// Names arrive as C strings and results are dropped inside the span, so
// building the name's std::string and freeing the result are timed with
// the call rather than left in the gap between two sibling spans.

reach::Status Begin(reach::Session& s);
reach::Status Commit(reach::Session& s, const char* span = "txn.commit");
/// Abort every transaction open on `s`.
reach::Status Abort(reach::Session& s);
reach::Status Invoke(reach::Session& s, const reach::Oid& oid,
                     const char* method, std::vector<reach::Value> args);
reach::Status SetAttr(reach::Session& s, const reach::Oid& oid,
                      const char* attr, reach::Value value);
reach::Result<reach::Value> GetAttr(reach::Session& s, const reach::Oid& oid,
                                    const char* attr);
/// Take the X lock before a read-modify-write, so concurrent updaters of
/// one object queue instead of deadlocking on an S-to-X upgrade. A
/// `timeout_us` >= 0 bounds the wait, 0 only tries (TimedOut when held).
reach::Status LockExclusive(reach::Session& s, const reach::Oid& oid,
                            int64_t timeout_us = -1);
reach::Result<reach::QueryResult> Query(reach::ReachDb& db, reach::Session& s,
                                        const std::string& q);

/// Wraps a method body in an "app.method" span.
reach::MethodImpl Traced(reach::MethodImpl body);

/// Seconds since `t0_ns`.
inline double SecondsSince(int64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) / 1e9;
}

/// Common tail of every traced run: the Chrome trace
/// `<out_dir>/<workload>.trace.json` and the coverage of sampled request
/// spans by their children.
void FinishRun(const Options& opt, RunResult* out);

/// Detached-rule firings keyed by their trigger's request seq, for
/// reaction (trigger due -> action start) and detached lag (trigger Commit
/// return -> action start). Thread-safe.
class ReactionLog {
 public:
  void Fired(uint64_t seq, int64_t due_ns, int64_t start_ns);
  void Committed(uint64_t seq, int64_t end_ns);
  /// Over triggers with seq in [lo, hi).
  Dist Reactions(uint64_t lo, uint64_t hi) const;
  Dist DetachedLag(uint64_t lo, uint64_t hi) const;

 private:
  struct Firing {
    uint64_t seq;
    int64_t due_ns;
    int64_t start_ns;
  };
  mutable std::mutex mu_;
  std::vector<Firing> fired_;
  std::unordered_map<uint64_t, int64_t> commit_end_ns_;
};

/// Per-query observations of a report client.
struct QueryStats {
  Dist exec_ms;  // QueryResult::exec_ns
  double plan_parse_ms = 0;  // summed: Query call minus exec_ns
  uint64_t scanned = 0;
  uint64_t returned = 0;
  uint64_t morsels = 0;
  uint64_t workers = 0;
  uint64_t committed = 0;
};

/// Counts the workload hands to the window when the run ends.
struct WindowCounts {
  uint64_t txns = 0;     // application transactions attempted
  uint64_t queries = 0;  // report transactions attempted
  const QueryStats* query = nullptr;
  Dist detached_lag_us;  // trigger Commit return -> detached action start
  std::optional<double> recovery_records;
  uint64_t lock_restarts = 0;  // writer restarts on a busy lock
};

/// The measured window of a run. In a traced run it switches the span
/// recorder and the MetricsRegistry on while measuring and samples the
/// composition queue depth and the thread count every 10 ms; in both runs
/// it accumulates process CPU and context-switch counts. Pause/Resume keep
/// a crash-and-reopen out of the window.
class LayerWindow {
 public:
  explicit LayerWindow(bool traced) : traced_(traced) {}
  ~LayerWindow() { Pause(); }
  LayerWindow(const LayerWindow&) = delete;
  LayerWindow& operator=(const LayerWindow&) = delete;

  void Resume(reach::ReachDb* db);
  void Pause();
  /// Add the per-layer metrics (traced runs) to `out`.
  void Report(const WindowCounts& counts, RunResult* out);

 private:
  bool traced_;
  bool running_ = false;
  bool started_ = false;
  reach::ReachDb* db_ = nullptr;
  ProcSample at_resume_;
  double cpu_s_ = 0;
  double wall_s_ = 0;
  uint64_t vol_csw_ = 0;
  uint64_t invol_csw_ = 0;
  uint64_t deadlocks_at_resume_ = 0;
  uint64_t deadlocks_ = 0;
  std::atomic<size_t> queue_depth_max_{0};
  std::atomic<int> threads_max_{0};
  std::unique_ptr<Sampler> sampler_;
};

}  // namespace e2e
