// Shared pieces of the end-to-end benchmark: seeded inputs, the
// percentile rule, open- and closed-loop load generation with failure
// accounting, process counters, and the JSON result document.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 finalizer; combines (seed, stream) into an independent seed.
uint64_t Mix(uint64_t a, uint64_t b);

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// Small deterministic generator (xorshift64*). Each request draws its
/// inputs from Rng(Mix(seed, seq)), so inputs depend only on the seed and
/// the request's sequence number, never on thread timing.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed == 0 ? 0x9E3779B97F4A7C15ull : seed) {}
  uint64_t Next() {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    return s_ * 0x2545F4914F6CDD1Dull;
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi).
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo));
  }
  bool Chance(double p) { return Uniform() < p; }

 private:
  uint64_t s_;
};

/// The percentile rule, shared by every percentile the benchmark reports:
/// the nearest-rank index of percentile `p` among `n` sorted samples, or
/// -1 (n/a) when fewer than 10 samples lie beyond it (p50 needs n >= 20,
/// p95 n >= 200, p99 n >= 1000).
int64_t RankIndex(double p, uint64_t n);

/// A sample set whose percentiles follow the percentile rule.
class Dist {
 public:
  void Add(double v) { v_.push_back(v); }
  void Merge(const Dist& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }
  size_t n() const { return v_.size(); }
  std::optional<double> Percentile(double p) const;

 private:
  std::vector<double> v_;
};

/// Log-linear histogram of nanosecond values (64 sub-buckets per power of
/// two, <1.6% relative error) for high-volume per-call durations.
/// obs::Histogram has 8 sub-buckets (up to 12.5% error): too coarse for a
/// per-layer percentile to show a 10% change.
class LogHist {
 public:
  void Add(uint64_t ns);
  void Merge(const LogHist& other);
  /// Nearest-rank percentile in ns, or n/a under the percentile rule.
  std::optional<double> Percentile(double p) const;

 private:
  static constexpr int kSub = 64;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// One metric in the result document. `value` empty = n/a.
struct Metric {
  std::optional<double> value;
  std::string unit;
  uint64_t n = 0;
};

/// A correctness check: the run exits nonzero if any check fails.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// What a request reports back to the load generator.
enum class Outcome {
  kCommitted,
  kDeliberateAbort,  // the workload's scripted aborts: not a failure
  kFailed,           // failed or refused after retries
};

/// A committed request: when it completed and its latency, timed from the
/// due time in an open loop and from issue in a closed loop.
struct Completion {
  int64_t end_ns;
  double latency_us;
};

/// Per-phase load-generator results.
struct PhaseResult {
  std::vector<Completion> completions;
  Dist late_us;  // open loop only: start - due
  uint64_t attempted = 0;  // deliberate aborts count here, not as failed
  uint64_t committed = 0;
  uint64_t failed = 0;
  int64_t start_ns = 0;
  int64_t stop_ns = 0;
  double overrun_s = 0;  // open loop only: last completion - scheduled end

  double wall_s() const {
    return static_cast<double>(stop_ns - start_ns) / 1e9;
  }
};

/// Steady-state estimators over a phase cut into equal time windows by
/// completion time (one per second, at most 10): the median over windows
/// of the per-window value, so a stall confined to one window, such as a
/// noisy neighbour on a shared host, does not move the result. Percentiles
/// use fewer, longer windows when needed so that each window can satisfy
/// the percentile rule; they are n/a when no window can.
double WindowedRate(const PhaseResult& p);
std::optional<double> WindowedPercentile(const PhaseResult& p, double pct);

/// One request: `session` is the issuing session's index, `seq` the global
/// request number (inputs are drawn from it), `due_ns` the steady-clock
/// time the request was due (open loop) or issued (closed loop).
using RequestFn = std::function<Outcome(int session, uint64_t seq,
                                        int64_t due_ns)>;

/// Sequence numbers of session s are seq_base + s + sessions * k.
/// Open loop: each session is an independent Poisson stream of rate
/// `rate_per_s / sessions` (so the merged stream is Poisson at
/// `rate_per_s`); arrival times come from the seed.
PhaseResult RunOpenLoop(int sessions, double rate_per_s, double seconds,
                        uint64_t seed, uint64_t seq_base, const RequestFn& fn);

/// Closed loop: each session issues its next request when the previous one
/// completes, until `seconds` have elapsed. One result per session, so
/// workloads whose sessions play different roles can report them apart;
/// all of them share the phase's interval.
std::vector<PhaseResult> RunClosedLoop(int sessions, double seconds,
                                       uint64_t seq_base, const RequestFn& fn);

/// Merge sessions [begin, end) of a closed-loop phase.
PhaseResult MergeSessions(const std::vector<PhaseResult>& per, size_t begin,
                          size_t end);

/// Process resource counters (getrusage + /proc/self/status).
struct ProcSample {
  double cpu_s = 0;
  uint64_t vol_csw = 0;
  uint64_t invol_csw = 0;
  int64_t wall_ns = 0;
  static ProcSample Now();
};
int ProcThreads();
double PeakRssMb();

/// Background sampler: calls `fn` every `period_ms` until destroyed.
class Sampler {
 public:
  Sampler(int period_ms, std::function<void()> fn);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::function<void()> fn_;
  int period_ms_;
  std::thread thread_;
};

/// The binary's result document, printed as one JSON line on stdout.
struct RunResult {
  std::string workload;
  uint64_t seed = 0;
  bool traced = false;
  std::map<std::string, Metric> metrics;
  std::vector<Check> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::string> config;
  /// The self-time table of a traced run, one row per span name.
  struct SpanRow {
    std::string name;
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::vector<SpanRow> spans;

  void Set(const std::string& name, std::optional<double> value,
           const std::string& unit, uint64_t n = 0) {
    metrics[name] = Metric{value, unit, n};
  }
  void Require(const std::string& name, bool ok, const std::string& detail);
  bool correct() const;
  std::string Json() const;
};

}  // namespace e2e
