// Deterministic fault injection. A FaultRegistry holds a set of named fault
// points (see fault_points.h) compiled into the I/O, transaction, and rule
// layers via REACH_FAULT_POINT. Tests arm a point with an action — an
// injected Status error or a simulated crash — and a trigger — the nth
// future hit, or a probability drawn from a seeded PRNG — then drive a
// workload and observe how the failure surfaces.
//
// Determinism: nth-hit triggers count hits under the registry lock, so a
// single-threaded workload replays identically. Probability triggers come in
// two flavours: Evaluate() draws from the registry's seeded PRNG (stream
// order = schedule order), while EvaluateKeyed(point, key) hashes
// (seed, key) — the decision depends only on the key, never on thread
// interleaving, which is what lets serial and parallel rule execution see
// the *same* injected aborts.
//
// Overhead when disabled: one relaxed atomic bool load per fault point
// (verified by bench_fault_overhead and the <2% pipeline-regression gate).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace reach {

/// Thrown by a fault point armed with ArmCrash: simulates the process dying
/// at that instruction. The test harness catches it at the top of the
/// workload, destroys the component stack *without clean shutdown* (the
/// repo-wide crash convention: dirty pages and unflushed WAL buffer are
/// lost), and reopens to exercise recovery. Only arm crash faults on paths
/// executed by the test's own thread — an escape from a pool thread
/// terminates the process.
class FaultInjectedCrash : public std::exception {
 public:
  explicit FaultInjectedCrash(std::string point)
      : point_(std::move(point)),
        what_("injected crash at fault point " + point_) {}
  const char* what() const noexcept override { return what_.c_str(); }
  const std::string& point() const { return point_; }

 private:
  std::string point_;
  std::string what_;
};

class FaultRegistry {
 public:
  /// Process-wide singleton. First call parses REACH_FAULTS /
  /// REACH_FAULTS_SEED from the environment (format in docs/TESTING.md).
  /// A REACH_FAULTS spec that does not parse arms nothing; a malformed seed
  /// leaves the default seed.
  static FaultRegistry& Instance();

  /// Check a REACH_FAULTS spec against the shared REACH_* grammar
  /// (common/spec.h). An unknown point (not in faults::kAll), an unknown
  /// action or status code, a non-numeric or zero `@nth`, or a probability
  /// outside [0, 1] is InvalidArgument naming the entry; ReachDb::Open
  /// refuses to open on one.
  static Status ValidateSpec(const char* spec);

  /// Check a REACH_FAULTS_SEED value: an unsigned 64-bit number (decimal,
  /// 0x-hex or 0-octal) with nothing after it, or nullptr (unset). Anything
  /// else is InvalidArgument; ReachDb::Open refuses to open on one.
  static Status ValidateSeed(const char* seed);

  /// Fast global gate: true iff any point is armed. Inlined into the
  /// REACH_FAULT_POINT macro so disabled injection costs one relaxed load.
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  // -- Arming ---------------------------------------------------------------

  /// Inject `code` on the `nth` future hit of `point` (nth=1: next hit).
  /// one_shot disarms after firing; otherwise every hit from the nth on
  /// fires.
  void ArmError(const std::string& point, Status::Code code, uint64_t nth = 1,
                bool one_shot = true);

  /// Throw FaultInjectedCrash on the nth future hit.
  void ArmCrash(const std::string& point, uint64_t nth = 1);

  /// Inject `code` with probability `p` per hit. Unkeyed hits draw from the
  /// registry PRNG; keyed hits (EvaluateKeyed) hash (seed, key).
  void ArmErrorWithProbability(const std::string& point, Status::Code code,
                               double p);

  void Disarm(const std::string& point);
  /// Disarm every point and zero all hit/fired counters.
  void DisarmAll();

  /// Reseed the PRNG used by probability triggers.
  void SetSeed(uint64_t seed);
  uint64_t seed() const;

  // -- Introspection --------------------------------------------------------

  /// Every registered point name, sorted (the fault-sweep test iterates
  /// this).
  std::vector<std::string> Points() const;
  uint64_t HitCount(const std::string& point) const;
  uint64_t FiredCount(const std::string& point) const;
  uint64_t total_fired() const;

  // -- Hot path (called via REACH_FAULT_POINT) ------------------------------

  Status Evaluate(const char* point);
  /// Like Evaluate, but probability triggers decide from hash(seed, key):
  /// deterministic per key regardless of thread schedule.
  Status EvaluateKeyed(const char* point, uint64_t key);

 private:
  enum class ActionKind { kError, kCrash };
  struct Armed {
    ActionKind kind = ActionKind::kError;
    Status::Code code = Status::Code::kIoError;
    uint64_t remaining = 1;  // nth-hit countdown (0 = fire now)
    double probability = -1.0;  // >= 0 selects the probability trigger
    bool one_shot = true;
  };
  struct Point {
    bool armed = false;
    Armed fault;
    uint64_t hits = 0;
    uint64_t fired = 0;
  };

  FaultRegistry();
  using SpecEntry = std::pair<std::string, Armed>;
  /// Parse a REACH_FAULTS spec into (point, fault) pairs; see ValidateSpec.
  static Status ParseSpec(const char* spec, std::vector<SpecEntry>* out);
  /// Parse a REACH_FAULTS_SEED value into *out (untouched when unset); see
  /// ValidateSeed.
  static Status ParseSeed(const char* seed, uint64_t* out);
  void Arm(const std::string& point, Armed fault);
  Status DoEvaluate(const char* point, bool keyed, uint64_t key);
  static Status MakeError(Status::Code code, const std::string& point);
  void RecomputeEnabled();  // callers hold mu_

  static std::atomic<bool> enabled_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Point> points_;
  Random rng_;
  uint64_t seed_;
  uint64_t fired_total_ = 0;
};

/// Evaluate a fault point and propagate an injected error to the caller
/// (works in functions returning Status or Result<T>). Crash faults throw.
#define REACH_FAULT_POINT(point)                                          \
  do {                                                                    \
    if (::reach::FaultRegistry::enabled()) {                              \
      ::reach::Status _reach_fault_st =                                   \
          ::reach::FaultRegistry::Instance().Evaluate(point);             \
      if (!_reach_fault_st.ok()) return _reach_fault_st;                  \
    }                                                                     \
  } while (0)

/// Expression form for call sites that handle the Status themselves.
#define REACH_FAULT_HIT(point)                               \
  (::reach::FaultRegistry::enabled()                         \
       ? ::reach::FaultRegistry::Instance().Evaluate(point)  \
       : ::reach::Status::OK())

#define REACH_FAULT_HIT_KEYED(point, key)                              \
  (::reach::FaultRegistry::enabled()                                   \
       ? ::reach::FaultRegistry::Instance().EvaluateKeyed(point, key)  \
       : ::reach::Status::OK())

}  // namespace reach
