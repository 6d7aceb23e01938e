// The four workloads and the end-to-end metric helpers they share.
#pragma once

#include <initializer_list>

#include "harness.h"
#include "layers.h"

namespace e2e {

/// Each workload returns the process exit code and fills `out`.
int RunPowerplant(const Options& opt, RunResult* out);
int RunSensorBurst(const Options& opt, RunResult* out);
int RunPlantReport(const Options& opt, RunResult* out);
int RunMixed(const Options& opt, RunResult* out);

/// Request sequence ranges of the phases: [kWarmupSeq, kOpenSeq) warm-up,
/// [kOpenSeq, kClosedSeq) open loop, [kClosedSeq, kEndSeq) closed loop.
/// Trace ids are these sequence numbers.
inline constexpr uint64_t kWarmupSeq = 1;
inline constexpr uint64_t kOpenSeq = 100'000'000;
inline constexpr uint64_t kClosedSeq = 200'000'000;
inline constexpr uint64_t kEndSeq = 300'000'000;

inline int SetupFailed(const reach::Status& st, RunResult* out) {
  out->Require("setup", false, st.ToString());
  return 1;
}

/// commit_p50_us / commit_p99_us: application transaction latency, as
/// windowed medians (see WindowedPercentile).
inline void ReportCommits(const PhaseResult& p, RunResult* out) {
  out->Set("commit_p50_us", WindowedPercentile(p, 50), "us", p.committed);
  out->Set("commit_p99_us", WindowedPercentile(p, 99), "us", p.committed);
}

/// throughput_tps: committed transactions per second of a closed loop, as
/// the median over 1-second windows.
inline void ReportThroughput(const PhaseResult& p, RunResult* out) {
  out->Set("throughput_tps", WindowedRate(p), "1/s", p.committed);
}

/// reaction_p50_us / reaction_p99_us: the completing transaction's due
/// time -> the detached rule's action start.
inline void ReportReactions(const Dist& d, RunResult* out) {
  out->Set("reaction_p50_us", d.Percentile(50), "us", d.n());
  out->Set("reaction_p99_us", d.Percentile(99), "us", d.n());
}

/// query_p50_ms / query_p95_ms / query_qps of the report session.
inline void ReportQueries(const PhaseResult& p, RunResult* out) {
  Dist ms;
  for (const Completion& c : p.completions) ms.Add(c.latency_us / 1e3);
  out->Set("query_p50_ms", ms.Percentile(50), "ms", ms.n());
  out->Set("query_p95_ms", ms.Percentile(95), "ms", ms.n());
  out->Set("query_qps", static_cast<double>(p.committed) / p.wall_s(), "1/s",
           p.committed);
}

/// peak_rss_mb: VmHWM once the set-up and a fixed amount of work are done
/// (the open loop, or one report of each kind), so that a closed loop that
/// gets through more transactions does not read as using more memory.
inline void ReportPeakRss(RunResult* out) {
  out->Set("peak_rss_mb", PeakRssMb(), "MB");
}

/// Generator lateness (start - due) and overrun of an open-loop phase.
inline void ReportLoadgen(const PhaseResult& open, RunResult* out) {
  out->Set("loadgen.late_p99_us", open.late_us.Percentile(99), "us",
           open.late_us.n());
  out->Set("loadgen.overrun_s", open.overrun_s, "s");
}

/// failed_ratio over the measured phases; deliberate aborts are attempted
/// but not failed. ok_ratio = 1 - failed_ratio is the form BENCHMARK.json
/// gates: its bounds are shares of the parent's value, and failed_ratio is
/// 0 when nothing fails, while a bound of 0.001 on ok_ratio allows exactly
/// an absolute +0.001 of failed_ratio.
inline void ReportFailures(std::initializer_list<const PhaseResult*> phases,
                           RunResult* out) {
  for (const PhaseResult* p : phases) {
    out->attempted += p->attempted;
    out->failed += p->failed;
  }
  const double failed_ratio =
      out->attempted == 0 ? 0.0
                          : static_cast<double>(out->failed) /
                                static_cast<double>(out->attempted);
  out->Set("failed_ratio", failed_ratio, "ratio", out->attempted);
  out->Set("ok_ratio", 1.0 - failed_ratio, "ratio", out->attempted);
}

}  // namespace e2e
