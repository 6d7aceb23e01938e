#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

namespace e2e {

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

int64_t RankIndex(double p, uint64_t n) {
  if (n == 0) return -1;
  auto rank =
      static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  int64_t idx = std::max<int64_t>(rank, 1) - 1;
  if (static_cast<int64_t>(n) - 1 - idx < 10) return -1;
  return idx;
}

std::optional<double> Dist::Percentile(double p) const {
  int64_t idx = RankIndex(p, v_.size());
  if (idx < 0) return std::nullopt;
  std::vector<double> copy = v_;
  std::nth_element(copy.begin(), copy.begin() + idx, copy.end());
  return copy[static_cast<size_t>(idx)];
}

void LogHist::Add(uint64_t ns) {
  size_t idx;
  if (ns < kSub) {
    idx = ns;
  } else {
    int shift = 63 - __builtin_clzll(ns) - 6;  // kSub == 1 << 6
    idx = static_cast<size_t>(shift + 1) * kSub + ((ns >> shift) & (kSub - 1));
  }
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
  ++buckets_[idx];
  ++count_;
}

void LogHist::Merge(const LogHist& other) {
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

std::optional<double> LogHist::Percentile(double p) const {
  int64_t idx = RankIndex(p, count_);
  if (idx < 0) return std::nullopt;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > static_cast<uint64_t>(idx)) {
      if (i < kSub) return static_cast<double>(i);
      int shift = static_cast<int>(i / kSub) - 1;
      double lower = static_cast<double>((kSub + i % kSub) << shift);
      return lower + static_cast<double>(1ull << shift) / 2.0;
    }
  }
  return std::nullopt;
}

namespace {

void SleepUntilNs(int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

void Account(PhaseResult* r, Outcome o, int64_t end_ns, double latency_us) {
  ++r->attempted;
  if (o == Outcome::kCommitted) {
    ++r->committed;
    r->completions.push_back({end_ns, latency_us});
  } else if (o == Outcome::kFailed) {
    ++r->failed;
  }
}

/// Latencies of `p` split into `windows` equal slices of its interval.
std::vector<Dist> Windows(const PhaseResult& p, int windows) {
  std::vector<Dist> out(windows);
  const double len = static_cast<double>(p.stop_ns - p.start_ns) / windows;
  for (const Completion& c : p.completions) {
    auto w = static_cast<int>(static_cast<double>(c.end_ns - p.start_ns) / len);
    out[std::clamp(w, 0, windows - 1)].Add(c.latency_us);
  }
  return out;
}

int WindowCount(const PhaseResult& p) {
  return std::clamp(static_cast<int>(p.wall_s()), 1, 10);
}

}  // namespace

double WindowedRate(const PhaseResult& p) {
  const int n = WindowCount(p);
  const double len_s = p.wall_s() / n;
  std::vector<double> rates;
  for (const Dist& w : Windows(p, n)) {
    rates.push_back(static_cast<double>(w.n()) / len_s);
  }
  return Median(std::move(rates));
}

std::optional<double> WindowedPercentile(const PhaseResult& p, double pct) {
  // Twice the samples the percentile rule needs, per window on average.
  const double need = 2.0 * 10.0 / (1.0 - pct / 100.0);
  const int n = std::clamp(
      static_cast<int>(static_cast<double>(p.completions.size()) / need), 1,
      WindowCount(p));
  std::vector<double> values;
  for (const Dist& w : Windows(p, n)) {
    if (auto v = w.Percentile(pct)) values.push_back(*v);
  }
  if (values.empty()) return std::nullopt;
  return Median(std::move(values));
}

PhaseResult MergeSessions(const std::vector<PhaseResult>& per, size_t begin,
                          size_t end) {
  PhaseResult out;
  for (size_t i = begin; i < end && i < per.size(); ++i) {
    const PhaseResult& r = per[i];
    out.completions.insert(out.completions.end(), r.completions.begin(),
                           r.completions.end());
    out.late_us.Merge(r.late_us);
    out.attempted += r.attempted;
    out.committed += r.committed;
    out.failed += r.failed;
    out.start_ns = i == begin ? r.start_ns : std::min(out.start_ns, r.start_ns);
    out.stop_ns = std::max(out.stop_ns, r.stop_ns);
    out.overrun_s = std::max(out.overrun_s, r.overrun_s);
  }
  return out;
}

PhaseResult RunOpenLoop(int sessions, double rate_per_s, double seconds,
                        uint64_t seed, uint64_t seq_base,
                        const RequestFn& fn) {
  // Arrival offsets per session, drawn before the clock starts.
  std::vector<std::vector<int64_t>> due(sessions);
  double session_rate = rate_per_s / sessions;
  for (int s = 0; s < sessions; ++s) {
    Rng arrivals(Mix(seed, 0xA77A1ull + static_cast<uint64_t>(s)));
    double t = 0;
    for (;;) {
      t += -std::log(1.0 - arrivals.Uniform()) / session_rate;
      if (t >= seconds) break;
      due[s].push_back(static_cast<int64_t>(t * 1e9));
    }
  }
  std::vector<PhaseResult> per(sessions);
  const int64_t start = NowNs() + 2'000'000;
  std::vector<std::thread> threads;
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      for (size_t k = 0; k < due[s].size(); ++k) {
        int64_t due_ns = start + due[s][k];
        if (NowNs() < due_ns) SleepUntilNs(due_ns);
        int64_t begin = NowNs();
        per[s].late_us.Add(static_cast<double>(begin - due_ns) / 1e3);
        uint64_t seq = seq_base + static_cast<uint64_t>(s) +
                       static_cast<uint64_t>(sessions) * k;
        Outcome o = fn(s, seq, due_ns);
        int64_t end = NowNs();
        Account(&per[s], o, end, static_cast<double>(end - due_ns) / 1e3);
        per[s].stop_ns = end;
      }
    });
  }
  for (auto& t : threads) t.join();
  const int64_t scheduled_end = start + static_cast<int64_t>(seconds * 1e9);
  for (PhaseResult& r : per) r.start_ns = start;
  PhaseResult out = MergeSessions(per, 0, per.size());
  out.overrun_s =
      static_cast<double>(std::max<int64_t>(0, out.stop_ns - scheduled_end)) /
      1e9;
  out.stop_ns = std::max(out.stop_ns, scheduled_end);
  return out;
}

std::vector<PhaseResult> RunClosedLoop(int sessions, double seconds,
                                       uint64_t seq_base, const RequestFn& fn) {
  std::vector<PhaseResult> per(sessions);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      for (uint64_t k = 0;; ++k) {
        int64_t begin = NowNs();
        if (begin >= deadline) break;
        uint64_t seq = seq_base + static_cast<uint64_t>(s) +
                       static_cast<uint64_t>(sessions) * k;
        Outcome o = fn(s, seq, begin);
        int64_t end = NowNs();
        Account(&per[s], o, end, static_cast<double>(end - begin) / 1e3);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Requests in flight at the deadline finish after it; the phase's
  // interval is the same for every session.
  int64_t stop = deadline;
  for (const PhaseResult& r : per) {
    for (const Completion& c : r.completions) stop = std::max(stop, c.end_ns);
  }
  for (PhaseResult& r : per) {
    r.start_ns = start;
    r.stop_ns = stop;
  }
  return per;
}

ProcSample ProcSample::Now() {
  ProcSample s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  s.vol_csw = static_cast<uint64_t>(ru.ru_nvcsw);
  s.invol_csw = static_cast<uint64_t>(ru.ru_nivcsw);
  s.wall_ns = NowNs();
  return s;
}

namespace {

/// Value of a "Key:  <number> ..." line of /proc/self/status, or -1.
int64_t ProcStatusField(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::stoll(line.substr(key.size() + 1));
    }
  }
  return -1;
}

}  // namespace

int ProcThreads() { return static_cast<int>(ProcStatusField("Threads")); }

double PeakRssMb() {
  return static_cast<double>(ProcStatusField("VmHWM")) / 1024.0;
}

Sampler::Sampler(int period_ms, std::function<void()> fn)
    : fn_(std::move(fn)), period_ms_(period_ms), thread_([this] {
        std::unique_lock<std::mutex> lock(mu_);
        while (!cv_.wait_for(lock, std::chrono::milliseconds(period_ms_),
                             [this] { return stop_; })) {
          lock.unlock();
          fn_();
          lock.lock();
        }
      }) {}

Sampler::~Sampler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void RunResult::Require(const std::string& name, bool ok,
                        const std::string& detail) {
  checks.push_back(Check{name, ok, detail});
}

bool RunResult::correct() const {
  for (const Check& c : checks) {
    if (!c.ok) return false;
  }
  return !checks.empty();
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string RunResult::Json() const {
  std::ostringstream o;
  o << "{\"workload\":" << Quote(workload) << ",\"seed\":" << seed
    << ",\"traced\":" << (traced ? "true" : "false")
    << ",\"correct\":" << (correct() ? "true" : "false")
    << ",\"attempted\":" << attempted << ",\"failed\":" << failed
    << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    o << (first ? "" : ",") << Quote(name) << ":{\"value\":"
      << (m.value ? Number(*m.value) : "null") << ",\"unit\":" << Quote(m.unit)
      << ",\"n\":" << m.n << "}";
    first = false;
  }
  o << "},\"checks\":[";
  first = true;
  for (const Check& c : checks) {
    o << (first ? "" : ",") << "{\"name\":" << Quote(c.name)
      << ",\"ok\":" << (c.ok ? "true" : "false")
      << ",\"detail\":" << Quote(c.detail) << "}";
    first = false;
  }
  o << "],\"config\":{";
  first = true;
  for (const auto& [k, v] : config) {
    o << (first ? "" : ",") << Quote(k) << ":" << Quote(v);
    first = false;
  }
  o << "},\"spans\":[";
  first = true;
  for (const SpanRow& row : spans) {
    o << (first ? "" : ",") << "{\"name\":" << Quote(row.name)
      << ",\"count\":" << row.count << ",\"total_ms\":" << Number(row.total_ms)
      << ",\"self_ms\":" << Number(row.self_ms) << "}";
    first = false;
  }
  o << "]}";
  return o.str();
}

}  // namespace e2e
