#include "layers.h"

#include <algorithm>
#include <filesystem>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "trace.h"

namespace e2e {

using reach::Oid;
using reach::Result;
using reach::Session;
using reach::Status;
using reach::Value;

double Options::Scale(double default_s) const {
  if (smoke) return 2.0 / default_s;
  if (seconds > 0) return seconds / default_s;
  return 1.0;
}

void RemoveDb(const std::string& base) {
  std::error_code ec;
  std::filesystem::remove(base + ".db", ec);
  std::filesystem::remove(base + ".wal", ec);
}

std::string FreshDb(const Options& opt, const std::string& name) {
  std::filesystem::create_directories(opt.work_dir);
  std::string base = (std::filesystem::path(opt.work_dir) / name).string();
  RemoveDb(base);
  return base;
}

std::vector<std::unique_ptr<Session>> OpenSessions(reach::ReachDb* db,
                                                   int n) {
  std::vector<std::unique_ptr<Session>> out;
  for (int i = 0; i < n; ++i) out.push_back(db->CreateSession());
  return out;
}

Status RepeatSetup(const std::function<void()>& reset,
                   const std::function<Status()>& setup, RunResult* out) {
  constexpr size_t kMin = 3, kMax = 1000;
  constexpr double kSpendS = 2.0;
  std::vector<double> times;
  double spent = 0;
  while (times.size() < kMin || (spent < kSpendS && times.size() < kMax)) {
    reset();
    int64_t t0 = NowNs();
    REACH_RETURN_IF_ERROR(setup());
    times.push_back(SecondsSince(t0));
    spent += times.back();
  }
  out->Set("setup_s", Median(times), "s", times.size());
  return Status::OK();
}

Status Begin(Session& s) {
  trace::Span span("txn.begin");
  return s.Begin();
}

Status Commit(Session& s, const char* span_name) {
  trace::Span span(span_name);
  return s.Commit();
}

Status Abort(Session& s) {
  trace::Span span("txn.abort");
  return s.AbortAll();
}

Status Invoke(Session& s, const Oid& oid, const char* method,
              std::vector<Value> args) {
  trace::Span span("oodb.invoke");
  return s.Invoke(oid, method, std::move(args)).status();
}

Status SetAttr(Session& s, const Oid& oid, const char* attr, Value value) {
  trace::Span span("oodb.setattr");
  return s.SetAttr(oid, attr, std::move(value));
}

Result<Value> GetAttr(Session& s, const Oid& oid, const char* attr) {
  trace::Span span("oodb.getattr");
  return s.GetAttr(oid, attr);
}

Status LockExclusive(Session& s, const Oid& oid, int64_t timeout_us) {
  trace::Span span("txn.lock");
  return s.db()->txns()->locks()->Acquire(
      s.current_txn(), oid, reach::LockMode::kExclusive, timeout_us);
}

Result<reach::QueryResult> Query(reach::ReachDb& db, Session& s,
                                 const std::string& q) {
  trace::Span span("query.query");
  return db.Query(s, q);
}

reach::MethodImpl Traced(reach::MethodImpl body) {
  return [body = std::move(body)](Session& s, reach::DbObject& self,
                                  const std::vector<Value>& args)
             -> Result<Value> {
    trace::Span span("app.method");
    return body(s, self, args);
  };
}

void FinishRun(const Options& opt, RunResult* out) {
  if (!opt.trace) return;
  std::filesystem::create_directories(opt.out_dir);
  std::string path = (std::filesystem::path(opt.out_dir) /
                      (opt.workload + ".trace.json"))
                         .string();
  int64_t events = trace::WriteChromeTrace(path);
  out->Require("trace_written", events > 0,
               path + ": " + std::to_string(events) + " events");
  out->config["trace_file"] = path;
  std::vector<double> coverage = trace::RootCoverage("request");
  std::optional<double> worst;
  if (!coverage.empty()) {
    worst = *std::min_element(coverage.begin(), coverage.end());
  }
  out->Set("trace.coverage_min", worst, "ratio", coverage.size());
  if (opt.workload == "powerplant") {
    out->Require("trace_coverage", worst.has_value() && *worst >= 0.9,
                 "the child spans of every one of " +
                     std::to_string(coverage.size()) +
                     " sampled transactions cover >= 90% of it; worst " +
                     std::to_string(worst.value_or(0)));
  }
}

void ReactionLog::Fired(uint64_t seq, int64_t due_ns, int64_t start_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  fired_.push_back({seq, due_ns, start_ns});
}

void ReactionLog::Committed(uint64_t seq, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  commit_end_ns_[seq] = end_ns;
}

Dist ReactionLog::Reactions(uint64_t lo, uint64_t hi) const {
  Dist d;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Firing& f : fired_) {
    if (f.seq >= lo && f.seq < hi) {
      d.Add(static_cast<double>(f.start_ns - f.due_ns) / 1e3);
    }
  }
  return d;
}

Dist ReactionLog::DetachedLag(uint64_t lo, uint64_t hi) const {
  Dist d;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Firing& f : fired_) {
    if (f.seq < lo || f.seq >= hi) continue;
    auto it = commit_end_ns_.find(f.seq);
    if (it != commit_end_ns_.end()) {
      d.Add(static_cast<double>(f.start_ns - it->second) / 1e3);
    }
  }
  return d;
}

void LayerWindow::Resume(reach::ReachDb* db) {
  db_ = db;
  if (traced_) {
    auto& reg = reach::obs::MetricsRegistry::Instance();
    if (!started_) reg.ResetAll();
    reg.SetEnabled(true);
    trace::SetEnabled(true);
    sampler_ = std::make_unique<Sampler>(10, [this] {
      size_t depth = db_->events()->composition_queue_depth();
      size_t prev = queue_depth_max_.load(std::memory_order_relaxed);
      if (depth > prev) queue_depth_max_.store(depth);
      int threads = ProcThreads();
      if (threads > threads_max_.load(std::memory_order_relaxed)) {
        threads_max_.store(threads);
      }
    });
  }
  started_ = true;
  running_ = true;
  deadlocks_at_resume_ = db->database()->txns()->locks()->deadlocks_detected();
  at_resume_ = ProcSample::Now();
}

void LayerWindow::Pause() {
  if (!running_) return;
  ProcSample now = ProcSample::Now();
  cpu_s_ += now.cpu_s - at_resume_.cpu_s;
  wall_s_ += static_cast<double>(now.wall_ns - at_resume_.wall_ns) / 1e9;
  vol_csw_ += now.vol_csw - at_resume_.vol_csw;
  invol_csw_ += now.invol_csw - at_resume_.invol_csw;
  deadlocks_ += db_->database()->txns()->locks()->deadlocks_detected() -
                deadlocks_at_resume_;
  if (traced_) {
    sampler_.reset();
    trace::SetEnabled(false);
    reach::obs::MetricsRegistry::Instance().SetEnabled(false);
  }
  running_ = false;
}

namespace {

/// Percentile of an obs histogram under the percentile rule.
std::optional<double> ObsPct(const reach::obs::HistogramSnapshot& h, double p,
                             double scale) {
  if (RankIndex(p, h.count) < 0) return std::nullopt;
  return static_cast<double>(h.ValueAtPercentile(p)) * scale;
}

std::optional<double> Ratio(double num, double den) {
  if (den <= 0) return std::nullopt;
  return num / den;
}

}  // namespace

void LayerWindow::Report(const WindowCounts& c, RunResult* out) {
  Pause();
  const double nproc = std::max(1u, std::thread::hardware_concurrency());
  double txns = static_cast<double>(c.txns);
  out->Set("proc.cpu_util", Ratio(cpu_s_, wall_s_ * nproc), "ratio");
  out->Set("proc.vol_csw_per_txn", Ratio(static_cast<double>(vol_csw_), txns),
           "count", c.txns);
  out->Set("proc.invol_csw_per_s",
           Ratio(static_cast<double>(invol_csw_), wall_s_), "1/s");
  out->Set("txn.deadlock_ratio",
           Ratio(static_cast<double>(deadlocks_), txns + c.queries), "ratio",
           c.txns + c.queries);
  out->Set("rules.detached_lag_p50_us", c.detached_lag_us.Percentile(50),
           "us", c.detached_lag_us.n());
  out->Set("rules.detached_lag_p99_us", c.detached_lag_us.Percentile(99),
           "us", c.detached_lag_us.n());
  out->Set("storage.recovery_records", c.recovery_records, "count");
  out->Set("txn.lock_restarts", static_cast<double>(c.lock_restarts), "count");
  if (!traced_) return;

  out->Set("proc.threads", threads_max_.load(), "count");
  out->Set("events.queue_depth_max",
           static_cast<double>(queue_depth_max_.load()), "count");

  // Bench-side spans.
  auto spans = trace::Collect();
  for (const auto& [name, s] : spans) {
    out->spans.push_back({name, s.count, static_cast<double>(s.total_ns) / 1e6,
                          static_cast<double>(s.self_ns) / 1e6});
  }
  auto stats = [&](const char* name) -> const trace::NameStats* {
    auto it = spans.find(name);
    return it == spans.end() ? nullptr : &it->second;
  };
  auto mean_us = [&](const char* name, bool self) -> std::optional<double> {
    const trace::NameStats* s = stats(name);
    if (s == nullptr || s->count == 0) return std::nullopt;
    return static_cast<double>(self ? s->self_ns : s->total_ns) / 1e3 /
           static_cast<double>(s->count);
  };
  auto pct_us = [&](const char* name, double p,
                    bool self) -> std::optional<double> {
    const trace::NameStats* s = stats(name);
    if (s == nullptr) return std::nullopt;
    auto v = (self ? s->self : s->total).Percentile(p);
    if (!v) return std::nullopt;
    return *v / 1e3;
  };
  auto count = [&](const char* name) -> uint64_t {
    const trace::NameStats* s = stats(name);
    return s == nullptr ? 0 : s->count;
  };
  out->Set("oodb.invoke_self_us", mean_us("oodb.invoke", true), "us",
           count("oodb.invoke"));
  out->Set("oodb.setattr_p50_us", pct_us("oodb.setattr", 50, false), "us",
           count("oodb.setattr"));
  out->Set("oodb.setattr_p99_us", pct_us("oodb.setattr", 99, false), "us",
           count("oodb.setattr"));
  out->Set("oodb.getattr_p50_us", pct_us("oodb.getattr", 50, false), "us",
           count("oodb.getattr"));
  out->Set("rules.cond_us.immediate", mean_us("rules.cond.immediate", false),
           "us", count("rules.cond.immediate"));
  out->Set("rules.action_us.immediate",
           mean_us("rules.action.immediate", false), "us",
           count("rules.action.immediate"));
  out->Set("rules.action_us.deferred", mean_us("rules.action.deferred", false),
           "us", count("rules.action.deferred"));
  out->Set("txn.begin_us", mean_us("txn.begin", false), "us",
           count("txn.begin"));
  out->Set("txn.commit_self_p50_us", pct_us("txn.commit", 50, true), "us",
           count("txn.commit"));
  out->Set("txn.commit_self_p99_us", pct_us("txn.commit", 99, true), "us",
           count("txn.commit"));
  std::optional<double> query_commit_us = mean_us("txn.commit.query", false);
  out->Set("txn.query_commit_ms",
           query_commit_us ? std::optional<double>(*query_commit_us / 1e3)
                           : std::nullopt,
           "ms", count("txn.commit.query"));

  // Counters the program exports through obs::MetricsRegistry.
  namespace obs = reach::obs;
  auto& reg = obs::MetricsRegistry::Instance();
  auto counter = [&](const char* name) {
    return static_cast<double>(reg.counter(name)->value());
  };
  auto hist = [&](const std::string& name) {
    return reg.histogram(name)->Snapshot();
  };
  double signaled = counter(obs::kEventsSignaled);
  out->Set("events.signaled_per_txn", Ratio(signaled, txns), "count", c.txns);
  out->Set("events.composed_per_txn",
           Ratio(counter(obs::kEventsComposed), txns), "count", c.txns);
  auto batch = hist(obs::kEventsBatchSize);
  out->Set("events.batch_size_mean",
           batch.count ? std::optional<double>(batch.Mean()) : std::nullopt,
           "count", batch.count);
  out->Set("events.batch_fallback_ratio",
           Ratio(counter(obs::kEventsBatchFallbacks), signaled), "ratio");
  auto s2c = hist(obs::kSpanSignalToCompose);
  out->Set("events.signal_to_compose_p50_us", ObsPct(s2c, 50, 1e-3), "us",
           s2c.count);
  out->Set("events.signal_to_compose_p99_us", ObsPct(s2c, 99, 1e-3), "us",
           s2c.count);
  out->Set("events.compositor_lock_wait_ms",
           static_cast<double>(hist(obs::kCompositorLockWaitNs).sum) / 1e6,
           "ms");
  out->Set("events.steals", counter(obs::kCompositionSteals), "count");
  out->Set("events.history_logged_per_txn",
           Ratio(counter(obs::kEventHistoryLogged), txns), "count", c.txns);

  for (const char* mode :
       {"immediate", "deferred", "detached", "exc.caus.dep"}) {
    auto h = hist(std::string(obs::kRulesExecNsPrefix) + mode);
    out->Set(std::string("rules.exec_p50_us.") + mode, ObsPct(h, 50, 1e-3),
             "us", h.count);
  }
  out->Set("rules.failures", counter(obs::kRulesFailures), "count");
  out->Set("rules.dependency_skips", counter(obs::kRulesDependencySkips),
           "count");

  out->Set("storage.wal.fsyncs_per_txn",
           Ratio(counter(obs::kWalFsyncCount), txns + c.queries), "count");
  auto group = hist(obs::kWalGroupSize);
  out->Set("storage.wal.group_size_mean",
           group.count ? std::optional<double>(group.Mean()) : std::nullopt,
           "count", group.count);
  auto group_wait = hist(obs::kWalGroupWaitNs);
  out->Set("storage.wal.group_wait_p50_us", ObsPct(group_wait, 50, 1e-3), "us",
           group_wait.count);
  out->Set("storage.wal.bytes_per_txn",
           Ratio(counter(obs::kWalFlushedBytes), txns + c.queries), "B");
  double hits = counter(obs::kBufHit);
  double misses = counter(obs::kBufMiss);
  out->Set("storage.bufferpool.hit_ratio", Ratio(hits, hits + misses),
           "ratio");
  out->Set("storage.bufferpool.misses_per_query",
           Ratio(misses, static_cast<double>(c.queries)), "count", c.queries);
  auto disk = hist(obs::kDiskCompleteNs);
  out->Set("storage.disk.complete_p50_us", ObsPct(disk, 50, 1e-3), "us",
           disk.count);
  out->Set("storage.bufferpool.sync_fallbacks",
           counter(obs::kBufEvictSyncFallback), "count");

  if (c.query != nullptr && c.query->committed > 0) {
    const QueryStats& q = *c.query;
    double n = static_cast<double>(q.committed);
    out->Set("query.exec_p50_ms", q.exec_ms.Percentile(50), "ms",
             q.exec_ms.n());
    out->Set("query.plan_parse_ms", q.plan_parse_ms / n, "ms", q.committed);
    out->Set("query.scanned_per_returned",
             Ratio(static_cast<double>(q.scanned),
                   static_cast<double>(q.returned)),
             "ratio", q.committed);
    out->Set("query.morsels_mean", static_cast<double>(q.morsels) / n, "count",
             q.committed);
    out->Set("query.workers_mean", static_cast<double>(q.workers) / n, "count",
             q.committed);
  } else {
    for (const char* name : {"query.exec_p50_ms", "query.plan_parse_ms"}) {
      out->Set(name, std::nullopt, "ms");
    }
    for (const char* name : {"query.morsels_mean", "query.workers_mean"}) {
      out->Set(name, 0.0, "count");
    }
    out->Set("query.scanned_per_returned", std::nullopt, "ratio");
  }
}

}  // namespace e2e
