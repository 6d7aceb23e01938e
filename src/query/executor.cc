#include "query/executor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <iterator>
#include <map>
#include <mutex>
#include <thread>

#include "common/completion.h"
#include "common/thread_pool.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "storage/object_store.h"
#include "testing/fault_points.h"
#include "testing/fault_registry.h"

namespace reach {

Result<Value> ObjectEnv::Resolve(const std::vector<std::string>& path) {
  if (path.empty()) return Status::InvalidArgument("empty path");
  size_t attr_start = 0;
  if (path[0] == alias_) {
    if (path.size() == 1) return Value(obj_->oid());
    attr_start = 1;
  }
  // First attribute must exist on the candidate object.
  const std::string& attr = path[attr_start];
  if (!obj_->Has(attr)) {
    return Status::NotFound("attribute " + attr + " on " +
                            obj_->class_name());
  }
  Value v = obj_->Get(attr);
  // Follow reference attributes for multi-segment paths (o.ref.attr).
  for (size_t i = attr_start + 1; i < path.size(); ++i) {
    if (!v.is_ref()) {
      return Status::InvalidArgument("path segment '" + path[i] +
                                     "' applied to non-reference value");
    }
    REACH_ASSIGN_OR_RETURN(std::shared_ptr<DbObject> next,
                           session_->Fetch(v.as_ref()));
    if (!next->Has(path[i])) {
      return Status::NotFound("attribute " + path[i] + " on " +
                              next->class_name());
    }
    v = next->Get(path[i]);
  }
  return v;
}

namespace {

struct Hit {
  Oid oid;
  std::shared_ptr<DbObject> obj;
  Value sort_key;
};

/// Partial aggregate state of one group (single group when no group-by).
struct GroupState {
  Value key;
  size_t count = 0;
  std::vector<double> sums;    // per item
  std::vector<size_t> counts;  // non-null inputs per item
  std::vector<Value> mins, maxs;
};
using GroupMap = std::map<std::string, GroupState>;  // by encoded key

/// One worker's partial result: hits in canonical scan order (the worker
/// owns a contiguous morsel slice, so concatenating outputs in worker order
/// reproduces the serial sequence exactly).
struct WorkerOutput {
  std::vector<Hit> hits;  // row mode
  GroupMap groups;        // aggregate mode
  size_t scanned = 0;
};

/// Read-only state shared by all workers of one query.
struct ScanContext {
  Session* session;
  const SelectStatement* stmt;
  const QueryPlan* plan;
  BufferPool* pool;  // morsel readahead; null on the index path
};

/// Evaluate the plan's fast prefix directly against the attribute map.
/// Mirrors ObjectEnv::Resolve (missing attribute => NotFound, which the
/// caller treats as no-match) and CompareValues' null/error semantics, so
/// taking the fast path can never change a query's result.
Result<bool> FastPrefixPasses(const QueryPlan& plan, const DbObject& obj) {
  for (const QueryPlan::FastComparison& fc : plan.fast_prefix) {
    if (!obj.Has(fc.attr)) {
      return Status::NotFound("attribute " + fc.attr + " on " +
                              obj.class_name());
    }
    REACH_ASSIGN_OR_RETURN(
        Value keep, CompareValues(fc.op, obj.Get(fc.attr), *fc.literal));
    if (!keep.as_bool()) return false;
  }
  return true;
}

void FoldAggregate(const SelectStatement& stmt, const DbObject& obj,
                   GroupMap* groups) {
  Value key = stmt.group_by.empty() ? Value() : obj.Get(stmt.group_by);
  std::string enc;
  key.Encode(&enc);
  GroupState& g = (*groups)[enc];
  size_t n_items = stmt.items.size();
  if (g.count == 0) {
    g.key = key;
    g.sums.assign(n_items, 0);
    g.counts.assign(n_items, 0);
    g.mins.assign(n_items, Value());
    g.maxs.assign(n_items, Value());
  }
  g.count++;
  for (size_t i = 0; i < n_items; ++i) {
    const SelectItem& item = stmt.items[i];
    if (!item.is_aggregate() || item.attr.empty()) continue;
    Value v = obj.Get(item.attr);
    if (v.is_null()) continue;
    g.counts[i]++;
    if (v.is_numeric()) g.sums[i] += v.AsNumber();
    if (g.mins[i].is_null() || v < g.mins[i]) g.mins[i] = v;
    if (g.maxs[i].is_null() || v > g.maxs[i]) g.maxs[i] = v;
  }
}

/// Fold `src` into `dst`. Called in worker order, so partial sums combine
/// in the same left-to-right sequence every run.
void MergeGroups(GroupMap&& src, GroupMap* dst) {
  for (auto& [enc, gs] : src) {
    auto [it, inserted] = dst->emplace(enc, GroupState{});
    GroupState& g = it->second;
    if (g.count == 0) {
      g = std::move(gs);
      continue;
    }
    g.count += gs.count;
    for (size_t i = 0; i < g.sums.size(); ++i) {
      g.sums[i] += gs.sums[i];
      g.counts[i] += gs.counts[i];
      if (!gs.mins[i].is_null() &&
          (g.mins[i].is_null() || gs.mins[i] < g.mins[i])) {
        g.mins[i] = gs.mins[i];
      }
      if (!gs.maxs[i].is_null() &&
          (g.maxs[i].is_null() || gs.maxs[i] > g.maxs[i])) {
        g.maxs[i] = gs.maxs[i];
      }
    }
  }
}

/// Predicate + accumulate for one candidate. `use_fast` is false on the
/// index path (no fast prefix is compiled for it).
Status ProcessObject(const ScanContext& ctx, const Oid& oid,
                     const std::shared_ptr<DbObject>& obj, bool use_fast,
                     WorkerOutput* out) {
  ++out->scanned;
  const SelectStatement& stmt = *ctx.stmt;
  if (stmt.where) {
    bool residual = true;
    if (use_fast) {
      auto fast = FastPrefixPasses(*ctx.plan, *obj);
      // Missing attributes on heterogeneous extents: treat as no-match.
      if (!fast.ok()) {
        if (fast.status().IsNotFound()) return Status::OK();
        return fast.status();
      }
      if (!fast.value()) return Status::OK();
      residual = !ctx.plan->fast_exact;
    }
    if (residual) {
      ObjectEnv env(ctx.session, stmt.alias, obj.get());
      auto keep = EvaluateBool(stmt.where, &env);
      if (!keep.ok()) {
        if (keep.status().IsNotFound()) return Status::OK();
        return keep.status();
      }
      if (!keep.value()) return Status::OK();
    }
  }
  if (ctx.plan->aggregate_mode) {
    FoldAggregate(stmt, *obj, &out->groups);
    return Status::OK();
  }
  Hit hit;
  hit.oid = oid;
  hit.obj = obj;
  if (!stmt.order_by.empty()) {
    ObjectEnv env(ctx.session, stmt.alias, obj.get());
    auto key = env.Resolve(stmt.order_by);
    hit.sort_key = key.ok() ? key.value() : Value();
  }
  out->hits.push_back(std::move(hit));
  return Status::OK();
}

Status RunMorsel(const ScanContext& ctx, const Session::ExtentScan& scan,
                 const Session::ExtentMorsel& m, WorkerOutput* out) {
  {
    Status st = REACH_FAULT_HIT(faults::kQueryMorsel);
    if (!st.ok()) return st;
  }
  // Warm the morsel's home pages, windowed so one call never floods the
  // pool. Readahead failure only costs performance (FetchPage falls back to
  // a per-page read), so it is not propagated.
  for (size_t i = 0; i < m.pages.size();
       i += ObjectStore::kScanReadAheadPages) {
    size_t n =
        std::min(m.pages.size() - i, ObjectStore::kScanReadAheadPages);
    std::vector<PageId> window(m.pages.begin() + i, m.pages.begin() + i + n);
    (void)ctx.pool->ReadAhead(window);
  }
  std::vector<Oid> oids(scan.oids.begin() + m.begin,
                        scan.oids.begin() + m.end);
  std::vector<std::shared_ptr<DbObject>> objs;
  REACH_RETURN_IF_ERROR(ctx.session->FetchMany(oids, &objs));
  bool use_fast = !ctx.plan->fast_prefix.empty();
  for (size_t i = 0; i < oids.size(); ++i) {
    REACH_RETURN_IF_ERROR(
        ProcessObject(ctx, oids[i], objs[i], use_fast, out));
  }
  return Status::OK();
}

/// Shared scan pool, grown by replacement when a query asks for more
/// workers than the current pool has: in-flight queries keep the old pool
/// alive through their shared_ptr until their fan-out drains.
std::shared_ptr<ThreadPool> ScanPool(size_t workers) {
  static std::mutex mu;
  static auto* pool = new std::shared_ptr<ThreadPool>();  // no exit-order dtor
  std::lock_guard<std::mutex> lock(mu);
  if (!*pool || (*pool)->num_threads() < workers) {
    *pool = std::make_shared<ThreadPool>(workers);
  }
  return *pool;
}

Status RunParallel(const ScanContext& ctx, const Session::ExtentScan& scan,
                   size_t workers, std::vector<WorkerOutput>* outputs) {
  std::shared_ptr<ThreadPool> pool = ScanPool(workers);
  CompletionLatch latch(workers);
  std::atomic<bool> cancel{false};
  std::mutex crash_mu;
  std::exception_ptr crash;
  size_t n = scan.morsels.size();
  size_t base = n / workers, rem = n % workers;
  size_t lo = 0;
  for (size_t w = 0; w < workers; ++w) {
    size_t hi = lo + base + (w < rem ? 1 : 0);
    WorkerOutput* out = &(*outputs)[w];
    bool accepted = pool->Submit([&ctx, &scan, &latch, &cancel, &crash,
                                  &crash_mu, lo, hi, out] {
      Status st;
      try {
        for (size_t m = lo;
             m < hi && !cancel.load(std::memory_order_relaxed); ++m) {
          st = RunMorsel(ctx, scan, scan.morsels[m], out);
          if (!st.ok()) {
            cancel.store(true, std::memory_order_relaxed);
            break;
          }
        }
      } catch (...) {
        // Injected crash fault on a worker: park it and rethrow on the
        // querying thread after the join (the wal.flusher.batch
        // convention), never on a pool thread.
        std::lock_guard<std::mutex> lock(crash_mu);
        if (!crash) crash = std::current_exception();
        cancel.store(true, std::memory_order_relaxed);
      }
      latch.CountDown(st);
    });
    if (!accepted) {
      latch.CountDown(Status::Aborted("query worker pool shut down"));
    }
    lo = hi;
  }
  Status st = latch.Wait();
  if (crash) std::rethrow_exception(crash);
  return st;
}

void EmitAggregateRows(const SelectStatement& stmt, const GroupMap& groups,
                       QueryResult* result) {
  size_t n_items = stmt.items.size();
  if (groups.empty() && stmt.group_by.empty()) {
    // Aggregates without GROUP BY yield one row even over no objects:
    // counts are 0, every other aggregate is null.
    QueryRow row;
    for (const SelectItem& item : stmt.items) {
      row.values.push_back(item.kind == SelectItem::Kind::kCount
                               ? Value(int64_t{0})
                               : Value());
    }
    result->rows.push_back(std::move(row));
    return;
  }
  for (const auto& [_, g] : groups) {
    QueryRow row;
    for (size_t i = 0; i < n_items; ++i) {
      const SelectItem& item = stmt.items[i];
      switch (item.kind) {
        case SelectItem::Kind::kAttr:
          row.values.push_back(g.key);
          break;
        case SelectItem::Kind::kCount:
          row.values.push_back(Value(static_cast<int64_t>(
              item.attr.empty() ? g.count : g.counts[i])));
          break;
        case SelectItem::Kind::kSum:
          row.values.push_back(Value(g.sums[i]));
          break;
        case SelectItem::Kind::kAvg:
          row.values.push_back(
              g.counts[i] == 0 ? Value()
                               : Value(g.sums[i] /
                                       static_cast<double>(g.counts[i])));
          break;
        case SelectItem::Kind::kMin:
          row.values.push_back(g.mins[i]);
          break;
        case SelectItem::Kind::kMax:
          row.values.push_back(g.maxs[i]);
          break;
      }
    }
    result->rows.push_back(std::move(row));
    if (stmt.limit && result->rows.size() >= *stmt.limit) break;
  }
}

void EmitRows(const SelectStatement& stmt, std::vector<Hit>* hits,
              QueryResult* result) {
  if (!stmt.order_by.empty()) {
    bool desc = stmt.order_desc;
    std::stable_sort(hits->begin(), hits->end(),
                     [desc](const Hit& a, const Hit& b) {
                       auto c = a.sort_key <=> b.sort_key;
                       if (c == std::partial_ordering::unordered) return false;
                       return desc ? c == std::partial_ordering::greater
                                   : c == std::partial_ordering::less;
                     });
  }
  size_t limit = stmt.limit.value_or(hits->size());
  for (size_t i = 0; i < hits->size() && i < limit; ++i) {
    QueryRow row;
    row.oid = (*hits)[i].oid;
    for (const SelectItem& item : stmt.items) {
      row.values.push_back((*hits)[i].obj->Get(item.attr));
    }
    result->rows.push_back(std::move(row));
  }
}

}  // namespace

Result<QueryResult> ExecutePlan(Session& session, const SelectStatement& stmt,
                                const QueryPlan& plan,
                                const QueryOptions& options) {
  uint64_t start = obs::NowNanos();
  QueryResult result;
  ScanContext ctx{&session, &stmt, &plan, nullptr};
  std::vector<WorkerOutput> outputs;

  if (plan.access != QueryPlan::Access::kExtentScan) {
    // Index plans stay serial: candidates are already narrowed, and index
    // order feeds the (unsorted, no-order-by) output directly.
    result.used_index = true;
    outputs.resize(1);
    for (const Oid& oid : plan.candidates) {
      REACH_ASSIGN_OR_RETURN(std::shared_ptr<DbObject> obj,
                             session.Fetch(oid));
      REACH_RETURN_IF_ERROR(
          ProcessObject(ctx, oid, obj, false, &outputs[0]));
    }
  } else {
    REACH_ASSIGN_OR_RETURN(
        Session::ExtentScan scan,
        session.ExtentMorsels(stmt.class_name, options.morsel_pages));
    result.morsels = scan.morsels.size();
    ctx.pool = session.db()->storage()->buffer_pool();
    size_t workers = 1;
    if (options.parallel && scan.morsels.size() > 1) {
      size_t cap = options.workers != 0 ? options.workers
                                        : std::thread::hardware_concurrency();
      workers = std::max<size_t>(1, std::min(cap, scan.morsels.size()));
    }
    result.workers = workers;
    outputs.resize(workers);
    if (workers <= 1) {
      for (const Session::ExtentMorsel& m : scan.morsels) {
        REACH_RETURN_IF_ERROR(RunMorsel(ctx, scan, m, &outputs[0]));
      }
    } else {
      REACH_RETURN_IF_ERROR(RunParallel(ctx, scan, workers, &outputs));
    }
  }

  // Merge partials in worker order over contiguous morsel slices, then
  // emit — identical to the serial fold by construction.
  for (const WorkerOutput& out : outputs) result.scanned += out.scanned;
  if (plan.aggregate_mode) {
    GroupMap groups;
    for (WorkerOutput& out : outputs) {
      MergeGroups(std::move(out.groups), &groups);
    }
    EmitAggregateRows(stmt, groups, &result);
  } else {
    std::vector<Hit> hits;
    for (WorkerOutput& out : outputs) {
      hits.insert(hits.end(), std::make_move_iterator(out.hits.begin()),
                  std::make_move_iterator(out.hits.end()));
    }
    EmitRows(stmt, &hits, &result);
  }

  result.exec_ns = obs::NowNanos() - start;
  static obs::Histogram* exec_hist =
      obs::MetricsRegistry::Instance().histogram(obs::kQueryExecNs);
  static obs::Histogram* morsel_hist =
      obs::MetricsRegistry::Instance().histogram(obs::kQueryMorsels);
  static obs::Gauge* workers_gauge =
      obs::MetricsRegistry::Instance().gauge(obs::kQueryParallelWorkers);
  static obs::Counter* scanned_counter =
      obs::MetricsRegistry::Instance().counter(obs::kQueryRowsScanned);
  exec_hist->Record(result.exec_ns);
  morsel_hist->Record(result.morsels);
  workers_gauge->Set(static_cast<int64_t>(result.workers));
  scanned_counter->Inc(result.scanned);
  return result;
}

}  // namespace reach
