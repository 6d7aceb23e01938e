#include "query/executor.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <thread>

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
    if (path.size() == 1) return Value(oid_);
    attr_start = 1;
  }
  // First attribute must exist on the candidate object (NotFound if not).
  REACH_ASSIGN_OR_RETURN(Value v, record_->Get(path[attr_start]));
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

/// One returned row before emission: only what the row shows and sorts by.
struct Hit {
  Oid oid;
  std::vector<Value> values;  // projected attributes
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

/// One worker's partial result: hits in page order (the worker
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
  TxnId txn;
  ObjectStore* store;  // morsel page listing; null on the index path
  BufferPool* pool;    // morsel readahead; null on the index path
  // False when the where clause or the sort key follows a reference:
  // resolving it locks and reads another object, which must not happen
  // under a page stripe, so such scans copy each record out first.
  bool in_place = true;
};

/// True if resolving `path` reads an object other than the candidate.
bool Dereferences(const std::vector<std::string>& path,
                  const std::string& alias) {
  size_t attrs = path.size();
  if (!path.empty() && path[0] == alias) --attrs;
  return attrs > 1;
}

bool Dereferences(const ExprPtr& expr, const std::string& alias) {
  if (!expr) return false;
  if (expr->op() == ExprOp::kPath) return Dereferences(expr->path(), alias);
  for (const ExprPtr& operand : expr->operands()) {
    if (Dereferences(operand, alias)) return true;
  }
  return false;
}

/// `attr` of the record, null when the record does not carry it (the
/// DbObject::Get convention for projections and aggregates).
Result<Value> AttrOrNull(const RecordView& rec, const std::string& attr) {
  Result<Value> v = rec.Get(attr);
  if (!v.ok() && v.status().IsNotFound()) return Value();
  return v;
}

/// Evaluate the plan's fast prefix directly against the record. Mirrors
/// ObjectEnv::Resolve (missing attribute => NotFound, which the caller
/// treats as no-match) and CompareValues' null/error semantics, so taking
/// the fast path can never change a query's result.
Result<bool> FastPrefixPasses(const QueryPlan& plan, const RecordView& rec) {
  for (const QueryPlan::FastComparison& fc : plan.fast_prefix) {
    REACH_ASSIGN_OR_RETURN(Value v, rec.Get(fc.attr));
    REACH_ASSIGN_OR_RETURN(Value keep, CompareValues(fc.op, v, *fc.literal));
    if (!keep.as_bool()) return false;
  }
  return true;
}

Status FoldAggregate(const SelectStatement& stmt, const RecordView& rec,
                     GroupMap* groups) {
  Value key;
  if (!stmt.group_by.empty()) {
    REACH_ASSIGN_OR_RETURN(key, AttrOrNull(rec, stmt.group_by));
  }
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
    REACH_ASSIGN_OR_RETURN(Value v, AttrOrNull(rec, item.attr));
    if (v.is_null()) continue;
    g.counts[i]++;
    if (v.is_numeric()) g.sums[i] += v.AsNumber();
    if (g.mins[i].is_null() || v < g.mins[i]) g.mins[i] = v;
    if (g.maxs[i].is_null() || v > g.maxs[i]) g.maxs[i] = v;
  }
  return Status::OK();
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

/// Predicate + accumulate for one candidate record. `use_fast` is false on
/// the index path (no fast prefix is compiled for it).
Status ProcessRecord(const ScanContext& ctx, const Oid& oid,
                     const RecordView& rec, bool use_fast,
                     WorkerOutput* out) {
  ++out->scanned;
  const SelectStatement& stmt = *ctx.stmt;
  if (stmt.where) {
    bool residual = true;
    if (use_fast) {
      auto fast = FastPrefixPasses(*ctx.plan, rec);
      // Missing attributes on heterogeneous extents: treat as no-match.
      if (!fast.ok()) {
        if (fast.status().IsNotFound()) return Status::OK();
        return fast.status();
      }
      if (!fast.value()) return Status::OK();
      residual = !ctx.plan->fast_exact;
    }
    if (residual) {
      ObjectEnv env(ctx.session, stmt.alias, oid, &rec);
      auto keep = EvaluateBool(stmt.where, &env);
      if (!keep.ok()) {
        if (keep.status().IsNotFound()) return Status::OK();
        return keep.status();
      }
      if (!keep.value()) return Status::OK();
    }
  }
  if (ctx.plan->aggregate_mode) return FoldAggregate(stmt, rec, &out->groups);
  Hit hit;
  hit.oid = oid;
  hit.values.reserve(stmt.items.size());
  for (const SelectItem& item : stmt.items) {
    REACH_ASSIGN_OR_RETURN(Value v, AttrOrNull(rec, item.attr));
    hit.values.push_back(std::move(v));
  }
  if (!stmt.order_by.empty()) {
    ObjectEnv env(ctx.session, stmt.alias, oid, &rec);
    auto key = env.Resolve(stmt.order_by);
    hit.sort_key = key.ok() ? key.value() : Value();
  }
  out->hits.push_back(std::move(hit));
  return Status::OK();
}

Status RunMorsel(const ScanContext& ctx, const Session::ExtentMorsel& pages,
                 WorkerOutput* out) {
  {
    Status st = REACH_FAULT_HIT(faults::kQueryMorsel);
    if (!st.ok()) return st;
  }
  // The extent S lock taken by Session::ExtentMorsels is the scan's whole
  // guard: inserters and deleters hold the extent X and updaters its IX
  // until they end, so while it is held no home on these pages changes and
  // none holds an uncommitted record. The records are read in place, and
  // no object is locked.
  Database* db = ctx.session->db();
  bool use_fast = !ctx.plan->fast_prefix.empty();
  std::vector<std::pair<Oid, std::string>> copies;  // !in_place
  // kFetch announcements run rules, so they wait until no stripe is held.
  std::vector<std::pair<Oid, std::string>> fetched;
  std::string monitored_class;
  bool monitored = false;
  auto visit = [&](const Oid& oid, std::string_view bytes) -> Status {
    REACH_ASSIGN_OR_RETURN(RecordView rec, RecordView::Parse(bytes));
    if (rec.class_name() != monitored_class) {
      monitored_class = rec.class_name();
      monitored = db->bus()->Monitored(SentryKind::kFetch, monitored_class, "");
    }
    if (monitored) fetched.emplace_back(oid, monitored_class);
    if (!ctx.in_place) {
      copies.emplace_back(oid, bytes);
      return Status::OK();
    }
    return ProcessRecord(ctx, oid, rec, use_fast, out);
  };
  // Warm the pages window by window so one call never floods the pool.
  // Readahead failure only costs performance (FetchPage falls back to a
  // per-page read), so it is not propagated.
  for (size_t i = 0; i < pages.size(); i += ObjectStore::kScanReadAheadPages) {
    size_t n = std::min(pages.size() - i, ObjectStore::kScanReadAheadPages);
    std::vector<PageId> window(pages.begin() + i, pages.begin() + i + n);
    (void)ctx.pool->ReadAhead(window);
    for (PageId page : window) {
      REACH_RETURN_IF_ERROR(ctx.store->VisitHomes(page, visit));
    }
  }
  for (const auto& [oid, bytes] : copies) {
    REACH_ASSIGN_OR_RETURN(RecordView rec, RecordView::Parse(bytes));
    REACH_RETURN_IF_ERROR(ProcessRecord(ctx, oid, rec, use_fast, out));
  }
  for (const auto& [oid, class_name] : fetched) {
    db->persistence()->AnnounceFetch(ctx.txn, oid, class_name);
  }
  return Status::OK();
}

/// The process-wide morsel pool: one thread per core, created on first use
/// and never destroyed (no exit-order destructor).
ThreadPool& MorselPool() {
  static auto* pool =
      new ThreadPool(std::max(1u, std::thread::hardware_concurrency()));
  return *pool;
}

/// Run the morsels as `workers` contiguous slices, slice w into
/// (*outputs)[w]: inline for one worker, else fanned out over the morsel
/// pool with the querying thread running a share (ThreadPool::ForEach). A
/// failed morsel stops the slices that have not passed it yet.
Status RunSlices(const ScanContext& ctx,
                 const std::vector<Session::ExtentMorsel>& morsels,
                 size_t workers, std::vector<WorkerOutput>* outputs) {
  const size_t base = morsels.size() / workers;
  const size_t rem = morsels.size() % workers;
  std::atomic<bool> cancel{false};
  auto slice = [&](size_t w) {
    const size_t lo = w * base + std::min(w, rem);
    const size_t hi = lo + base + (w < rem ? 1 : 0);
    for (size_t m = lo; m < hi && !cancel.load(std::memory_order_relaxed);
         ++m) {
      Status st = RunMorsel(ctx, morsels[m], &(*outputs)[w]);
      if (!st.ok()) {
        cancel.store(true, std::memory_order_relaxed);
        return st;
      }
    }
    return Status::OK();
  };
  if (workers == 1) return slice(0);
  return MorselPool().ForEach(workers, slice);
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
    row.values = std::move((*hits)[i].values);
    result->rows.push_back(std::move(row));
  }
}

}  // namespace

Result<QueryResult> ExecutePlan(Session& session, const SelectStatement& stmt,
                                const QueryPlan& plan,
                                const QueryOptions& options) {
  uint64_t start = obs::NowNanos();
  QueryResult result;
  ScanContext ctx{&session, &stmt, &plan, session.current_txn(), nullptr,
                  nullptr};
  ctx.in_place = !Dereferences(stmt.where, stmt.alias) &&
                 !Dereferences(stmt.order_by, stmt.alias);
  std::vector<WorkerOutput> outputs;

  if (plan.access != QueryPlan::Access::kExtentScan) {
    // Index plans stay serial: candidates are already narrowed, and index
    // order feeds the (unsorted, no-order-by) output directly.
    result.used_index = true;
    outputs.resize(1);
    for (const Oid& oid : plan.candidates) {
      REACH_ASSIGN_OR_RETURN(std::string record,
                             session.db()->persistence()->Load(ctx.txn, oid));
      REACH_ASSIGN_OR_RETURN(RecordView rec, RecordView::Parse(record));
      REACH_RETURN_IF_ERROR(ProcessRecord(ctx, oid, rec, false, &outputs[0]));
    }
  } else {
    REACH_ASSIGN_OR_RETURN(
        std::vector<Session::ExtentMorsel> morsels,
        session.ExtentMorsels(stmt.class_name, options.morsel_pages));
    result.morsels = morsels.size();
    ctx.store = session.db()->storage()->objects();
    ctx.pool = session.db()->storage()->buffer_pool();
    const size_t cap = options.workers != 0
                           ? options.workers
                           : std::thread::hardware_concurrency();
    const size_t workers =
        std::max<size_t>(1, std::min(cap, morsels.size()));
    result.workers = workers;
    outputs.resize(workers);
    REACH_RETURN_IF_ERROR(RunSlices(ctx, morsels, workers, &outputs));
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
