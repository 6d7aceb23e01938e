// Query executor: runs a planned statement. Index plans probe serially in
// index order; extent scans are partitioned into page-aligned morsels and
// fanned over a shared worker pool (docs/QUERY.md "Morsel execution").
// A morsel is a run of the extent's pages; each worker warms its pages via
// BufferPool::ReadAhead, lists their home cells, batch-fetches those
// objects, applies the plan's fast predicate prefix before full evaluation,
// and accumulates partial results (rows in page order, and per-group
// aggregate states). Partials merge in worker order over contiguous morsel
// slices, so parallel output is byte-identical to the serial fallback.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "oodb/session.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/query_options.h"

namespace reach {

struct QueryRow {
  Oid oid;
  std::vector<Value> values;  // projected attributes ([] for select *)
};

struct QueryResult {
  std::vector<QueryRow> rows;
  bool used_index = false;
  size_t scanned = 0;    // objects examined
  size_t morsels = 0;    // extent-scan morsels executed (0 for index plans)
  size_t workers = 1;    // degree of parallelism actually used
  uint64_t exec_ns = 0;  // executor wall time
};

/// Execute `plan` for `stmt` within the session's current transaction.
/// `plan` must have been built from `stmt` (its fast prefix points into the
/// statement's expression tree).
Result<QueryResult> ExecutePlan(Session& session, const SelectStatement& stmt,
                                const QueryPlan& plan,
                                const QueryOptions& options);

/// EvalEnv over one candidate object: `<alias>.attr` resolves to the
/// object's attribute; a bare `<alias>` resolves to its OID; single-segment
/// paths also try the object's attributes directly.
class ObjectEnv : public EvalEnv {
 public:
  ObjectEnv(Session* session, const std::string& alias, const DbObject* obj)
      : session_(session), alias_(alias), obj_(obj) {}

  Result<Value> Resolve(const std::vector<std::string>& path) override;

 private:
  Session* session_;
  std::string alias_;
  const DbObject* obj_;
};

}  // namespace reach
