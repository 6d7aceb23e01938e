// Query executor: runs a planned statement. Index plans probe serially in
// index order; extent scans are partitioned into page-aligned morsels, cut
// into contiguous slices, and fanned over the process-wide morsel pool
// with the querying thread running a share (ThreadPool::ForEach;
// docs/QUERY.md "Morsel execution").
// A morsel is a run of the extent's pages; each slice warms its pages via
// BufferPool::ReadAhead, then reads each stored record in place
// (ObjectStore::VisitHomes and RecordView — no object is decoded or locked:
// the extent S lock guards the scan): the plan's fast predicate prefix
// runs before full evaluation, and partial results accumulate (rows hold
// only their projected values and sort key, in page order, and per-group
// aggregate states). Partials merge in slice order, so parallel output is
// byte-identical to the serial fallback.
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

/// EvalEnv over one candidate object's stored record: `<alias>.attr`
/// resolves to the object's attribute; a bare `<alias>` resolves to its OID;
/// single-segment paths also try the object's attributes directly. Paths
/// through reference attributes fetch the referenced objects.
class ObjectEnv : public EvalEnv {
 public:
  ObjectEnv(Session* session, const std::string& alias, const Oid& oid,
            const RecordView* record)
      : session_(session), alias_(alias), oid_(oid), record_(record) {}

  Result<Value> Resolve(const std::vector<std::string>& path) override;

 private:
  Session* session_;
  const std::string& alias_;
  Oid oid_;
  const RecordView* record_;
};

}  // namespace reach
