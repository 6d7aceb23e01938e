// Query policy manager: the facade over the planner/executor split.
// Planning (validation + access-path selection) lives in query/planner.h;
// morsel-parallel execution in query/executor.h; the per-query settings in
// query/query_options.h. See docs/QUERY.md.
#pragma once

#include <string>

#include "common/result.h"
#include "oodb/session.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/query_options.h"

namespace reach {

class QueryPm {
 public:
  QueryPm() = default;

  /// Execute `query` within the session's current transaction.
  Result<QueryResult> Execute(Session& session, const std::string& query,
                              const QueryOptions& options = {});

  /// Execute a pre-parsed statement.
  Result<QueryResult> Execute(Session& session, const SelectStatement& stmt,
                              const QueryOptions& options = {});
};

}  // namespace reach
