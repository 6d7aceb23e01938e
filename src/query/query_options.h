// Per-query execution knobs, with process-wide defaults from the
// REACH_QUERY environment variable:
//
//   REACH_QUERY=parallel={on,off},morsel_pages=N,workers=N
//
// `parallel` gates the morsel-parallel extent scan (default on; index plans
// and 1-morsel extents always run serial). `morsel_pages` is the morsel
// size in distinct home pages (default 4). `workers` caps the degree of
// parallelism (default: hardware concurrency). An unknown key or a
// malformed value makes ReachDb::Open fail with InvalidArgument, as
// REACH_WAL and REACH_METRICS do. See docs/QUERY.md.
#pragma once

#include <cstddef>

#include "common/result.h"

namespace reach {

struct QueryOptions {
  static constexpr size_t kDefaultMorselPages = 4;

  /// -1 = follow REACH_QUERY (default on); 0 = off; 1 = on.
  int parallel = -1;
  /// 0 = follow REACH_QUERY (default kDefaultMorselPages).
  size_t morsel_pages = 0;
  /// 0 = follow REACH_QUERY (default: hardware concurrency).
  size_t workers = 0;

  /// Process defaults (parsed once, cached; the built-in defaults if the
  /// spec is invalid — ReachDb::Open refuses to open on one).
  static QueryOptions FromEnv();
  /// Parse a REACH_QUERY spec string. InvalidArgument names the first
  /// unknown or malformed entry.
  static Result<QueryOptions> Parse(const char* spec);

  /// Effective settings: this struct's explicit fields, else the
  /// environment's, else the built-in defaults.
  bool ResolvedParallel() const;
  size_t ResolvedMorselPages() const;
  size_t ResolvedWorkers() const;
};

}  // namespace reach
