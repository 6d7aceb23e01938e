// Per-query execution settings, passed to QueryPm::Execute. See
// docs/QUERY.md "Tuning".
#pragma once

#include <cstddef>

namespace reach {

struct QueryOptions {
  /// Morsel-parallel extent scan. Index plans and 1-morsel extents always
  /// run serial; parallel output is identical to serial output.
  bool parallel = true;
  /// Morsel size in distinct home pages.
  size_t morsel_pages = 4;
  /// Cap on the degree of parallelism; 0 = hardware concurrency.
  size_t workers = 0;
};

}  // namespace reach
