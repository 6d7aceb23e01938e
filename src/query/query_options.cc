#include "query/query_options.h"

#include <cstdlib>
#include <string>
#include <thread>

#include "common/spec.h"

namespace reach {

Result<QueryOptions> QueryOptions::Parse(const char* spec) {
  QueryOptions o;
  REACH_RETURN_IF_ERROR(ForEachSpecEntry(
      spec, [&o](const std::string& entry, const std::string& key,
                 const std::string& value) {
        uint64_t n = 0;
        bool ok = true;
        if (key == "parallel") {
          bool on = true;
          ok = ParseSpecBool(value, &on);
          o.parallel = on ? 1 : 0;
        } else if (key == "morsel_pages") {
          ok = ParseSpecUnsigned(value, SIZE_MAX, &n);
          o.morsel_pages = static_cast<size_t>(n);
        } else if (key == "workers") {
          ok = ParseSpecUnsigned(value, SIZE_MAX, &n);
          o.workers = static_cast<size_t>(n);
        } else {
          return Status::InvalidArgument("REACH_QUERY: unknown setting '" +
                                         entry + "'");
        }
        if (!ok) {
          return Status::InvalidArgument("REACH_QUERY: malformed value in '" +
                                         entry + "'");
        }
        return Status::OK();
      }));
  return o;
}

QueryOptions QueryOptions::FromEnv() {
  static const QueryOptions parsed =
      Parse(std::getenv("REACH_QUERY")).value_or(QueryOptions{});
  return parsed;
}

bool QueryOptions::ResolvedParallel() const {
  if (parallel >= 0) return parallel != 0;
  return FromEnv().parallel != 0;  // env default -1 means on
}

size_t QueryOptions::ResolvedMorselPages() const {
  size_t n = morsel_pages != 0 ? morsel_pages : FromEnv().morsel_pages;
  return n != 0 ? n : kDefaultMorselPages;
}

size_t QueryOptions::ResolvedWorkers() const {
  size_t n = workers != 0 ? workers : FromEnv().workers;
  if (n == 0) n = std::thread::hardware_concurrency();
  return n != 0 ? n : 1;
}

}  // namespace reach
