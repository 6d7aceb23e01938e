#include "query/query_options.h"

#include <cstdlib>
#include <string>
#include <thread>

#include "common/spec.h"

namespace reach {

QueryOptions QueryOptions::Parse(const char* spec) {
  QueryOptions o;
  // Unknown entries are ignored so old binaries tolerate new knobs.
  (void)ForEachSpecEntry(spec, [&o](const std::string&,
                                    const std::string& key,
                                    const std::string& value) {
    if (key == "parallel") {
      o.parallel = (value == "on" || value == "1" || value == "true") ? 1 : 0;
    } else if (key == "morsel_pages") {
      o.morsel_pages = std::strtoull(value.c_str(), nullptr, 0);
    } else if (key == "workers") {
      o.workers = std::strtoull(value.c_str(), nullptr, 0);
    }
    return Status::OK();
  });
  return o;
}

QueryOptions QueryOptions::FromEnv() {
  static const QueryOptions parsed = Parse(std::getenv("REACH_QUERY"));
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
