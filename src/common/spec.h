// The REACH_* environment grammar shared by REACH_METRICS and REACH_FAULTS,
// the only environment settings: entries separated by ',' or ';', each
// `key` or `key=value` (for REACH_FAULTS the key is a fault point and the
// value its action, docs/TESTING.md). REACH_FAULTS_SEED is one number, read
// with ParseSpecUnsigned.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/status.h"

namespace reach {

/// Call `apply(entry, key, value)` for every non-empty entry of `spec`
/// (nullptr reads as empty). `value` is empty when the entry has no '='.
/// The first non-OK status stops the walk and is returned.
template <typename Fn>
Status ForEachSpecEntry(const char* spec, Fn&& apply) {
  if (spec == nullptr) return Status::OK();
  std::string entry;
  for (const char* p = spec;; ++p) {
    if (*p == '\0' || *p == ',' || *p == ';') {
      if (!entry.empty()) {
        const size_t eq = entry.find('=');
        const std::string key = entry.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? std::string() : entry.substr(eq + 1);
        Status st = apply(entry, key, value);
        if (!st.ok()) return st;
      }
      entry.clear();
      if (*p == '\0') return Status::OK();
    } else {
      entry.push_back(*p);
    }
  }
}

/// Parse `value` as an unsigned number no larger than `max` (decimal, or
/// 0x-hex / 0-octal as strtoull reads them). False when the value is empty,
/// signed, has trailing characters, or is out of range.
inline bool ParseSpecUnsigned(const std::string& value, uint64_t max,
                              uint64_t* out) {
  if (value.empty() || value[0] == '-' || value[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(value.c_str(), &end, 0);
  if (errno != 0 || *end != '\0' || n > max) return false;
  *out = n;
  return true;
}

/// `on|1|true` and `off|0|false`; false for anything else.
inline bool ParseSpecBool(const std::string& value, bool* out) {
  if (value == "on" || value == "1" || value == "true") {
    *out = true;
    return true;
  }
  if (value == "off" || value == "0" || value == "false") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace reach
