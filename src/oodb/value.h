// Value: the dynamic attribute/parameter type of the REACH object model.
// Attribute values, method arguments, and event parameters are Values, so
// rules and queries can inspect them without compile-time knowledge of the
// application's classes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace reach {

enum class ValueType : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt = 2,
  kDouble = 3,
  kString = 4,
  kRef = 5,   // reference to a persistent object
  kList = 6,
};

class Value {
 public:
  Value() : data_(std::monostate{}) {}
  Value(bool b) : data_(b) {}                       // NOLINT
  Value(int v) : data_(static_cast<int64_t>(v)) {}  // NOLINT
  Value(int64_t v) : data_(v) {}                    // NOLINT
  Value(double v) : data_(v) {}                     // NOLINT
  Value(const char* s) : data_(std::string(s)) {}   // NOLINT
  Value(std::string s) : data_(std::move(s)) {}     // NOLINT
  Value(Oid oid) : data_(oid) {}                    // NOLINT
  Value(std::vector<Value> list) : data_(std::move(list)) {}  // NOLINT

  ValueType type() const {
    return static_cast<ValueType>(data_.index());
  }

  bool is_null() const { return type() == ValueType::kNull; }
  bool is_bool() const { return type() == ValueType::kBool; }
  bool is_int() const { return type() == ValueType::kInt; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_ref() const { return type() == ValueType::kRef; }
  bool is_list() const { return type() == ValueType::kList; }
  /// Int or double.
  bool is_numeric() const { return is_int() || is_double(); }

  bool as_bool() const { return std::get<bool>(data_); }
  int64_t as_int() const { return std::get<int64_t>(data_); }
  double as_double() const { return std::get<double>(data_); }
  const std::string& as_string() const { return std::get<std::string>(data_); }
  Oid as_ref() const { return std::get<Oid>(data_); }
  const std::vector<Value>& as_list() const {
    return std::get<std::vector<Value>>(data_);
  }
  std::vector<Value>& as_list() { return std::get<std::vector<Value>>(data_); }

  /// Numeric value widened to double (ints convert); 0.0 for non-numerics.
  double AsNumber() const {
    if (is_int()) return static_cast<double>(as_int());
    if (is_double()) return as_double();
    return 0.0;
  }

  /// Structural equality (int/double compare numerically).
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Ordering for ORDER BY and comparison predicates. Values of different
  /// non-numeric types compare by type tag.
  std::partial_ordering operator<=>(const Value& other) const;

  /// Binary encoding appended to `out` (see Decode).
  void Encode(std::string* out) const;

  /// Decode one value from data[*pos...]; advances *pos.
  static Result<Value> Decode(std::string_view data, size_t* pos);

  /// Advance *pos past one encoded value without decoding it.
  static Status Skip(std::string_view data, size_t* pos);

  std::string ToString() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string, Oid,
               std::vector<Value>>
      data_;
};

}  // namespace reach
