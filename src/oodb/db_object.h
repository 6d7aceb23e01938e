// DbObject: the in-memory representation of a persistent object — a class
// name plus attribute values, with binary (de)serialization to the object
// store format. RecordView reads that format in place.
//
// Record format: [u16 len][class name][u16 count], then `count` pairs of
// [u16 len][attribute name][encoded Value] (Value::Encode).
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "oodb/type_system.h"
#include "oodb/value.h"

namespace reach {

class DbObject {
 public:
  DbObject() = default;
  explicit DbObject(std::string class_name)
      : class_name_(std::move(class_name)) {}

  /// Create with every declared (and inherited) attribute set to its
  /// default value.
  static Result<DbObject> Create(const TypeSystem& types,
                                 const std::string& class_name);

  const std::string& class_name() const { return class_name_; }

  const Oid& oid() const { return oid_; }
  void set_oid(const Oid& oid) { oid_ = oid; }
  bool persistent() const { return oid_.valid(); }

  bool Has(const std::string& attr) const { return attrs_.contains(attr); }
  const Value& Get(const std::string& attr) const;
  void Set(const std::string& attr, Value value) {
    attrs_[attr] = std::move(value);
  }

  const std::unordered_map<std::string, Value>& attributes() const {
    return attrs_;
  }

  /// Serialize to the object-store byte format.
  std::string Serialize() const;
  static Result<DbObject> Deserialize(std::string_view bytes);

  std::string ToString() const;

 private:
  std::string class_name_;
  Oid oid_;  // invalid while transient
  std::unordered_map<std::string, Value> attrs_;
};

/// A read-only view over one serialized object: the stored record, often
/// straight from a pinned page frame. Looking an attribute up walks the
/// encoded pairs without allocating (only decoding a string or list value
/// allocates). The viewed bytes must outlive the view.
class RecordView {
 public:
  /// Corruption if `bytes` does not start with a well-formed header.
  static Result<RecordView> Parse(std::string_view bytes);

  std::string_view class_name() const { return class_name_; }

  /// The value of `attr`; NotFound if the record does not carry it.
  Result<Value> Get(std::string_view attr) const;

  /// Calls `fn(name, value)` for each stored attribute, in stored order.
  Status ForEach(
      const std::function<void(std::string_view, Value)>& fn) const;

  /// The record with `attr` set to `value`: its encoded value replaced, or
  /// the pair appended when the record does not carry `attr`.
  Result<std::string> With(std::string_view attr, const Value& value) const;

 private:
  /// Offsets [*begin, *end) of the encoded value of `attr`; NotFound if
  /// absent.
  Status Find(std::string_view attr, size_t* begin, size_t* end) const;

  std::string_view bytes_;
  std::string_view class_name_;
  uint16_t count_ = 0;
  size_t pairs_ = 0;  // offset of the first [name][value] pair
};

}  // namespace reach
