// Type system: class descriptors with single inheritance, attribute and
// method metadata, and the method implementation registry. This is the data
// dictionary's type half — Open OODB uses the host language's type system;
// REACH mirrors it dynamically so sentries, rules, and queries can reason
// about classes at run time.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "oodb/value.h"

namespace reach {

class DbObject;
class Session;

/// Largest class-name or attribute-name length, and largest attribute
/// count, an object record can hold: it stores each as a u16
/// (oodb/db_object.h). RegisterClass refuses a class past any of them.
inline constexpr size_t kMaxRecordField = 0xFFFF;

struct AttributeDescriptor {
  std::string name;
  ValueType type = ValueType::kNull;
  Value default_value;
};

/// A method body: runs against an object inside a session (so it can read
/// and write other persistent objects transactionally).
using MethodImpl =
    std::function<Result<Value>(Session&, DbObject&, const std::vector<Value>&)>;

struct MethodDescriptor {
  std::string name;
  MethodImpl impl;
};

class ClassDescriptor {
 public:
  ClassDescriptor(std::string name, std::string parent)
      : name_(std::move(name)), parent_(std::move(parent)) {}

  const std::string& name() const { return name_; }
  const std::string& parent() const { return parent_; }

  void AddAttribute(AttributeDescriptor attr) {
    attributes_.push_back(std::move(attr));
  }
  void AddMethod(MethodDescriptor method) {
    methods_.push_back(std::move(method));
  }

  const std::vector<AttributeDescriptor>& attributes() const {
    return attributes_;
  }
  const std::vector<MethodDescriptor>& methods() const { return methods_; }

  /// The attributes every object of the class stores, inherited ones
  /// included: one per distinct name, base-first, each the most-derived
  /// declaration of that name (so its default wins). Set when the class is
  /// registered; empty before.
  const std::vector<const AttributeDescriptor*>& record_attributes() const {
    return record_attributes_;
  }

  const AttributeDescriptor* FindAttribute(const std::string& attr) const {
    for (const auto& a : attributes_) {
      if (a.name == attr) return &a;
    }
    return nullptr;
  }
  const MethodDescriptor* FindMethod(const std::string& method) const {
    for (const auto& m : methods_) {
      if (m.name == method) return &m;
    }
    return nullptr;
  }

 private:
  std::string name_;
  std::string parent_;  // empty for root classes
  std::vector<AttributeDescriptor> attributes_;
  std::vector<MethodDescriptor> methods_;
  std::vector<const AttributeDescriptor*> record_attributes_;
  friend class TypeSystem;
};

/// Builder used when registering a class.
class ClassBuilder {
 public:
  ClassBuilder(std::string name, std::string parent = "")
      : desc_(std::make_unique<ClassDescriptor>(std::move(name),
                                                std::move(parent))) {}

  ClassBuilder& Attribute(std::string name, ValueType type,
                          Value default_value = Value()) {
    desc_->AddAttribute({std::move(name), type, std::move(default_value)});
    return *this;
  }
  ClassBuilder& Method(std::string name, MethodImpl impl) {
    desc_->AddMethod({std::move(name), std::move(impl)});
    return *this;
  }

  std::unique_ptr<ClassDescriptor> Build() { return std::move(desc_); }

 private:
  std::unique_ptr<ClassDescriptor> desc_;
};

class TypeSystem {
 public:
  /// Register a class; its parent (if named) must already exist. A class
  /// or attribute name longer than kMaxRecordField bytes, or more than
  /// kMaxRecordField record attributes, is InvalidArgument.
  Status RegisterClass(std::unique_ptr<ClassDescriptor> desc);

  const ClassDescriptor* Find(const std::string& name) const;

  bool IsRegistered(const std::string& name) const {
    return Find(name) != nullptr;
  }

  /// True if `cls` is `ancestor` or transitively derives from it.
  bool IsSubclassOf(const std::string& cls, const std::string& ancestor) const;

  /// Attribute lookup walking the inheritance chain.
  const AttributeDescriptor* ResolveAttribute(const std::string& cls,
                                              const std::string& attr) const;

  /// Virtual dispatch: most-derived method implementation.
  const MethodDescriptor* ResolveMethod(const std::string& cls,
                                        const std::string& method) const;

  /// Registered class names, including `cls` and every subclass of it.
  std::vector<std::string> SelfAndSubclasses(const std::string& cls) const;

  std::vector<std::string> AllClassNames() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<ClassDescriptor>> classes_;
};

}  // namespace reach
