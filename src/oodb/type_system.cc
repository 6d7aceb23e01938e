#include "oodb/type_system.h"

#include <string_view>

namespace reach {

Status TypeSystem::RegisterClass(std::unique_ptr<ClassDescriptor> desc) {
  const std::string& name = desc->name();
  if (name.size() > kMaxRecordField) {
    return Status::InvalidArgument("class name longer than " +
                                   std::to_string(kMaxRecordField) +
                                   " bytes");
  }
  for (const AttributeDescriptor& attr : desc->attributes()) {
    if (attr.name.size() > kMaxRecordField) {
      return Status::InvalidArgument("attribute name on class " + name +
                                     " longer than " +
                                     std::to_string(kMaxRecordField) +
                                     " bytes");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (classes_.contains(name)) {
    return Status::AlreadyExists("class " + name);
  }
  const ClassDescriptor* parent = nullptr;
  if (!desc->parent().empty()) {
    auto it = classes_.find(desc->parent());
    if (it == classes_.end()) {
      return Status::NotFound("parent class " + desc->parent());
    }
    parent = it->second.get();
  }
  // The parent's record attributes, then this class's: a redeclared name
  // keeps its place and takes the newer declaration.
  std::vector<const AttributeDescriptor*> record;
  std::unordered_map<std::string_view, size_t> index;
  if (parent != nullptr) record = parent->record_attributes();
  for (size_t i = 0; i < record.size(); ++i) index.emplace(record[i]->name, i);
  for (const AttributeDescriptor& attr : desc->attributes()) {
    auto [it, fresh] = index.emplace(attr.name, record.size());
    if (fresh) {
      record.push_back(&attr);
    } else {
      record[it->second] = &attr;
    }
  }
  if (record.size() > kMaxRecordField) {
    return Status::InvalidArgument(
        "class " + name + " has " + std::to_string(record.size()) +
        " attributes; a record holds at most " +
        std::to_string(kMaxRecordField));
  }
  desc->record_attributes_ = std::move(record);
  classes_[name] = std::move(desc);
  return Status::OK();
}

const ClassDescriptor* TypeSystem::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = classes_.find(name);
  return it == classes_.end() ? nullptr : it->second.get();
}

bool TypeSystem::IsSubclassOf(const std::string& cls,
                              const std::string& ancestor) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string cur = cls;
  while (!cur.empty()) {
    if (cur == ancestor) return true;
    auto it = classes_.find(cur);
    if (it == classes_.end()) return false;
    cur = it->second->parent();
  }
  return false;
}

const AttributeDescriptor* TypeSystem::ResolveAttribute(
    const std::string& cls, const std::string& attr) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string cur = cls;
  while (!cur.empty()) {
    auto it = classes_.find(cur);
    if (it == classes_.end()) return nullptr;
    if (const AttributeDescriptor* a = it->second->FindAttribute(attr)) {
      return a;
    }
    cur = it->second->parent();
  }
  return nullptr;
}

const MethodDescriptor* TypeSystem::ResolveMethod(
    const std::string& cls, const std::string& method) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string cur = cls;
  while (!cur.empty()) {
    auto it = classes_.find(cur);
    if (it == classes_.end()) return nullptr;
    if (const MethodDescriptor* m = it->second->FindMethod(method)) {
      return m;
    }
    cur = it->second->parent();
  }
  return nullptr;
}

std::vector<std::string> TypeSystem::SelfAndSubclasses(
    const std::string& cls) const {
  std::vector<std::string> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, desc] : classes_) {
    std::string cur = name;
    while (!cur.empty()) {
      if (cur == cls) {
        out.push_back(name);
        break;
      }
      auto it = classes_.find(cur);
      if (it == classes_.end()) break;
      cur = it->second->parent();
    }
  }
  return out;
}

std::vector<std::string> TypeSystem::AllClassNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(classes_.size());
  for (const auto& [name, _] : classes_) out.push_back(name);
  return out;
}

}  // namespace reach
