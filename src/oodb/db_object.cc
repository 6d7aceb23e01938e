#include "oodb/db_object.h"

#include <cstring>

namespace reach {

namespace {
const Value kNullValue;

void PutString(std::string* out, std::string_view s) {
  uint16_t len = static_cast<uint16_t>(s.size());
  out->append(reinterpret_cast<const char*>(&len), sizeof(len));
  out->append(s);
}

/// Read a [u16 len][bytes] string at data[*pos...] as a view; advances *pos.
bool GetString(std::string_view data, size_t* pos, std::string_view* s) {
  uint16_t len = 0;
  if (*pos + sizeof(len) > data.size()) return false;
  std::memcpy(&len, data.data() + *pos, sizeof(len));
  *pos += sizeof(len);
  if (*pos + len > data.size()) return false;
  *s = data.substr(*pos, len);
  *pos += len;
  return true;
}
}  // namespace

Result<DbObject> DbObject::Create(const TypeSystem& types,
                                  const std::string& class_name) {
  if (!types.IsRegistered(class_name)) {
    return Status::NotFound("class " + class_name + " not registered");
  }
  DbObject obj(class_name);
  for (const AttributeDescriptor* attr : types.AllAttributes(class_name)) {
    obj.Set(attr->name, attr->default_value);
  }
  return obj;
}

const Value& DbObject::Get(const std::string& attr) const {
  auto it = attrs_.find(attr);
  return it == attrs_.end() ? kNullValue : it->second;
}

std::string DbObject::Serialize() const {
  std::string out;
  PutString(&out, class_name_);
  uint16_t count = static_cast<uint16_t>(attrs_.size());
  out.append(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& [name, value] : attrs_) {
    PutString(&out, name);
    value.Encode(&out);
  }
  return out;
}

Result<DbObject> DbObject::Deserialize(std::string_view bytes) {
  REACH_ASSIGN_OR_RETURN(RecordView view, RecordView::Parse(bytes));
  DbObject obj{std::string(view.class_name())};
  REACH_RETURN_IF_ERROR(view.ForEach([&obj](std::string_view name, Value v) {
    obj.attrs_[std::string(name)] = std::move(v);
  }));
  return obj;
}

std::string DbObject::ToString() const {
  std::string out = class_name_ + "{";
  bool first = true;
  for (const auto& [name, value] : attrs_) {
    if (!first) out += ", ";
    first = false;
    out += name + "=" + value.ToString();
  }
  out += "}";
  if (oid_.valid()) out += "@" + oid_.ToString();
  return out;
}

Result<RecordView> RecordView::Parse(std::string_view bytes) {
  RecordView view;
  view.bytes_ = bytes;
  size_t pos = 0;
  if (!GetString(bytes, &pos, &view.class_name_)) {
    return Status::Corruption("object: truncated class name");
  }
  if (pos + sizeof(view.count_) > bytes.size()) {
    return Status::Corruption("object: truncated attribute count");
  }
  std::memcpy(&view.count_, bytes.data() + pos, sizeof(view.count_));
  view.pairs_ = pos + sizeof(view.count_);
  return view;
}

Status RecordView::Find(std::string_view attr, size_t* begin,
                        size_t* end) const {
  size_t pos = pairs_;
  for (uint16_t i = 0; i < count_; ++i) {
    std::string_view name;
    if (!GetString(bytes_, &pos, &name)) {
      return Status::Corruption("object: truncated attribute name");
    }
    size_t value_pos = pos;
    REACH_RETURN_IF_ERROR(Value::Skip(bytes_, &pos));
    if (name == attr) {
      *begin = value_pos;
      *end = pos;
      return Status::OK();
    }
  }
  return Status::NotFound("attribute " + std::string(attr) + " on " +
                          std::string(class_name_));
}

Result<Value> RecordView::Get(std::string_view attr) const {
  size_t begin = 0, end = 0;
  REACH_RETURN_IF_ERROR(Find(attr, &begin, &end));
  return Value::Decode(bytes_, &begin);
}

Status RecordView::ForEach(
    const std::function<void(std::string_view, Value)>& fn) const {
  size_t pos = pairs_;
  for (uint16_t i = 0; i < count_; ++i) {
    std::string_view name;
    if (!GetString(bytes_, &pos, &name)) {
      return Status::Corruption("object: truncated attribute name");
    }
    REACH_ASSIGN_OR_RETURN(Value v, Value::Decode(bytes_, &pos));
    fn(name, std::move(v));
  }
  return Status::OK();
}

Result<std::string> RecordView::With(std::string_view attr,
                                     const Value& value) const {
  size_t begin = 0, end = 0;
  Status found = Find(attr, &begin, &end);
  std::string out;
  if (found.ok()) {
    out.reserve(bytes_.size() + 16);
    out.append(bytes_.substr(0, begin));
    value.Encode(&out);
    out.append(bytes_.substr(end));
    return out;
  }
  if (!found.IsNotFound()) return found;
  out.assign(bytes_);
  uint16_t count = count_ + 1;
  std::memcpy(out.data() + pairs_ - sizeof(count), &count, sizeof(count));
  PutString(&out, attr);
  value.Encode(&out);
  return out;
}

}  // namespace reach
