#include "oodb/db_object.h"

#include <algorithm>
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

Result<const ClassDescriptor*> FindClass(const TypeSystem& types,
                                         const std::string& class_name) {
  const ClassDescriptor* cls = types.Find(class_name);
  if (cls == nullptr) {
    return Status::NotFound("class " + class_name + " not registered");
  }
  return cls;
}
}  // namespace

std::string EncodeRecord(std::string_view class_name,
                         std::span<const RecordField> fields) {
  std::string out;
  PutString(&out, class_name);
  uint16_t count = static_cast<uint16_t>(fields.size());
  out.append(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const RecordField& f : fields) {
    PutString(&out, f.name);
    f.value->Encode(&out);
  }
  return out;
}

Result<std::string> EncodeNewRecord(
    const TypeSystem& types, const std::string& class_name,
    std::span<const std::pair<std::string, Value>> attrs) {
  REACH_ASSIGN_OR_RETURN(const ClassDescriptor* cls,
                         FindClass(types, class_name));
  std::vector<RecordField> fields;
  fields.reserve(cls->record_attributes().size());
  for (const AttributeDescriptor* attr : cls->record_attributes()) {
    fields.push_back({attr->name, &attr->default_value});
  }
  for (const auto& [name, value] : attrs) {
    auto it = std::find_if(fields.begin(), fields.end(),
                           [&name](const RecordField& f) {
                             return f.name == name;
                           });
    if (it == fields.end()) {
      return Status::NotFound("attribute " + class_name + "." + name);
    }
    it->value = &value;
  }
  return EncodeRecord(class_name, fields);
}

Result<DbObject> DbObject::Create(const TypeSystem& types,
                                  const std::string& class_name) {
  REACH_ASSIGN_OR_RETURN(const ClassDescriptor* cls,
                         FindClass(types, class_name));
  DbObject obj(class_name);
  for (const AttributeDescriptor* attr : cls->record_attributes()) {
    obj.Set(attr->name, attr->default_value);
  }
  return obj;
}

const Value& DbObject::Get(const std::string& attr) const {
  auto it = attrs_.find(attr);
  return it == attrs_.end() ? kNullValue : it->second;
}

std::string DbObject::Serialize() const {
  std::vector<RecordField> fields;
  fields.reserve(attrs_.size());
  for (const auto& [name, value] : attrs_) fields.push_back({name, &value});
  return EncodeRecord(class_name_, fields);
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
