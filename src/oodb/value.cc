#include "oodb/value.h"

#include <cstring>

#include "storage/slotted_page.h"

namespace reach {

namespace {
template <typename T>
void PutScalar(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool GetScalar(std::string_view data, size_t* pos, T* v) {
  if (*pos + sizeof(T) > data.size()) return false;
  std::memcpy(v, data.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}
}  // namespace

bool Value::operator==(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) return as_int() == other.as_int();
    return AsNumber() == other.AsNumber();
  }
  return data_ == other.data_;
}

std::partial_ordering Value::operator<=>(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) return as_int() <=> other.as_int();
    return AsNumber() <=> other.AsNumber();
  }
  if (type() != other.type()) return type() <=> other.type();
  switch (type()) {
    case ValueType::kNull:
      return std::partial_ordering::equivalent;
    case ValueType::kBool:
      return as_bool() <=> other.as_bool();
    case ValueType::kString:
      return as_string() <=> other.as_string();
    case ValueType::kRef:
      return as_ref() <=> other.as_ref();
    case ValueType::kList: {
      const auto& a = as_list();
      const auto& b = other.as_list();
      for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        auto c = a[i] <=> b[i];
        if (c != std::partial_ordering::equivalent) return c;
      }
      return a.size() <=> b.size();
    }
    default:
      return std::partial_ordering::unordered;
  }
}

void Value::Encode(std::string* out) const {
  PutScalar<uint8_t>(out, static_cast<uint8_t>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      PutScalar<uint8_t>(out, as_bool() ? 1 : 0);
      break;
    case ValueType::kInt:
      PutScalar<int64_t>(out, as_int());
      break;
    case ValueType::kDouble:
      PutScalar<double>(out, as_double());
      break;
    case ValueType::kString: {
      PutScalar<uint32_t>(out, static_cast<uint32_t>(as_string().size()));
      out->append(as_string());
      break;
    }
    case ValueType::kRef: {
      char buf[SlottedPage::kOidEncodedSize];
      SlottedPage::EncodeOid(as_ref(), buf);
      out->append(buf, sizeof(buf));
      break;
    }
    case ValueType::kList: {
      PutScalar<uint32_t>(out, static_cast<uint32_t>(as_list().size()));
      for (const Value& v : as_list()) v.Encode(out);
      break;
    }
  }
}

Result<Value> Value::Decode(std::string_view data, size_t* pos) {
  uint8_t tag = 0;
  if (!GetScalar(data, pos, &tag)) {
    return Status::Corruption("value: truncated tag");
  }
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value();
    case ValueType::kBool: {
      uint8_t b = 0;
      if (!GetScalar(data, pos, &b)) {
        return Status::Corruption("value: truncated bool");
      }
      return Value(b != 0);
    }
    case ValueType::kInt: {
      int64_t v = 0;
      if (!GetScalar(data, pos, &v)) {
        return Status::Corruption("value: truncated int");
      }
      return Value(v);
    }
    case ValueType::kDouble: {
      double v = 0;
      if (!GetScalar(data, pos, &v)) {
        return Status::Corruption("value: truncated double");
      }
      return Value(v);
    }
    case ValueType::kString: {
      uint32_t len = 0;
      if (!GetScalar(data, pos, &len) || *pos + len > data.size()) {
        return Status::Corruption("value: truncated string");
      }
      Value v(std::string(data.substr(*pos, len)));
      *pos += len;
      return v;
    }
    case ValueType::kRef: {
      if (*pos + SlottedPage::kOidEncodedSize > data.size()) {
        return Status::Corruption("value: truncated ref");
      }
      Oid oid = SlottedPage::DecodeOid(data.data() + *pos);
      *pos += SlottedPage::kOidEncodedSize;
      return Value(oid);
    }
    case ValueType::kList: {
      uint32_t n = 0;
      if (!GetScalar(data, pos, &n)) {
        return Status::Corruption("value: truncated list");
      }
      std::vector<Value> list;
      list.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        REACH_ASSIGN_OR_RETURN(Value v, Decode(data, pos));
        list.push_back(std::move(v));
      }
      return Value(std::move(list));
    }
    default:
      return Status::Corruption("value: unknown tag " + std::to_string(tag));
  }
}

Status Value::Skip(std::string_view data, size_t* pos) {
  uint8_t tag = 0;
  if (!GetScalar(data, pos, &tag)) {
    return Status::Corruption("value: truncated tag");
  }
  size_t len = 0;
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      len = sizeof(uint8_t);
      break;
    case ValueType::kInt:
    case ValueType::kDouble:
      len = sizeof(int64_t);
      break;
    case ValueType::kRef:
      len = SlottedPage::kOidEncodedSize;
      break;
    case ValueType::kString: {
      uint32_t n = 0;
      if (!GetScalar(data, pos, &n)) {
        return Status::Corruption("value: truncated string");
      }
      len = n;
      break;
    }
    case ValueType::kList: {
      uint32_t n = 0;
      if (!GetScalar(data, pos, &n)) {
        return Status::Corruption("value: truncated list");
      }
      for (uint32_t i = 0; i < n; ++i) REACH_RETURN_IF_ERROR(Skip(data, pos));
      break;
    }
    default:
      return Status::Corruption("value: unknown tag " + std::to_string(tag));
  }
  if (*pos + len > data.size()) {
    return Status::Corruption("value: truncated value");
  }
  *pos += len;
  return Status::OK();
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return as_bool() ? "true" : "false";
    case ValueType::kInt:
      return std::to_string(as_int());
    case ValueType::kDouble:
      return std::to_string(as_double());
    case ValueType::kString:
      return "\"" + as_string() + "\"";
    case ValueType::kRef:
      return as_ref().ToString();
    case ValueType::kList: {
      std::string out = "[";
      for (size_t i = 0; i < as_list().size(); ++i) {
        if (i > 0) out += ", ";
        out += as_list()[i].ToString();
      }
      return out + "]";
    }
  }
  return "?";
}

}  // namespace reach
