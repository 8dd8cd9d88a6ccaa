#include "dataflow/value.h"

#include "common/hash.h"
#include "common/logging.h"
#include "common/strings.h"

namespace flinkless::dataflow {

std::string ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

void Value::TypeMismatch(const char* accessor) const {
  FLINKLESS_CHECK(false, "Value::" << accessor << " on "
                                   << ValueTypeName(type_) << " value");
}

uint64_t Value::Hash() const {
  switch (type_) {
    case ValueType::kInt64:
      return Mix64(static_cast<uint64_t>(i_));
    case ValueType::kDouble:
      return HashDouble(d_);
    case ValueType::kString:
      return HashString(*s_);
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kInt64:
      return std::to_string(i_);
    case ValueType::kDouble:
      return FormatDouble(d_, 12);
    case ValueType::kString:
      return "\"" + *s_ + "\"";
  }
  return "?";
}

}  // namespace flinkless::dataflow
