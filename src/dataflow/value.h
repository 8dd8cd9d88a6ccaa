// Value: one field of a record.
//
// The engine is dynamically typed at the record level, like a database row:
// a Value is an int64, a double, or a string. Keeping the model dynamic lets
// one executor serve every dataflow program (Connected Components ships
// (vertex, label) pairs, PageRank ships (vertex, rank) pairs, WordCount ships
// (word, count) pairs) without template instantiation per program.
//
// Layout: a one-byte type tag next to an 8-byte payload union — 16 bytes in
// all, so numeric values are plain words and copying one never allocates.
// A string value owns a heap std::string through the payload pointer.

#ifndef FLINKLESS_DATAFLOW_VALUE_H_
#define FLINKLESS_DATAFLOW_VALUE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

namespace flinkless::dataflow {

/// Runtime type tag of a Value.
enum class ValueType : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

/// Stable name for a value type ("int64", "double", "string").
std::string ValueTypeName(ValueType type);

/// A dynamically typed field. Equality and ordering are defined across all
/// values: values of different types order by type tag, values of the same
/// type by their natural order (this makes test output deterministic; the
/// engine itself never compares across types). Doubles compare as doubles:
/// NaN equals nothing and -0.0 == 0.0.
class Value {
 public:
  /// Defaults to int64 0.
  Value() : i_(0), type_(ValueType::kInt64) {}
  Value(int64_t v) : i_(v), type_(ValueType::kInt64) {}  // NOLINT
  Value(int v) : i_(v), type_(ValueType::kInt64) {}      // NOLINT
  Value(double v) : d_(v), type_(ValueType::kDouble) {}  // NOLINT
  Value(std::string v)                                   // NOLINT
      : s_(new std::string(std::move(v))), type_(ValueType::kString) {}
  Value(const char* v)  // NOLINT(runtime/explicit)
      : s_(new std::string(v)), type_(ValueType::kString) {}

  Value(const Value& other) : type_(other.type_) {
    if (other.is_string()) {
      s_ = new std::string(*other.s_);
    } else {
      CopyPayload(other);
    }
  }
  /// Leaves `other` as int64 0.
  Value(Value&& other) noexcept : type_(other.type_) {
    CopyPayload(other);
    other.Reset();
  }
  Value& operator=(const Value& other) {
    if (this != &other) *this = Value(other);
    return *this;
  }
  /// Leaves `other` as int64 0 (a self-move leaves the value unchanged).
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      type_ = other.type_;
      CopyPayload(other);
      other.Reset();
    }
    return *this;
  }
  ~Value() { Release(); }

  ValueType type() const { return type_; }

  bool is_int64() const { return type_ == ValueType::kInt64; }
  bool is_double() const { return type_ == ValueType::kDouble; }
  bool is_string() const { return type_ == ValueType::kString; }

  /// Accessors abort on type mismatch (programming error — operator key
  /// columns are statically known per dataflow).
  int64_t AsInt64() const {
    if (!is_int64()) TypeMismatch("AsInt64");
    return i_;
  }
  double AsDouble() const {
    if (!is_double()) TypeMismatch("AsDouble");
    return d_;
  }
  const std::string& AsString() const {
    if (!is_string()) TypeMismatch("AsString");
    return *s_;
  }

  /// Numeric value as double: widens int64, passes double through, aborts on
  /// string.
  double AsNumeric() const {
    if (is_int64()) return static_cast<double>(i_);
    if (!is_double()) TypeMismatch("AsNumeric");
    return d_;
  }

  /// Order- and equality-respecting hash.
  uint64_t Hash() const;

  /// Display form ("42", "0.25", "\"abc\"").
  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    if (a.type_ != b.type_) return false;
    switch (a.type_) {
      case ValueType::kInt64:
        return a.i_ == b.i_;
      case ValueType::kDouble:
        return a.d_ == b.d_;
      case ValueType::kString:
        return *a.s_ == *b.s_;
    }
    return false;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<(const Value& a, const Value& b) {
    if (a.type_ != b.type_) return a.type_ < b.type_;
    switch (a.type_) {
      case ValueType::kInt64:
        return a.i_ < b.i_;
      case ValueType::kDouble:
        return a.d_ < b.d_;
      case ValueType::kString:
        return *a.s_ < *b.s_;
    }
    return false;
  }

 private:
  /// Copies the raw payload word, whichever member is active.
  void CopyPayload(const Value& other) {
    std::memcpy(&i_, &other.i_, sizeof(i_));
  }
  void Release() {
    if (is_string()) delete s_;
  }
  /// Makes this int64 0 without releasing the payload (it moved on).
  void Reset() {
    i_ = 0;
    type_ = ValueType::kInt64;
  }
  [[noreturn]] void TypeMismatch(const char* accessor) const;

  union {
    int64_t i_;
    double d_;
    std::string* s_;
  };
  ValueType type_;
};

static_assert(sizeof(Value) == 16, "Value is a tag plus one 8-byte word");

}  // namespace flinkless::dataflow

#endif  // FLINKLESS_DATAFLOW_VALUE_H_
