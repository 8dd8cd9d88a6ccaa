// Record: one row flowing through the dataflow, plus key utilities and the
// one-record byte serialization the rows layout of a partition block uses
// (block_codec.h).

#ifndef FLINKLESS_DATAFLOW_RECORD_H_
#define FLINKLESS_DATAFLOW_RECORD_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataflow/value.h"

namespace flinkless::dataflow {

/// A row: an ordered list of values. The first kInlineCapacity values live
/// inside the object, so a row of up to three fields — every PageRank, CC
/// and SSSP row — costs no heap allocation; longer rows (k-means' 4- and
/// 5-field intermediates, ALS factor rows) move their values to one heap
/// array. Offers the subset of the std::vector interface the engine uses.
class Record {
 public:
  /// Lets gtest print a Record element by element.
  using const_iterator = const Value*;

  static constexpr uint32_t kInlineCapacity = 3;

  Record() noexcept : data_(inline_data()) {}
  Record(std::initializer_list<Value> values)  // NOLINT(runtime/explicit)
      : Record() {
    append(values.begin(), values.end());
  }
  Record(const Record& other) : Record() {
    append(other.begin(), other.end());
  }
  /// Leaves `other` empty.
  Record(Record&& other) noexcept : Record() { TakeFrom(&other); }
  Record& operator=(const Record& other) {
    if (this != &other) {
      clear();
      append(other.begin(), other.end());
    }
    return *this;
  }
  /// Leaves `other` empty.
  Record& operator=(Record&& other) noexcept {
    if (this != &other) {
      clear();
      FreeHeap();
      TakeFrom(&other);
    }
    return *this;
  }
  ~Record() {
    clear();
    FreeHeap();
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Value& operator[](size_t i) { return data_[i]; }
  const Value& operator[](size_t i) const { return data_[i]; }

  Value* begin() { return data_; }
  Value* end() { return data_ + size_; }
  const Value* begin() const { return data_; }
  const Value* end() const { return data_ + size_; }

  void reserve(size_t n) {
    if (n > capacity_) Reallocate(n);
  }

  template <typename... Args>
  Value& emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      // Built before growing: an argument may alias one of our values.
      Value v(std::forward<Args>(args)...);
      Reallocate(2 * static_cast<size_t>(capacity_));
      new (data_ + size_) Value(std::move(v));
    } else {
      new (data_ + size_) Value(std::forward<Args>(args)...);
    }
    return data_[size_++];
  }
  void push_back(const Value& v) { emplace_back(v); }
  void push_back(Value&& v) { emplace_back(std::move(v)); }

  void clear() {
    for (uint32_t i = 0; i < size_; ++i) data_[i].~Value();
    size_ = 0;
  }

  friend bool operator==(const Record& a, const Record& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  /// Lexicographic over the value sequences.
  friend bool operator<(const Record& a, const Record& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

 private:
  Value* inline_data() { return reinterpret_cast<Value*>(inline_); }
  bool is_inline() const {
    return data_ == reinterpret_cast<const Value*>(inline_);
  }

  void append(const Value* first, const Value* last) {
    reserve(size_ + static_cast<size_t>(last - first));
    for (; first != last; ++first) emplace_back(*first);
  }

  // A Value is a tag and one word (a string value owns its heap string
  // through that word), so it is trivially relocatable: moving values to
  // new storage is copying their bytes and forgetting the old copies.

  /// Moves the values to a heap array of `capacity` slots.
  void Reallocate(size_t capacity) {
    auto* heap = static_cast<Value*>(::operator new(capacity * sizeof(Value)));
    std::memcpy(static_cast<void*>(heap), static_cast<const void*>(data_),
                size_ * sizeof(Value));
    FreeHeap();
    data_ = heap;
    capacity_ = static_cast<uint32_t>(capacity);
  }
  void FreeHeap() {
    if (!is_inline()) ::operator delete(data_);
    data_ = inline_data();
    capacity_ = kInlineCapacity;
  }
  /// Requires this record empty and inline; leaves `other` so.
  void TakeFrom(Record* other) {
    if (other->is_inline()) {
      // The whole buffer, constructed slots or not: a fixed-size copy.
      std::memcpy(inline_, other->inline_, sizeof(inline_));
    } else {
      data_ = other->data_;
      capacity_ = other->capacity_;
      other->data_ = other->inline_data();
      other->capacity_ = kInlineCapacity;
    }
    size_ = other->size_;
    other->size_ = 0;
  }

  Value* data_;
  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineCapacity;
  alignas(Value) unsigned char inline_[kInlineCapacity * sizeof(Value)];
};

static_assert(sizeof(Record) == 64,
              "Record is three inline values, a pointer and two counts");

/// Column indexes forming an operator's key.
using KeyColumns = std::vector<int>;

/// Convenience constructor: MakeRecord(1, 2.5, "x").
template <typename... Args>
Record MakeRecord(Args&&... args) {
  Record r;
  r.reserve(sizeof...(args));
  (r.emplace_back(std::forward<Args>(args)), ...);
  return r;
}

/// "(1, 0.25, \"x\")".
std::string RecordToString(const Record& record);

/// Hash of the projection of `record` onto `key`. Columns must be in range
/// (checked).
uint64_t HashKey(const Record& record, const KeyColumns& key);

/// HashKey of a record whose key is the single int64 column holding `key`:
/// HashInt64Key(k) == HashKey(MakeRecord(k), {0}). The hot loops (index
/// build, reduce, join probe, shuffle route) hash int64 keys with it.
uint64_t HashInt64Key(int64_t key);

/// True when the two records agree on their respective key columns.
bool KeysEqual(const Record& a, const KeyColumns& a_key, const Record& b,
               const KeyColumns& b_key);

/// Projection of `record` onto `key`.
Record ExtractKey(const Record& record, const KeyColumns& key);

/// RecordLess over key projections without materializing them: equivalent
/// to RecordLess(ExtractKey(a, key), ExtractKey(b, key)). The batch
/// execution paths sort group representatives with this, so their emission
/// order is byte-identical to the record path's sorted ExtractKey sweep.
bool KeyLess(const Record& a, const Record& b, const KeyColumns& key);

/// Total order over records (by value sequence); used to sort collected
/// outputs deterministically in tests.
bool RecordLess(const Record& a, const Record& b);

/// Comparator adapting RecordLess for ordered containers keyed by Record.
struct RecordOrder {
  bool operator()(const Record& a, const Record& b) const {
    return RecordLess(a, b);
  }
};

/// Equality-respecting hash over a whole record, for unordered containers
/// keyed by Record (hash grouping in the executor).
uint64_t HashRecord(const Record& record);

/// Hasher adapting HashRecord for unordered containers keyed by Record.
struct RecordHash {
  size_t operator()(const Record& r) const {
    return static_cast<size_t>(HashRecord(r));
  }
};

/// Smallest serialized record: its u32 field count.
inline constexpr size_t kMinRecordBytes = 4;
/// Smallest serialized field: a tag and the u32 length of an empty string.
inline constexpr size_t kMinFieldBytes = 5;

/// Appends the serialized form of `record` to `out`. The format is
/// self-delimiting: [u32 count] then per field [u8 tag][payload].
void SerializeRecord(const Record& record, std::vector<uint8_t>* out);

/// Reads one record starting at `*offset`, advancing it. Fails cleanly
/// (DataLoss) on truncated or corrupt input, including counts larger than
/// the remaining bytes could hold.
Result<Record> DeserializeRecord(const std::vector<uint8_t>& bytes,
                                 size_t* offset);

}  // namespace flinkless::dataflow

#endif  // FLINKLESS_DATAFLOW_RECORD_H_
