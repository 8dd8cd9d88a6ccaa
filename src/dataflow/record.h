// Record: one row flowing through the dataflow, plus key utilities and the
// byte serialization used by checkpoints.

#ifndef FLINKLESS_DATAFLOW_RECORD_H_
#define FLINKLESS_DATAFLOW_RECORD_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataflow/value.h"

namespace flinkless::dataflow {

/// A row: an ordered list of values.
using Record = std::vector<Value>;

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
/// HashInt64Key(k) == HashKey(MakeRecord(k), {0}). The columnar hot loops
/// (index build, reduce, join probe, shuffle scatter) hash flat key columns
/// with it.
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

/// Appends the serialized form of `record` to `out`. The format is
/// self-delimiting: [u32 count] then per field [u8 tag][payload].
void SerializeRecord(const Record& record, std::vector<uint8_t>* out);

/// Reads one record starting at `*offset`, advancing it. Fails cleanly on
/// truncated or corrupt input.
Result<Record> DeserializeRecord(const std::vector<uint8_t>& bytes,
                                 size_t* offset);

/// Serializes a whole vector of records ([u64 count] + records).
std::vector<uint8_t> SerializeRecords(const std::vector<Record>& records);

/// Inverse of SerializeRecords; fails on trailing garbage.
Result<std::vector<Record>> DeserializeRecords(
    const std::vector<uint8_t>& bytes);

/// Serialized size in bytes (what a checkpoint of these records costs).
uint64_t SerializedSize(const std::vector<Record>& records);

}  // namespace flinkless::dataflow

#endif  // FLINKLESS_DATAFLOW_RECORD_H_
