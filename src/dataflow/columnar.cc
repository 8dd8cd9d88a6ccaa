#include "dataflow/columnar.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "common/byte_codec.h"
#include "common/logging.h"

namespace flinkless::dataflow {

bool InferBatchSchema(const std::vector<Record>& records,
                      BatchSchema* schema) {
  schema->clear();
  if (records.empty()) return true;
  schema->reserve(records[0].size());
  for (const Value& v : records[0]) schema->push_back(v.type());
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i].size() != schema->size()) return false;
    for (size_t c = 0; c < schema->size(); ++c) {
      if (records[i][c].type() != (*schema)[c]) return false;
    }
  }
  return true;
}

bool ExtractKey64(const std::vector<Record>& records, const KeyColumns& key,
                  std::vector<int64_t>* out) {
  if (key.size() != 1 || key[0] < 0) return false;
  const int col = key[0];
  out->clear();
  out->reserve(records.size());
  for (const Record& r : records) {
    if (static_cast<size_t>(col) >= r.size() || !r[col].is_int64()) {
      return false;
    }
    out->push_back(r[col].AsInt64());
  }
  return true;
}

ColumnarBatch::ColumnarBatch(BatchSchema schema)
    : schema_(std::move(schema)), columns_(schema_.size()) {
  for (size_t c = 0; c < schema_.size(); ++c) {
    if (schema_[c] == ValueType::kString) columns_[c].offsets.push_back(0);
  }
}

bool ColumnarBatch::FromRecords(const std::vector<Record>& records,
                                ColumnarBatch* out) {
  BatchSchema schema;
  if (!InferBatchSchema(records, &schema)) return false;
  *out = FromRecordsUnchecked(records, std::move(schema));
  return true;
}

ColumnarBatch ColumnarBatch::FromRecordsUnchecked(
    const std::vector<Record>& records, BatchSchema schema) {
  ColumnarBatch out{std::move(schema)};
  out.num_rows_ = records.size();
  const size_t ncols = out.schema_.size();
  bool has_strings = false;
  for (size_t c = 0; c < ncols; ++c) {
    Column& col = out.columns_[c];
    switch (out.schema_[c]) {
      case ValueType::kInt64:
        col.i64.reserve(records.size());
        break;
      case ValueType::kDouble:
        col.f64.reserve(records.size());
        break;
      case ValueType::kString:
        col.offsets.reserve(records.size() + 1);
        has_strings = true;
        break;
    }
  }
  if (has_strings) {
    // Size the arenas up front so the fill pass never reallocates them.
    for (size_t c = 0; c < ncols; ++c) {
      if (out.schema_[c] != ValueType::kString) continue;
      size_t total = 0;
      for (const Record& r : records) total += r[c].AsString().size();
      FLINKLESS_CHECK(total <= std::numeric_limits<uint32_t>::max(),
                      "string column overflows the 4 GiB arena");
      out.columns_[c].arena.reserve(total);
    }
  }
  // Row-major fill: each record is touched once, in order.
  for (const Record& r : records) {
    for (size_t c = 0; c < ncols; ++c) {
      Column& col = out.columns_[c];
      switch (out.schema_[c]) {
        case ValueType::kInt64:
          col.i64.push_back(r[c].AsInt64());
          break;
        case ValueType::kDouble:
          col.f64.push_back(r[c].AsDouble());
          break;
        case ValueType::kString:
          col.arena.append(r[c].AsString());
          col.offsets.push_back(static_cast<uint32_t>(col.arena.size()));
          break;
      }
    }
  }
  return out;
}

Record ColumnarBatch::RowAsRecord(size_t row) const {
  FLINKLESS_CHECK(row < num_rows_, "row " << row << " out of range");
  Record r;
  r.reserve(schema_.size());
  for (size_t c = 0; c < schema_.size(); ++c) {
    const Column& col = columns_[c];
    switch (schema_[c]) {
      case ValueType::kInt64:
        r.emplace_back(col.i64[row]);
        break;
      case ValueType::kDouble:
        r.emplace_back(col.f64[row]);
        break;
      case ValueType::kString:
        r.emplace_back(std::string(
            col.arena.data() + col.offsets[row],
            col.offsets[row + 1] - col.offsets[row]));
        break;
    }
  }
  return r;
}

std::vector<Record> ColumnarBatch::ToRecords() const {
  std::vector<Record> out;
  out.reserve(num_rows_);
  for (size_t row = 0; row < num_rows_; ++row) {
    out.push_back(RowAsRecord(row));
  }
  return out;
}

const std::vector<int64_t>& ColumnarBatch::Int64Column(size_t col) const {
  FLINKLESS_CHECK(col < schema_.size() && schema_[col] == ValueType::kInt64,
                  "Int64Column(" << col << ") on a non-int64 column");
  return columns_[col].i64;
}

const std::vector<double>& ColumnarBatch::DoubleColumn(size_t col) const {
  FLINKLESS_CHECK(col < schema_.size() && schema_[col] == ValueType::kDouble,
                  "DoubleColumn(" << col << ") on a non-double column");
  return columns_[col].f64;
}

std::string_view ColumnarBatch::StringAt(size_t col, size_t row) const {
  FLINKLESS_CHECK(col < schema_.size() && schema_[col] == ValueType::kString,
                  "StringAt(" << col << ") on a non-string column");
  FLINKLESS_CHECK(row < num_rows_, "row " << row << " out of range");
  const Column& c = columns_[col];
  return std::string_view(c.arena.data() + c.offsets[row],
                          c.offsets[row + 1] - c.offsets[row]);
}

namespace {

// Whole-column copies for the fixed-width payloads. The wire format is
// little-endian, so on LE hosts a column is one memcpy; the BE fallback
// keeps the format portable.
template <typename T>
void PutFixedColumn(const std::vector<T>& col, std::vector<uint8_t>* out) {
  static_assert(sizeof(T) == 8);
  if constexpr (std::endian::native == std::endian::little) {
    const auto* p = reinterpret_cast<const uint8_t*>(col.data());
    out->insert(out->end(), p, p + col.size() * 8);
  } else {
    for (const T& v : col) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      PutU64(bits, out);
    }
  }
}

template <typename T>
void GetFixedColumn(const std::vector<uint8_t>& bytes, size_t* offset,
                    size_t rows, std::vector<T>* col) {
  static_assert(sizeof(T) == 8);
  // Caller has bounds-checked `rows * 8` bytes remain.
  col->resize(rows);
  if (rows == 0) return;  // an empty vector's data() may be null
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(col->data(), bytes.data() + *offset, rows * 8);
    *offset += rows * 8;
  } else {
    for (size_t i = 0; i < rows; ++i) {
      uint64_t bits = 0;
      GetU64(bytes, offset, &bits);
      std::memcpy(&(*col)[i], &bits, sizeof(bits));
    }
  }
}

// Bulk little-endian copies of a u32 array (per-value fallback on BE).
void PutU32Array(const std::vector<uint32_t>& values,
                 std::vector<uint8_t>* out) {
  if constexpr (std::endian::native == std::endian::little) {
    const auto* p = reinterpret_cast<const uint8_t*>(values.data());
    out->insert(out->end(), p, p + values.size() * 4);
  } else {
    for (uint32_t v : values) PutU32(v, out);
  }
}

void GetU32Array(const std::vector<uint8_t>& bytes, size_t* offset,
                 std::vector<uint32_t>* values) {
  // Caller has bounds-checked `values->size() * 4` bytes remain.
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(values->data(), bytes.data() + *offset, values->size() * 4);
    *offset += values->size() * 4;
  } else {
    for (uint32_t& v : *values) GetU32(bytes, offset, &v);
  }
}

}  // namespace

void ColumnarBatch::SerializeTo(std::vector<uint8_t>* out) const {
  out->reserve(out->size() + SerializedBytes());
  PutU64(num_rows_, out);
  std::vector<uint32_t> lens;  // length scratch, shared across string columns
  for (size_t c = 0; c < schema_.size(); ++c) {
    const Column& col = columns_[c];
    switch (schema_[c]) {
      case ValueType::kInt64:
        PutFixedColumn(col.i64, out);
        break;
      case ValueType::kDouble:
        PutFixedColumn(col.f64, out);
        break;
      case ValueType::kString:
        if (num_rows_ > 0) {
          lens.resize(num_rows_);
          for (size_t r = 0; r < num_rows_; ++r) {
            lens[r] = col.offsets[r + 1] - col.offsets[r];
          }
          PutU32Array(lens, out);
        }
        out->insert(out->end(), col.arena.begin(), col.arena.end());
        break;
    }
  }
}

Result<ColumnarBatch> ColumnarBatch::Deserialize(
    const std::vector<uint8_t>& bytes, size_t* offset,
    const BatchSchema& schema) {
  uint64_t rows = 0;
  if (!GetU64(bytes, offset, &rows)) {
    return Status::DataLoss("columnar batch: truncated row count");
  }
  // Cheap sanity bound: a fixed-width column needs 8 bytes per row, a
  // string column at least 4, so `rows` can never exceed the remaining
  // bytes when any column exists.
  if (!schema.empty() && rows > bytes.size() - *offset) {
    return Status::DataLoss("columnar batch: implausible row count");
  }
  ColumnarBatch batch{BatchSchema(schema)};
  batch.num_rows_ = static_cast<size_t>(rows);
  for (size_t c = 0; c < schema.size(); ++c) {
    Column& col = batch.columns_[c];
    switch (schema[c]) {
      case ValueType::kInt64: {
        if (*offset + rows * 8 > bytes.size()) {
          return Status::DataLoss("columnar batch: truncated int64 column");
        }
        GetFixedColumn(bytes, offset, static_cast<size_t>(rows), &col.i64);
        break;
      }
      case ValueType::kDouble: {
        if (*offset + rows * 8 > bytes.size()) {
          return Status::DataLoss("columnar batch: truncated double column");
        }
        GetFixedColumn(bytes, offset, static_cast<size_t>(rows), &col.f64);
        break;
      }
      case ValueType::kString: {
        // One bounds check for the whole length array, then the u64 sum
        // (overflow test on the true total — every prefix of non-negative
        // lengths is bounded by it) and a prefix sum into the offsets
        // layout.
        if (rows > (bytes.size() - *offset) / 4) {
          return Status::DataLoss("columnar batch: truncated string lengths");
        }
        std::vector<uint32_t> lens(static_cast<size_t>(rows));
        if (rows > 0) GetU32Array(bytes, offset, &lens);
        uint64_t total = 0;
        for (uint32_t len : lens) total += len;
        if (total > std::numeric_limits<uint32_t>::max()) {
          return Status::DataLoss("columnar batch: string arena overflow");
        }
        col.offsets.resize(static_cast<size_t>(rows) + 1);
        col.offsets[0] = 0;
        for (size_t r = 0; r < lens.size(); ++r) {
          col.offsets[r + 1] = col.offsets[r] + lens[r];
        }
        if (*offset + total > bytes.size()) {
          return Status::DataLoss("columnar batch: truncated string arena");
        }
        col.arena.assign(
            reinterpret_cast<const char*>(bytes.data() + *offset),
            static_cast<size_t>(total));
        *offset += static_cast<size_t>(total);
        break;
      }
      default:
        return Status::DataLoss("columnar batch: unknown column tag " +
                                std::to_string(static_cast<int>(schema[c])));
    }
  }
  return batch;
}

uint64_t ColumnarBatch::SerializedBytes() const {
  uint64_t size = 8;  // row count
  for (size_t c = 0; c < schema_.size(); ++c) {
    switch (schema_[c]) {
      case ValueType::kInt64:
      case ValueType::kDouble:
        size += 8 * static_cast<uint64_t>(num_rows_);
        break;
      case ValueType::kString:
        size += 4 * static_cast<uint64_t>(num_rows_) +
                columns_[c].arena.size();
        break;
    }
  }
  return size;
}

bool operator==(const ColumnarBatch& a, const ColumnarBatch& b) {
  if (a.schema_ != b.schema_ || a.num_rows_ != b.num_rows_) return false;
  for (size_t c = 0; c < a.schema_.size(); ++c) {
    const ColumnarBatch::Column& ca = a.columns_[c];
    const ColumnarBatch::Column& cb = b.columns_[c];
    switch (a.schema_[c]) {
      case ValueType::kInt64:
        if (ca.i64 != cb.i64) return false;
        break;
      case ValueType::kDouble:
        // Bit-exact (the serde round-trips bit patterns, so -0.0 and NaN
        // payloads must compare faithfully).
        if (std::memcmp(ca.f64.data(), cb.f64.data(),
                        ca.f64.size() * sizeof(double)) != 0) {
          return false;
        }
        break;
      case ValueType::kString:
        if (ca.offsets != cb.offsets || ca.arena != cb.arena) return false;
        break;
    }
  }
  return true;
}

void FlatKeyIndex::Build(const std::vector<Record>& rows,
                         const KeyColumns& key) {
  BuildWithHashes(rows, key, {});
}

void FlatKeyIndex::BuildWithHashes(const std::vector<Record>& rows,
                                   const KeyColumns& key,
                                   std::vector<uint64_t> hashes) {
  FLINKLESS_CHECK(rows.size() < static_cast<size_t>(
                                    std::numeric_limits<int32_t>::max()),
                  "partition too large for 32-bit row ids");
  rows_ = &rows;
  key_ = key;
  const size_t n = rows.size();
  hash_.resize(n);
  next_.assign(n, -1);
  tail_.resize(n);
  heads_.clear();

  // Single-column int64 fast path: keys and comparisons run off a flat
  // array instead of the Value variant.
  use_key64_ = key.size() == 1;
  if (use_key64_) {
    key64_.resize(n);
    const int col = key[0];
    for (size_t i = 0; i < n; ++i) {
      if (static_cast<size_t>(col) >= rows[i].size() ||
          !rows[i][col].is_int64()) {
        use_key64_ = false;
        break;
      }
      key64_[i] = rows[i][col].AsInt64();
    }
  }
  if (hashes.size() == n) {
    // Adopted hashes (spilled-entry rebuild): skip the hash pass entirely.
    hash_ = std::move(hashes);
  } else if (use_key64_) {
    for (size_t i = 0; i < n; ++i) hash_[i] = HashInt64Key(key64_[i]);
  } else {
    for (size_t i = 0; i < n; ++i) hash_[i] = HashKey(rows[i], key);
  }

  size_t cap = 16;
  while (cap < 2 * n) cap <<= 1;
  buckets_.assign(cap, -1);
  mask_ = cap - 1;

  for (size_t i = 0; i < n; ++i) {
    const uint64_t h = hash_[i];
    uint64_t b = h & mask_;
    for (;;) {
      const int32_t head = buckets_[b];
      if (head < 0) {
        buckets_[b] = static_cast<int32_t>(i);
        heads_.push_back(static_cast<int32_t>(i));
        tail_[i] = static_cast<int32_t>(i);
        break;
      }
      const bool same =
          hash_[head] == h &&
          (use_key64_ ? key64_[head] == key64_[i]
                      : KeysEqual(rows[head], key, rows[i], key));
      if (same) {
        next_[tail_[head]] = static_cast<int32_t>(i);
        tail_[head] = static_cast<int32_t>(i);
        break;
      }
      b = (b + 1) & mask_;
    }
  }
}

int32_t FlatKeyIndex::FindFirst(const Record& probe,
                                const KeyColumns& probe_key,
                                uint64_t probe_hash) const {
  if (buckets_.empty()) return -1;
  const bool probe64 = use_key64_ && probe_key.size() == 1 &&
                       static_cast<size_t>(probe_key[0]) < probe.size() &&
                       probe[probe_key[0]].is_int64();
  const int64_t probe_val = probe64 ? probe[probe_key[0]].AsInt64() : 0;
  uint64_t b = probe_hash & mask_;
  for (;;) {
    const int32_t head = buckets_[b];
    if (head < 0) return -1;
    if (hash_[head] == probe_hash) {
      const bool match =
          probe64 ? key64_[head] == probe_val
                  : KeysEqual((*rows_)[head], key_, probe, probe_key);
      if (match) return head;
    }
    b = (b + 1) & mask_;
  }
}

void FlatKeyIndex::FindFirstStripe(const int64_t* keys,
                                   const uint64_t* hashes, size_t n,
                                   int32_t* out) const {
  FLINKLESS_CHECK(use_key64_, "FindFirstStripe on a non-key64 index");
  if (buckets_.empty()) {
    std::fill(out, out + n, -1);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t h = hashes[i];
    const int64_t probe = keys[i];
    uint64_t b = h & mask_;
    int32_t found = -1;
    for (;;) {
      const int32_t head = buckets_[b];
      if (head < 0) break;
      if (hash_[head] == h && key64_[head] == probe) {
        found = head;
        break;
      }
      b = (b + 1) & mask_;
    }
    out[i] = found;
  }
}

}  // namespace flinkless::dataflow
