#include "dataflow/block_codec.h"

#include <bit>
#include <cstring>
#include <string>

#include "common/byte_codec.h"
#include "dataflow/columnar.h"

namespace flinkless::dataflow {

namespace {

constexpr uint8_t kRowsLayout = 0;
constexpr uint8_t kColumnsLayout = 1;

/// Fixed bytes per row of a columns block: 8 per int64 or double column,
/// a u32 length per string column.
uint64_t FixedRowBytes(const BatchSchema& schema) {
  uint64_t bytes = 0;
  for (ValueType type : schema) bytes += type == ValueType::kString ? 4 : 8;
  return bytes;
}

/// Where each column's array starts in the body of a columns block (after
/// the row count): the int64 and double columns in column order, then the
/// string length arrays in column order. The string bytes follow them, at
/// rows * FixedRowBytes(schema).
std::vector<uint64_t> ColumnStarts(const BatchSchema& schema, uint64_t rows) {
  std::vector<uint64_t> starts(schema.size());
  uint64_t at = 0;
  for (bool strings : {false, true}) {
    for (size_t c = 0; c < schema.size(); ++c) {
      if ((schema[c] == ValueType::kString) != strings) continue;
      starts[c] = at;
      at += (strings ? 4 : 8) * rows;
    }
  }
  return starts;
}

/// The one layout decision EncodeBlock and BlockSize share: true when
/// `rows` is not empty and every row has the first row's non-empty schema,
/// with that schema and the exact size of the columns block.
bool ColumnsLayout(const std::vector<Record>& rows, BatchSchema* schema,
                   uint64_t* size) {
  if (rows.empty() || !InferBatchSchema(rows, schema) || schema->empty()) {
    return false;
  }
  *size = 1 + 4 + schema->size() + 8 + rows.size() * FixedRowBytes(*schema);
  for (size_t c = 0; c < schema->size(); ++c) {
    if ((*schema)[c] != ValueType::kString) continue;
    for (const Record& r : rows) *size += r[c].AsString().size();
  }
  return true;
}

/// Appends `rows` as a columns block of `schema` and `size` bytes, as
/// ColumnsLayout found them.
void EncodeColumns(const std::vector<Record>& rows, const BatchSchema& schema,
                   uint64_t size, std::vector<uint8_t>* out) {
  const size_t num_columns = schema.size();
  const size_t start = out->size();
  out->resize(start + size);
  uint8_t* p = out->data() + start;
  *p++ = kColumnsLayout;
  StoreLE(static_cast<uint32_t>(num_columns), p);
  p += 4;
  for (ValueType type : schema) *p++ = static_cast<uint8_t>(type);
  StoreLE(static_cast<uint64_t>(rows.size()), p);
  p += 8;
  // One pass over the rows, one write cursor per column.
  const std::vector<uint64_t> starts = ColumnStarts(schema, rows.size());
  std::vector<uint8_t*> cursors(num_columns);
  for (size_t c = 0; c < num_columns; ++c) cursors[c] = p + starts[c];
  uint8_t* strings = p + rows.size() * FixedRowBytes(schema);
  for (const Record& r : rows) {
    for (size_t c = 0; c < num_columns; ++c) {
      switch (schema[c]) {
        case ValueType::kInt64:
          StoreLE(static_cast<uint64_t>(r[c].AsInt64()), cursors[c]);
          cursors[c] += 8;
          break;
        case ValueType::kDouble:
          StoreLE(std::bit_cast<uint64_t>(r[c].AsDouble()), cursors[c]);
          cursors[c] += 8;
          break;
        case ValueType::kString: {
          const std::string& s = r[c].AsString();
          StoreLE(static_cast<uint32_t>(s.size()), cursors[c]);
          cursors[c] += 4;
          std::memcpy(strings, s.data(), s.size());
          strings += s.size();
          break;
        }
      }
    }
  }
}

Result<std::vector<Record>> DecodeRows(const std::vector<uint8_t>& bytes,
                                       size_t* offset) {
  uint64_t count = 0;
  if (!GetU64(bytes, offset, &count)) {
    return Status::DataLoss("block: truncated row count");
  }
  if (count > (bytes.size() - *offset) / kMinRecordBytes) {
    return Status::DataLoss("block: row count " + std::to_string(count) +
                            " exceeds the remaining bytes");
  }
  std::vector<Record> rows;
  rows.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    FLINKLESS_ASSIGN_OR_RETURN(Record r, DeserializeRecord(bytes, offset));
    rows.push_back(std::move(r));
  }
  return rows;
}

Result<std::vector<Record>> DecodeColumns(const std::vector<uint8_t>& bytes,
                                          size_t* offset) {
  uint32_t num_columns = 0;
  if (!GetU32(bytes, offset, &num_columns) || num_columns == 0 ||
      num_columns > bytes.size() - *offset) {
    return Status::DataLoss("block: bad column count");
  }
  BatchSchema schema(num_columns);
  for (ValueType& type : schema) {
    const uint8_t tag = bytes[(*offset)++];
    if (tag > static_cast<uint8_t>(ValueType::kString)) {
      return Status::DataLoss("block: unknown column tag " +
                              std::to_string(static_cast<int>(tag)));
    }
    type = static_cast<ValueType>(tag);
  }
  uint64_t rows = 0;
  if (!GetU64(bytes, offset, &rows)) {
    return Status::DataLoss("block: truncated row count");
  }
  const uint64_t row_bytes = FixedRowBytes(schema);
  if (rows > (bytes.size() - *offset) / row_bytes) {
    return Status::DataLoss("block: row count " + std::to_string(rows) +
                            " exceeds the remaining bytes");
  }
  const uint8_t* body = bytes.data() + *offset;
  const std::vector<uint64_t> starts = ColumnStarts(schema, rows);
  // Sum the string lengths before building a row, so a truncated block
  // fails without allocating its records.
  uint64_t string_bytes = 0;
  for (size_t c = 0; c < num_columns; ++c) {
    if (schema[c] != ValueType::kString) continue;
    for (uint64_t r = 0; r < rows; ++r) {
      string_bytes += LoadLE<uint32_t>(body + starts[c] + 4 * r);
    }
  }
  if (string_bytes > bytes.size() - *offset - rows * row_bytes) {
    return Status::DataLoss("block: truncated string bytes");
  }

  const char* strings =
      reinterpret_cast<const char*>(body + rows * row_bytes);
  std::vector<Record> out;
  out.reserve(rows);
  for (uint64_t r = 0; r < rows; ++r) {
    Record& record = out.emplace_back();
    record.reserve(num_columns);
    for (size_t c = 0; c < num_columns; ++c) {
      switch (schema[c]) {
        case ValueType::kInt64:
          record.emplace_back(LoadLE<int64_t>(body + starts[c] + 8 * r));
          break;
        case ValueType::kDouble:
          record.emplace_back(std::bit_cast<double>(
              LoadLE<uint64_t>(body + starts[c] + 8 * r)));
          break;
        case ValueType::kString: {
          const uint32_t len = LoadLE<uint32_t>(body + starts[c] + 4 * r);
          record.emplace_back(std::string(strings, len));
          strings += len;
          break;
        }
      }
    }
  }
  *offset += rows * row_bytes + string_bytes;
  return out;
}

}  // namespace

void EncodeBlock(const std::vector<Record>& rows, std::vector<uint8_t>* out) {
  BatchSchema schema;
  uint64_t size = 0;
  if (ColumnsLayout(rows, &schema, &size)) {
    EncodeColumns(rows, schema, size, out);
    return;
  }
  out->push_back(kRowsLayout);
  PutU64(rows.size(), out);
  for (const Record& r : rows) SerializeRecord(r, out);
}

Result<std::vector<Record>> DecodeBlock(const std::vector<uint8_t>& bytes,
                                        size_t* offset) {
  if (*offset >= bytes.size()) {
    return Status::DataLoss("block: truncated layout tag");
  }
  const uint8_t layout = bytes[(*offset)++];
  switch (layout) {
    case kRowsLayout:
      return DecodeRows(bytes, offset);
    case kColumnsLayout:
      return DecodeColumns(bytes, offset);
    default:
      return Status::DataLoss("block: unknown layout tag " +
                              std::to_string(static_cast<int>(layout)));
  }
}

uint64_t BlockSize(const std::vector<Record>& rows) {
  BatchSchema schema;
  uint64_t size = 0;
  if (ColumnsLayout(rows, &schema, &size)) return size;
  size = kMinBlockBytes;
  for (const Record& r : rows) {
    size += kMinRecordBytes;
    for (const Value& v : r) {
      size += v.is_string() ? kMinFieldBytes + v.AsString().size() : 1 + 8;
    }
  }
  return size;
}

}  // namespace flinkless::dataflow
