#include "dataflow/dataset.h"

#include <algorithm>
#include <limits>

#include "common/byte_codec.h"
#include "common/logging.h"
#include "dataflow/columnar.h"

namespace flinkless::dataflow {

int PartitionedDataset::PartitionOf(const Record& record,
                                    const KeyColumns& key,
                                    int num_partitions) {
  FLINKLESS_CHECK(num_partitions > 0, "PartitionOf needs >= 1 partition");
  return static_cast<int>(HashKey(record, key) %
                          static_cast<uint64_t>(num_partitions));
}

PartitionedDataset PartitionedDataset::HashPartitioned(
    std::vector<Record> records, const KeyColumns& key, int num_partitions) {
  PartitionedDataset ds(num_partitions);
  for (auto& r : records) {
    int p = PartitionOf(r, key, num_partitions);
    ds.partitions_[p].push_back(std::move(r));
  }
  return ds;
}

PartitionedDataset PartitionedDataset::RoundRobin(std::vector<Record> records,
                                                  int num_partitions) {
  PartitionedDataset ds(num_partitions);
  for (size_t i = 0; i < records.size(); ++i) {
    ds.partitions_[i % num_partitions].push_back(std::move(records[i]));
  }
  return ds;
}

uint64_t PartitionedDataset::NumRecords() const {
  uint64_t total = 0;
  for (const auto& p : partitions_) total += p.size();
  return total;
}

std::vector<Record> PartitionedDataset::Collect() const {
  std::vector<Record> out;
  out.reserve(NumRecords());
  for (const auto& p : partitions_) {
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

std::vector<Record> PartitionedDataset::CollectSorted() const {
  std::vector<Record> out = Collect();
  std::sort(out.begin(), out.end(), RecordLess);
  return out;
}

uint64_t PartitionedDataset::SerializedSizeBytes() const {
  uint64_t total = 0;
  for (const auto& p : partitions_) total += SerializedSize(p);
  return total;
}

bool PartitionedDataset::IsPartitionedBy(const KeyColumns& key) const {
  for (int p = 0; p < num_partitions(); ++p) {
    for (const Record& r : partitions_[p]) {
      if (PartitionOf(r, key, num_partitions()) != p) return false;
    }
  }
  return true;
}

namespace {

/// Spill blob format v1 ("FLKDST1\0" little-endian); the leading magic
/// disambiguates dataset blobs from every other blob family in
/// StableStorage (checkpoints start with record counts or their own magic).
constexpr uint64_t kDatasetBlobMagicV1 = 0x00315453444b4c46ULL;

/// Spill blob format v2 ("FLKCOL1\0" little-endian): one schema for the
/// whole dataset, then whole-column payloads per partition (DESIGN.md §12)
/// instead of per-record framing. Chosen whenever every record shares one
/// schema; v1 remains the fallback for heterogeneous datasets and stays
/// readable forever.
constexpr uint64_t kDatasetBlobMagicV2 = 0x00314c4f434b4c46ULL;

/// True (filling *schema) when every record in every partition shares one
/// schema — the v2 eligibility test. An all-empty dataset is homogeneous
/// with an empty schema.
bool InferDatasetSchema(const PartitionedDataset& ds, BatchSchema* schema) {
  bool have = false;
  for (int p = 0; p < ds.num_partitions(); ++p) {
    const std::vector<Record>& part = ds.partition(p);
    if (part.empty()) continue;
    BatchSchema s;
    if (!InferBatchSchema(part, &s)) return false;
    if (!have) {
      *schema = std::move(s);
      have = true;
    } else if (s != *schema) {
      return false;
    }
  }
  return true;
}

/// v2 is used when the dataset is schema-homogeneous and the schema is
/// non-degenerate (zero-column records, which only arity-0 records produce,
/// stay on v1 so row counts are always bounded by payload bytes).
bool UseColumnarBlob(const PartitionedDataset& ds, BatchSchema* schema) {
  if (!InferDatasetSchema(ds, schema)) return false;
  return !schema->empty() || ds.NumRecords() == 0;
}

/// Exact serialized size of one partition as a v2 column block.
uint64_t ColumnarPartitionBytes(const std::vector<Record>& part,
                                const BatchSchema& schema) {
  uint64_t size = 8;  // row count
  for (size_t c = 0; c < schema.size(); ++c) {
    switch (schema[c]) {
      case ValueType::kInt64:
      case ValueType::kDouble:
        size += 8 * static_cast<uint64_t>(part.size());
        break;
      case ValueType::kString:
        size += 4 * static_cast<uint64_t>(part.size());
        for (const Record& r : part) size += r[c].AsString().size();
        break;
    }
  }
  return size;
}

/// Reads a partition count. Every partition's block starts with a u64 row
/// count, so a valid count fits both an int and the remaining bytes.
bool GetPartitionCount(const std::vector<uint8_t>& bytes, size_t* offset,
                       uint64_t* num_partitions) {
  return GetU64(bytes, offset, num_partitions) &&
         *num_partitions <=
             static_cast<uint64_t>(std::numeric_limits<int>::max()) &&
         *num_partitions <= (bytes.size() - *offset) / 8;
}

}  // namespace

std::vector<uint8_t> SerializePartitionedDataset(
    const PartitionedDataset& ds) {
  std::vector<uint8_t> out;
  BatchSchema schema;
  // One format decision (a full type scan) shared by the size reservation
  // and the write loop — SerializedDatasetBytes would redo the scan.
  if (UseColumnarBlob(ds, &schema)) {
    uint64_t size = 16 + 4 + schema.size();  // magic, partitions, schema
    for (int p = 0; p < ds.num_partitions(); ++p) {
      size += ColumnarPartitionBytes(ds.partition(p), schema);
    }
    out.reserve(size);
    PutU64(kDatasetBlobMagicV2, &out);
    PutU64(static_cast<uint64_t>(ds.num_partitions()), &out);
    PutU32(static_cast<uint32_t>(schema.size()), &out);
    for (ValueType t : schema) out.push_back(static_cast<uint8_t>(t));
    for (int p = 0; p < ds.num_partitions(); ++p) {
      ColumnarBatch::FromRecordsUnchecked(ds.partition(p), schema)
          .SerializeTo(&out);
    }
    return out;
  }
  out.reserve(16 + ds.SerializedSizeBytes());
  PutU64(kDatasetBlobMagicV1, &out);
  PutU64(static_cast<uint64_t>(ds.num_partitions()), &out);
  for (int p = 0; p < ds.num_partitions(); ++p) {
    const std::vector<Record>& part = ds.partition(p);
    PutU64(part.size(), &out);
    for (const Record& r : part) SerializeRecord(r, &out);
  }
  return out;
}

namespace {

Result<PartitionedDataset> DeserializeColumnarDataset(
    const std::vector<uint8_t>& bytes, size_t offset) {
  uint64_t num_partitions = 0;
  if (!GetPartitionCount(bytes, &offset, &num_partitions)) {
    return Status::DataLoss("dataset blob: bad partition count");
  }
  uint32_t num_columns = 0;
  if (!GetU32(bytes, &offset, &num_columns) || num_columns > (1u << 16)) {
    return Status::DataLoss("dataset blob: bad column count");
  }
  BatchSchema schema;
  schema.reserve(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    if (offset >= bytes.size()) {
      return Status::DataLoss("dataset blob: truncated schema");
    }
    uint8_t tag = bytes[offset++];
    if (tag > static_cast<uint8_t>(ValueType::kString)) {
      return Status::DataLoss("dataset blob: unknown column tag " +
                              std::to_string(static_cast<int>(tag)));
    }
    schema.push_back(static_cast<ValueType>(tag));
  }
  PartitionedDataset ds(static_cast<int>(num_partitions));
  for (int p = 0; p < ds.num_partitions(); ++p) {
    FLINKLESS_ASSIGN_OR_RETURN(
        ColumnarBatch batch,
        ColumnarBatch::Deserialize(bytes, &offset, schema));
    if (schema.empty() && batch.num_rows() > 0) {
      return Status::DataLoss("dataset blob: rows without columns");
    }
    ds.partition(p) = batch.ToRecords();
  }
  if (offset != bytes.size()) {
    return Status::DataLoss("dataset blob: trailing garbage");
  }
  return ds;
}

}  // namespace

Result<PartitionedDataset> DeserializePartitionedDataset(
    const std::vector<uint8_t>& bytes) {
  size_t offset = 0;
  uint64_t magic = 0;
  if (!GetU64(bytes, &offset, &magic)) {
    return Status::DataLoss("dataset blob: bad magic");
  }
  if (magic == kDatasetBlobMagicV2) {
    return DeserializeColumnarDataset(bytes, offset);
  }
  if (magic != kDatasetBlobMagicV1) {
    return Status::DataLoss("dataset blob: bad magic");
  }
  uint64_t num_partitions = 0;
  if (!GetPartitionCount(bytes, &offset, &num_partitions)) {
    return Status::DataLoss("dataset blob: bad partition count");
  }
  PartitionedDataset ds(static_cast<int>(num_partitions));
  for (int p = 0; p < ds.num_partitions(); ++p) {
    uint64_t count = 0;
    if (!GetU64(bytes, &offset, &count)) {
      return Status::DataLoss("dataset blob: truncated partition header");
    }
    if (count > (bytes.size() - offset) / kMinRecordBytes) {
      return Status::DataLoss("dataset blob: partition record count " +
                              std::to_string(count) +
                              " exceeds the remaining bytes");
    }
    std::vector<Record>& part = ds.partition(p);
    part.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      FLINKLESS_ASSIGN_OR_RETURN(Record r,
                                 DeserializeRecord(bytes, &offset));
      part.push_back(std::move(r));
    }
  }
  if (offset != bytes.size()) {
    return Status::DataLoss("dataset blob: trailing garbage");
  }
  return ds;
}

uint64_t SerializedDatasetBytes(const PartitionedDataset& ds) {
  // Mirrors SerializePartitionedDataset's format choice exactly — the
  // memory manager budgets against this number and spill blobs must match
  // it byte for byte.
  BatchSchema schema;
  if (UseColumnarBlob(ds, &schema)) {
    uint64_t size = 16 + 4 + schema.size();  // magic, partitions, schema
    for (int p = 0; p < ds.num_partitions(); ++p) {
      size += ColumnarPartitionBytes(ds.partition(p), schema);
    }
    return size;
  }
  // v1: magic + partition count, then per partition the same
  // [count][records] layout SerializedSize measures.
  return 16 + ds.SerializedSizeBytes();
}

}  // namespace flinkless::dataflow
