#include "dataflow/record.h"

#include <cstring>

#include "common/byte_codec.h"
#include "common/hash.h"
#include "common/logging.h"

namespace flinkless::dataflow {

std::string RecordToString(const Record& record) {
  std::string out = "(";
  for (size_t i = 0; i < record.size(); ++i) {
    if (i) out += ", ";
    out += record[i].ToString();
  }
  out += ")";
  return out;
}

namespace {

/// Seed of every key hash: HashKey and HashInt64Key start from it.
constexpr uint64_t kKeyHashSeed = 0x2545f4914f6cdd1dULL;

}  // namespace

uint64_t HashKey(const Record& record, const KeyColumns& key) {
  uint64_t h = kKeyHashSeed;
  for (int col : key) {
    FLINKLESS_CHECK(col >= 0 && static_cast<size_t>(col) < record.size(),
                    "key column " << col << " out of range for record "
                                  << RecordToString(record));
    h = HashCombine(h, record[col].Hash());
  }
  return h;
}

uint64_t HashInt64Key(int64_t key) {
  return HashCombine(kKeyHashSeed, Mix64(static_cast<uint64_t>(key)));
}

uint64_t HashRecord(const Record& record) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const Value& v : record) h = HashCombine(h, v.Hash());
  return h;
}

bool KeysEqual(const Record& a, const KeyColumns& a_key, const Record& b,
               const KeyColumns& b_key) {
  if (a_key.size() != b_key.size()) return false;
  for (size_t i = 0; i < a_key.size(); ++i) {
    if (!(a[a_key[i]] == b[b_key[i]])) return false;
  }
  return true;
}

Record ExtractKey(const Record& record, const KeyColumns& key) {
  Record out;
  out.reserve(key.size());
  for (int col : key) {
    FLINKLESS_CHECK(col >= 0 && static_cast<size_t>(col) < record.size(),
                    "key column " << col << " out of range");
    out.push_back(record[col]);
  }
  return out;
}

bool KeyLess(const Record& a, const Record& b, const KeyColumns& key) {
  for (int col : key) {
    const Value& va = a[col];
    const Value& vb = b[col];
    if (va < vb) return true;
    if (vb < va) return false;
  }
  return false;
}

bool RecordLess(const Record& a, const Record& b) { return a < b; }

void SerializeRecord(const Record& record, std::vector<uint8_t>* out) {
  PutU32(static_cast<uint32_t>(record.size()), out);
  for (const Value& v : record) {
    out->push_back(static_cast<uint8_t>(v.type()));
    switch (v.type()) {
      case ValueType::kInt64:
        PutU64(static_cast<uint64_t>(v.AsInt64()), out);
        break;
      case ValueType::kDouble: {
        uint64_t bits;
        double d = v.AsDouble();
        std::memcpy(&bits, &d, sizeof(bits));
        PutU64(bits, out);
        break;
      }
      case ValueType::kString: {
        const std::string& s = v.AsString();
        PutU32(static_cast<uint32_t>(s.size()), out);
        out->insert(out->end(), s.begin(), s.end());
        break;
      }
    }
  }
}

Result<Record> DeserializeRecord(const std::vector<uint8_t>& bytes,
                                 size_t* offset) {
  uint32_t count = 0;
  if (!GetU32(bytes, offset, &count)) {
    return Status::DataLoss("truncated record header");
  }
  // Every field takes at least kMinFieldBytes, so a count the remaining
  // bytes cannot hold is corrupt — and must not size the reservation.
  if (count > (bytes.size() - *offset) / kMinFieldBytes) {
    return Status::DataLoss("record field count " + std::to_string(count) +
                            " exceeds the remaining bytes");
  }
  Record record;
  record.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (*offset >= bytes.size()) {
      return Status::DataLoss("truncated field tag");
    }
    auto tag = static_cast<ValueType>(bytes[(*offset)++]);
    switch (tag) {
      case ValueType::kInt64: {
        uint64_t v = 0;
        if (!GetU64(bytes, offset, &v)) {
          return Status::DataLoss("truncated int64 field");
        }
        record.emplace_back(static_cast<int64_t>(v));
        break;
      }
      case ValueType::kDouble: {
        uint64_t bits = 0;
        if (!GetU64(bytes, offset, &bits)) {
          return Status::DataLoss("truncated double field");
        }
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        record.emplace_back(d);
        break;
      }
      case ValueType::kString: {
        uint32_t len = 0;
        if (!GetU32(bytes, offset, &len) || *offset + len > bytes.size()) {
          return Status::DataLoss("truncated string field");
        }
        record.emplace_back(std::string(
            reinterpret_cast<const char*>(bytes.data() + *offset), len));
        *offset += len;
        break;
      }
      default:
        return Status::DataLoss("unknown value tag " +
                                std::to_string(static_cast<int>(tag)));
    }
  }
  return record;
}

}  // namespace flinkless::dataflow
