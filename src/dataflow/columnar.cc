#include "dataflow/columnar.h"

#include <algorithm>
#include <limits>

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

// Inline: Build runs it once per row.
inline void FlatKeyIndex::Insert(size_t i) {
  const uint64_t h = hash_[i];
  uint64_t b = h & mask_;
  for (;;) {
    const int32_t head = buckets_[b];
    if (head < 0) {
      buckets_[b] = static_cast<int32_t>(i);
      heads_.push_back(static_cast<int32_t>(i));
      tail_[i] = static_cast<int32_t>(i);
      return;
    }
    const bool same =
        hash_[head] == h &&
        (use_key64_ ? key64_[head] == key64_[i]
                    : KeysEqual((*rows_)[head], key_, (*rows_)[i], key_));
    if (same) {
      next_[tail_[head]] = static_cast<int32_t>(i);
      tail_[head] = static_cast<int32_t>(i);
      return;
    }
    b = (b + 1) & mask_;
  }
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

  for (size_t i = 0; i < n; ++i) Insert(i);
}

void FlatKeyIndex::Append(uint64_t hash) {
  const size_t i = hash_.size();
  FLINKLESS_CHECK(rows_ != nullptr && rows_->size() == i + 1,
                  "Append needs exactly one row pushed since the last index "
                  "update");
  FLINKLESS_CHECK(i + 1 < static_cast<size_t>(
                              std::numeric_limits<int32_t>::max()),
                  "partition too large for 32-bit row ids");
  const Record& row = (*rows_)[i];
  hash_.push_back(hash);
  next_.push_back(-1);
  tail_.push_back(static_cast<int32_t>(i));
  if (use_key64_) {
    const int col = key_[0];
    if (static_cast<size_t>(col) < row.size() && row[col].is_int64()) {
      key64_.push_back(row[col].AsInt64());
    } else {
      use_key64_ = false;
      key64_.clear();
    }
  }
  if (2 * (i + 1) > buckets_.size()) {
    // Past half full: double the table and re-place the group heads (their
    // keys are distinct, so each takes the first free bucket).
    buckets_.assign(2 * buckets_.size(), -1);
    mask_ = buckets_.size() - 1;
    for (const int32_t head : heads_) {
      uint64_t b = hash_[head] & mask_;
      while (buckets_[b] >= 0) b = (b + 1) & mask_;
      buckets_[b] = head;
    }
  }
  Insert(i);
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
