// Columnar batch execution support (DESIGN.md §12).
//
// Record-at-a-time execution over boxed Value variants is what kept the
// thread-sweep curve flat: every ExtractKey allocates a Record and every
// unordered_map insert allocates a node. This header holds the flat
// helpers the hot loops use instead:
//
//  * InferBatchSchema — the shared per-column type of a partition's rows
//    (the partition block's choice between its columns and rows layouts,
//    block_codec.h).
//  * ExtractKey64 — a single-int64-column key projection as a flat array.
//  * FlatKeyIndex — an open-addressing hash index over a partition's rows,
//    keyed on key columns in place (no ExtractKey allocation, no map
//    nodes). Groups are arrival-order chains of row ids, so probing yields
//    records in arrival order within each key — the order a map of
//    per-key record lists would hold them in.
//
// Determinism: every structure here is a pure function of the input rows
// (hash seeds are fixed, insertion order is partition order), so outputs
// are identical at any thread count — threads only decide which partition's
// index is built when.

#ifndef FLINKLESS_DATAFLOW_COLUMNAR_H_
#define FLINKLESS_DATAFLOW_COLUMNAR_H_

#include <cstdint>
#include <vector>

#include "dataflow/record.h"

namespace flinkless::dataflow {

/// Type-only schema of a partition's rows: the per-column ValueType tags.
/// (The named Schema in schema.h describes sources for humans; blocks only
/// need the layout.)
using BatchSchema = std::vector<ValueType>;

/// Infers the common schema of `records`: true when every record has the
/// same arity and per-column types (vacuously true for an empty vector,
/// which yields an empty schema). On false, *schema is unspecified.
bool InferBatchSchema(const std::vector<Record>& records, BatchSchema* schema);

/// Extracts a single-int64-column key projection into a flat array: true
/// when `key` is one column and every record holds an int64 there (the
/// layout the HashInt64Key loops and FindFirstStripe run on). On false,
/// *out is unspecified. An empty record vector extracts trivially (empty
/// *out).
bool ExtractKey64(const std::vector<Record>& records, const KeyColumns& key,
                  std::vector<int64_t>* out);

/// Per-partition open-addressing hash index over a vector of records, keyed
/// on `key` columns in place, in place of an unordered_map<Record, ...> of
/// groups: power-of-two capacity,
/// linear probing, cached per-row key hashes, and arrival-order group
/// chains of row ids — zero allocation per probe, one allocation per array
/// at build.
///
/// Lifetime: the index borrows `rows` (the vector object, not its
/// buffer); it must not outlive them. The rows may change only by
/// overwriting a row with one of the same key, or by push_back followed by
/// Append; any other mutation needs a fresh Build.
class FlatKeyIndex {
 public:
  /// Indexes `rows` on `key`. Rebuilding over an old index reuses storage.
  void Build(const std::vector<Record>& rows, const KeyColumns& key);

  /// Indexes the row just pushed onto the borrowed rows (exactly one new
  /// row since the last Build/Append, checked); `hash` must be its
  /// HashKey on the index's key. Amortized O(1): the bucket table doubles
  /// when it passes half full. A row whose key column is not an int64
  /// drops the index off the single-int64 fast path.
  void Append(uint64_t hash);

  /// Build, but adopting previously computed row hashes (the cached-hash
  /// retention path for spilled cache entries — DESIGN.md §15). `hashes`
  /// must be this index's own row_hashes() from an earlier Build over the
  /// same rows/key; a size mismatch falls back to a plain Build.
  void BuildWithHashes(const std::vector<Record>& rows, const KeyColumns& key,
                       std::vector<uint64_t> hashes);

  /// First row (in arrival order) whose key equals `probe`'s projection
  /// onto `probe_key`, or -1. `probe_hash` must be
  /// HashKey(probe, probe_key) — callers hoist it so cached hashes are
  /// compared before any value comparison.
  int32_t FindFirst(const Record& probe, const KeyColumns& probe_key,
                    uint64_t probe_hash) const;

  /// Batched FindFirst over a stripe of single-int64 probe keys with their
  /// hashes (hashes[i] must equal HashInt64Key(keys[i])). Requires
  /// key64_probe_ready(); out[i] matches FindFirst exactly, and each probe
  /// runs the same per-bucket loop, comparing flat int64 keys.
  void FindFirstStripe(const int64_t* keys, const uint64_t* hashes, size_t n,
                       int32_t* out) const;

  /// True when the index was built on a single all-int64 key column, i.e.
  /// FindFirstStripe may be used.
  bool key64_probe_ready() const { return use_key64_; }

  /// Next row of the same group in arrival order, or -1 at the end.
  int32_t Next(int32_t row) const { return next_[row]; }

  /// One row id per distinct key, in first-arrival order — the batch-path
  /// equivalent of iterating GroupByKey's map (before key sorting).
  const std::vector<int32_t>& heads() const { return heads_; }

  /// Cached HashKey of each indexed row.
  const std::vector<uint64_t>& row_hashes() const { return hash_; }

  size_t num_rows() const { return hash_.size(); }
  size_t num_groups() const { return heads_.size(); }

 private:
  /// Links row `i` (hash and key64 already set) into its group, or opens
  /// a new group for it.
  void Insert(size_t i);

  const std::vector<Record>* rows_ = nullptr;
  KeyColumns key_;
  std::vector<uint64_t> hash_;     // per row: HashKey(rows[i], key)
  std::vector<int32_t> next_;      // per row: next row of the group, or -1
  std::vector<int32_t> tail_;      // per head row: last row of the group
  std::vector<int32_t> heads_;     // group head rows, first-arrival order
  std::vector<int32_t> buckets_;   // open-addressing table of head rows
  uint64_t mask_ = 0;              // buckets_.size() - 1 (power of two)

  /// Single-column int64 fast path: the key values, flat. Empty when the
  /// key is multi-column or any row's key column is not int64.
  std::vector<int64_t> key64_;
  bool use_key64_ = false;
};

}  // namespace flinkless::dataflow

#endif  // FLINKLESS_DATAFLOW_COLUMNAR_H_
