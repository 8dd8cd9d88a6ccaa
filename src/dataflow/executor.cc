#include "dataflow/executor.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "dataflow/columnar.h"
#include "dataflow/exec_cache.h"
#include "runtime/message_log.h"

namespace flinkless::dataflow {

namespace {

/// Message-log channel id for plan node `id`'s shuffled input arriving on
/// `port` ("in" for single-input shuffles, "l"/"r" for join/cogroup sides).
/// Node ids are append-ordered per plan, so the id set is stable across
/// supersteps of one job — which is what ties Execute's appends to
/// Replay's reads.
std::string MsglogChannel(int id, const char* port) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "n%04d.%s", id, port);
  return buf;
}

// Cogroup's materialized groups (the same shape ExecCache keeps for a
// cached side). Cogroup sweeps the merged key set in RecordLess order.
using GroupMap = CachedGroups;

GroupMap GroupByKey(const std::vector<Record>& records,
                    const KeyColumns& key) {
  GroupMap groups;
  groups.reserve(records.size());
  for (const Record& r : records) {
    groups[ExtractKey(r, key)].push_back(r);
  }
  return groups;
}

// ------------------------------------------------ columnar kernels (§12) --
//
// Flat open-addressing tables keyed on columns in place: zero per-record
// allocations. Every kernel folds in arrival order and emits in key order,
// so its output is a pure function of the partition's rows.

/// Open-addressing key -> dense-slot resolver. Slots are handed out in
/// first-arrival order; the caller owns the per-slot payload (accumulator
/// records, emitted rows) and supplies the equality predicate against it.
class FlatSlotMap {
 public:
  explicit FlatSlotMap(size_t expected) {
    size_t cap = 16;
    while (cap < 2 * expected) cap <<= 1;
    table_.assign(cap, -1);
    mask_ = cap - 1;
    hashes_.reserve(expected);
  }

  /// Slot of the key with hash `h` and equality `eq(slot)`, inserting the
  /// next dense slot when absent (*inserted). After an insert the caller
  /// must append the matching payload so eq can see it on later probes.
  template <typename Eq>
  int32_t FindOrInsert(uint64_t h, const Eq& eq, bool* inserted) {
    if ((size_ + 1) * 2 > table_.size()) Grow();
    uint64_t b = h & mask_;
    for (;;) {
      const int32_t slot = table_[b];
      if (slot < 0) {
        table_[b] = static_cast<int32_t>(size_);
        hashes_.push_back(h);
        *inserted = true;
        return static_cast<int32_t>(size_++);
      }
      if (hashes_[slot] == h && eq(slot)) {
        *inserted = false;
        return slot;
      }
      b = (b + 1) & mask_;
    }
  }

  size_t size() const { return size_; }

 private:
  void Grow() {
    const size_t cap = table_.size() * 2;
    table_.assign(cap, -1);
    mask_ = cap - 1;
    for (size_t s = 0; s < size_; ++s) {
      uint64_t b = hashes_[s] & mask_;
      while (table_[b] >= 0) b = (b + 1) & mask_;
      table_[b] = static_cast<int32_t>(s);
    }
  }

  std::vector<int32_t> table_;
  std::vector<uint64_t> hashes_;
  uint64_t mask_ = 0;
  size_t size_ = 0;
};

/// The first key column `row` is too short for, or -1 (Plan::Validate has
/// rejected negative columns).
int MissingKeyColumn(const Record& row, const KeyColumns& key) {
  for (int col : key) {
    if (static_cast<size_t>(col) >= row.size()) return col;
  }
  return -1;
}

/// A row too short for `node`'s key.
Status KeyColumnError(const PlanNode& node, int col, const Record& row) {
  return Status::OutOfRange(OpKindName(node.kind) + " '" + node.name +
                            "': key column " + std::to_string(col) +
                            " out of range for record " + RecordToString(row));
}

/// Where an operator body emits its rows: into the output partition, or on
/// into a chained consumer. Returns false when the consumer stopped on an
/// error, which it stored in the partition's status; the body stops too.
using RowSink = std::function<bool(Record&&)>;

/// A declared reduce's (int64 key, value) pair; a kSumDouble value holds
/// its double's bits.
using KeyValue = std::pair<int64_t, int64_t>;

/// The record a declared reduce of `kind` emits for `pair`.
Record PairRecord(ReduceKind kind, const KeyValue& pair) {
  return kind == ReduceKind::kSumDouble
             ? MakeRecord(pair.first, std::bit_cast<double>(pair.second))
             : MakeRecord(pair.first, pair.second);
}

/// PairRecord of every pair, in order.
std::vector<Record> PairRecords(ReduceKind kind,
                                const std::vector<KeyValue>& pairs) {
  std::vector<Record> records;
  records.reserve(pairs.size());
  for (const KeyValue& pair : pairs) records.push_back(PairRecord(kind, pair));
  return records;
}

/// A declared reduce's typed channel (DESIGN.md §15): per partition, the
/// pairs its pre-combine folds emitted. It has PartitionedDataset's
/// partition interface, so one ShuffleImpl moves both.
class PairDataset {
 public:
  explicit PairDataset(int num_partitions = 0) : partitions_(num_partitions) {}

  int num_partitions() const { return static_cast<int>(partitions_.size()); }
  std::vector<KeyValue>& partition(int p) { return partitions_[p]; }
  const std::vector<KeyValue>& partition(int p) const {
    return partitions_[p];
  }
  void ReleasePartition(int p) { std::vector<KeyValue>().swap(partitions_[p]); }

  /// The channel as the records the Record path would have shipped.
  PartitionedDataset ToRecords(ReduceKind kind) const {
    PartitionedDataset out(num_partitions());
    for (int p = 0; p < num_partitions(); ++p) {
      out.partition(p) = PairRecords(kind, partitions_[p]);
    }
    return out;
  }

 private:
  std::vector<std::vector<KeyValue>> partitions_;
};

/// Reduce of one partition, fed one row at a time in arrival order and
/// emitted sorted on the key. A declared combiner (DESIGN.md §15) folds
/// scalar (key, accumulator) pairs while rows have the declared shape; the
/// first row that does not turns the pairs into records and folds on with
/// the combiner, which the declaration promises is byte-identical.
/// `validate` enforces the combiner-keeps-the-key contract (post-shuffle).
/// `expected` sizes the slot map for a materialized input of that many
/// rows; 0 grows it as keys arrive.
class ReduceFold {
 public:
  ReduceFold(const PlanNode& node, bool validate, size_t expected = 0)
      : node_(node),
        validate_(validate),
        typed_(node.reduce_kind != ReduceKind::kNone &&
               node.left_key == KeyColumns{0} && node.reduce_value_col == 1),
        slots_(expected) {}

  /// Still folding typed pairs?
  bool typed() const { return typed_; }

  /// Folds one row; false (with *error set) when the row or the combiner
  /// breaks the operator's contract.
  bool Add(const Record& row, Status* error) {
    if (typed_) {
      if (AddTyped(row)) return true;
      ToRecords();
    }
    const KeyColumns& key = node_.left_key;
    const int missing = MissingKeyColumn(row, key);
    if (missing >= 0) {
      *error = KeyColumnError(node_, missing, row);
      return false;
    }
    // HashInt64Key is HashKey for a single int64 key column.
    const uint64_t h = key.size() == 1 && row[key[0]].is_int64()
                           ? HashInt64Key(row[key[0]].AsInt64())
                           : HashKey(row, key);
    bool inserted = false;
    const int32_t slot = slots_.FindOrInsert(
        h, [&](int32_t s) { return KeysEqual(acc_[s], key, row, key); },
        &inserted);
    if (inserted) {
      acc_.push_back(row);
      return true;
    }
    Record folded = node_.combine_fn(acc_[slot], row);
    if (validate_ && !KeysEqual(folded, key, row, key)) {
      *error = Status::Internal("ReduceByKey '" + node_.name +
                                "': combiner changed the key (got " +
                                RecordToString(folded) + ")");
      return false;
    }
    acc_[slot] = std::move(folded);
    return true;
  }

  /// Folds one pair of the typed channel (the fold is typed).
  void AddPair(const KeyValue& pair) {
    bool inserted = false;
    const int32_t slot = slots_.FindOrInsert(
        HashInt64Key(pair.first),
        [&](int32_t s) { return pairs_[s].first == pair.first; }, &inserted);
    if (inserted) {
      pairs_.push_back(pair);
      return;
    }
    int64_t& acc = pairs_[slot].second;
    const int64_t v = pair.second;
    switch (node_.reduce_kind) {
      case ReduceKind::kSumDouble:  // arrival order, as combine() folds
        acc = std::bit_cast<int64_t>(std::bit_cast<double>(acc) +
                                     std::bit_cast<double>(v));
        break;
      case ReduceKind::kSumInt64:
        acc = static_cast<int64_t>(static_cast<uint64_t>(acc) +
                                   static_cast<uint64_t>(v));
        break;
      case ReduceKind::kMinInt64:
        if (v < acc) acc = v;  // ties keep the accumulator
        break;
      case ReduceKind::kMaxInt64:
        if (v > acc) acc = v;
        break;
      case ReduceKind::kNone:
        break;  // unreachable
    }
  }

  /// The typed fold's pairs in key order, moved out.
  std::vector<KeyValue> SortedPairs() {
    // Keys are unique, so sorting the pairs sorts them by key.
    std::sort(pairs_.begin(), pairs_.end());
    return std::move(pairs_);
  }

  /// Emits the accumulators in key order (KeyLess; numeric order for an
  /// int64 key).
  bool Emit(const RowSink& out) {
    if (typed_) {
      for (const KeyValue& pair : SortedPairs()) {
        if (!out(PairRecord(node_.reduce_kind, pair))) return false;
      }
      return true;
    }
    std::vector<int32_t> order(acc_.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<int32_t>(i);
    }
    std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
      return KeyLess(acc_[a], acc_[b], node_.left_key);
    });
    for (int32_t s : order) {
      if (!out(std::move(acc_[s]))) return false;
    }
    return true;
  }

 private:
  /// Folds a row of the declared shape; false when the row is not.
  bool AddTyped(const Record& row) {
    const bool sum_double = node_.reduce_kind == ReduceKind::kSumDouble;
    if (row.size() != 2 || !row[0].is_int64() ||
        (sum_double ? !row[1].is_double() : !row[1].is_int64())) {
      return false;
    }
    AddPair({row[0].AsInt64(), sum_double
                                   ? std::bit_cast<int64_t>(row[1].AsDouble())
                                   : row[1].AsInt64()});
    return true;
  }

  /// Leaves the typed fold: slot s's pair becomes accumulator record s, so
  /// the slot map (hashed with HashInt64Key == HashKey) carries over.
  void ToRecords() {
    typed_ = false;
    acc_ = PairRecords(node_.reduce_kind, pairs_);
    pairs_ = {};
  }

  const PlanNode& node_;
  const bool validate_;
  bool typed_;
  FlatSlotMap slots_;
  std::vector<KeyValue> pairs_;
  std::vector<Record> acc_;
};

/// Join probe: the head of each probe row's build-side group, resolved in
/// one striped pass (DESIGN.md §15) when the index runs in key64 mode and
/// the probe keys extract to a flat int64 column, row by row otherwise.
/// Either way first[i] is exactly index.FindFirst of probe i.
std::vector<int32_t> ProbeHeads(const FlatKeyIndex& index,
                                const std::vector<Record>& probes,
                                const KeyColumns& probe_key) {
  std::vector<int32_t> first(probes.size());
  std::vector<int64_t> keys;
  if (index.key64_probe_ready() && ExtractKey64(probes, probe_key, &keys)) {
    std::vector<uint64_t> hashes(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      hashes[i] = HashInt64Key(keys[i]);
    }
    index.FindFirstStripe(keys.data(), hashes.data(), keys.size(),
                          first.data());
    return first;
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    first[i] = index.FindFirst(probes[i], probe_key,
                               HashKey(probes[i], probe_key));
  }
  return first;
}

const std::vector<Record> kEmptyGroup;

/// Reusable "prefix<i>" formatter for per-partition span arg keys: one
/// buffer per operator instead of two temporary strings per partition.
class PartitionKeyBuffer {
 public:
  explicit PartitionKeyBuffer(const char* prefix)
      : buf_(prefix), prefix_len_(buf_.size()) {}

  const std::string& Key(int p) {
    buf_.resize(prefix_len_);
    char digits[16];
    int len = std::snprintf(digits, sizeof(digits), "%d", p);
    buf_.append(digits, static_cast<size_t>(len));
    return buf_;
  }

 private:
  std::string buf_;
  size_t prefix_len_;
};

/// Observes each build-side group's chain length into the probe-chain
/// histogram. Safe from worker threads (histograms merge commutatively).
void ObserveProbeChains(runtime::MetricsSink* metrics,
                        const FlatKeyIndex& index) {
  if (metrics == nullptr) return;
  runtime::Histogram local;
  for (int32_t head : index.heads()) {
    int64_t chain = 0;
    for (int32_t row = head; row >= 0; row = index.Next(row)) ++chain;
    local.Observe(chain);
  }
  metrics->Merge(runtime::metric::kHistProbeChain, local);
}

// ------------------------------------------------ operator bodies -------
//
// Each OpKind's per-partition work, written once. A body reads each input
// row by row — a materialized partition, or what a chained producer's body
// emits on the same partition (DESIGN.md §17) — and emits into a RowSink.
// A body never counts, charges, or traces: Execute's loop does its own
// accounting around it, for Replay's recovery pass too.

struct Stage;

/// What an operator body reads: fresh shuffles, cache entries, chained
/// producers, or (in a recovery) channels read back from the message log.
struct OpInputs {
  /// Input 0: the plain input of a narrow operator, the post-shuffle input
  /// of a keyed one (the join build side, the cogroup left side).
  const PartitionedDataset* a = nullptr;
  /// Input 1: union's second input, the join probe side, the cogroup right
  /// side.
  const PartitionedDataset* b = nullptr;
  /// Chained producers streaming input 0 / 1 instead of `a` / `b`.
  Stage* chain[2] = {nullptr, nullptr};
  /// Reduce: the typed channel standing in for `a` (DESIGN.md §15).
  const PairDataset* pairs = nullptr;
  /// Cross: the collected right side, broadcast to every partition.
  const std::vector<Record>* broadcast = nullptr;
  /// Join: the cached per-partition index over `a`; null = build one.
  const std::vector<FlatKeyIndex>* build_index = nullptr;
  /// Cogroup: cached per-partition groups standing in for side a or b.
  const std::vector<CachedGroups>* a_groups = nullptr;
  const std::vector<CachedGroups>* b_groups = nullptr;
  /// Reduce: enforce the combiner-keeps-the-key contract (post-shuffle).
  bool validate = true;
  /// Join: sink for the probe-chain histogram of freshly built indexes;
  /// null = not observed.
  runtime::MetricsSink* metrics = nullptr;

  const PartitionedDataset* side(int i) const { return i == 0 ? a : b; }
};

/// One node's resolved inputs in Execute, kept from its position in plan
/// order until the section running its body ends (DESIGN.md §17).
struct Stage {
  const PlanNode* node = nullptr;
  OpInputs in;
  /// Chained: the rows its body emitted, per partition.
  std::vector<uint64_t> emitted;
  PartitionedDataset shuffled[2];
  PairDataset pairs;
  std::vector<Record> broadcast;
  /// Cached sides: the entry and its pinned records (see Repin).
  ExecCache::Entry* entry[2] = {nullptr, nullptr};
  std::shared_ptr<const PartitionedDataset> pinned[2];
  std::vector<FlatKeyIndex> own_index;
  std::vector<CachedGroups> own_groups[2];
  bool cached[2] = {false, false};
  bool hit[2] = {false, false};
  /// Cache args for the operator span the body runs in.
  std::vector<std::pair<std::string, int64_t>> span_args;
};

/// Computes partition `p` of `node`'s output into `out`; false when it
/// failed (*error says why) or `out` stopped.
bool RunBody(const PlanNode& node, const OpInputs& in, int p,
             const RowSink& out, Status* error);

/// Rows input `i` delivered to partition `p` (chained: once it ran).
uint64_t RowsOf(const OpInputs& in, int i, int p) {
  if (in.chain[i] != nullptr) return in.chain[i]->emitted[p];
  if (i == 0 && in.pairs != nullptr) return in.pairs->partition(p).size();
  return in.side(i)->partition(p).size();
}

/// Runs chained producer `st` on partition `p` into `sink`, counting rows.
bool RunChained(Stage& st, int p, const RowSink& sink, Status* error) {
  uint64_t rows = 0;
  const RowSink counted = [&](Record&& r) {
    ++rows;
    return sink(std::move(r));
  };
  const bool ok = RunBody(*st.node, st.in, p, counted, error);
  st.emitted[p] += rows;
  return ok;
}

/// Visits partition `p` of input `i` in arrival order; `fn` returns false
/// to stop.
template <typename Fn>
bool EachRow(const OpInputs& in, int i, int p, Status* error, Fn&& fn) {
  if (in.chain[i] != nullptr) {
    return RunChained(
        *in.chain[i], p, [&](Record&& r) { return fn(std::as_const(r)); },
        error);
  }
  for (const Record& r : in.side(i)->partition(p)) {
    if (!fn(r)) return false;
  }
  return true;
}

/// Emits partition `p` of input `i` unchanged (chained rows are moved).
bool ForwardRows(const OpInputs& in, int i, int p, const RowSink& out,
                 Status* error) {
  if (in.chain[i] != nullptr) return RunChained(*in.chain[i], p, out, error);
  return EachRow(in, i, p, error,
                 [&](const Record& r) { return out(Record(r)); });
}

/// Moves the rows a vector-appending UDF produced into `out`.
bool EmitAll(std::vector<Record>* rows, const RowSink& out) {
  for (Record& r : *rows) {
    if (!out(std::move(r))) return false;
  }
  rows->clear();
  return true;
}

bool RunBody(const PlanNode& node, const OpInputs& in, int p,
             const RowSink& out, Status* error) {
  switch (node.kind) {
    case OpKind::kSource:
      return true;  // sources are bound views, never run

    case OpKind::kMap:
      return EachRow(in, 0, p, error, [&](const Record& r) {
        return out(node.map_fn(r));
      });

    case OpKind::kFlatMap: {
      std::vector<Record> rows;
      return EachRow(in, 0, p, error, [&](const Record& r) {
        node.flat_map_fn(r, &rows);
        return EmitAll(&rows, out);
      });
    }

    case OpKind::kFilter:
      return EachRow(in, 0, p, error, [&](const Record& r) {
        return !node.filter_fn(r) || out(Record(r));
      });

    case OpKind::kProject:
      return EachRow(in, 0, p, error, [&](const Record& r) {
        Record projected;
        projected.reserve(node.project_columns.size());
        for (int col : node.project_columns) {
          if (col < 0 || static_cast<size_t>(col) >= r.size()) {
            *error = Status::OutOfRange(
                "Project '" + node.name + "': column " + std::to_string(col) +
                " out of range for record " + RecordToString(r));
            return false;
          }
          projected.push_back(r[col]);
        }
        return out(std::move(projected));
      });

    case OpKind::kUnion:
      return ForwardRows(in, 0, p, out, error) &&
             ForwardRows(in, 1, p, out, error);

    case OpKind::kCross:
      return EachRow(in, 0, p, error, [&](const Record& l) {
        for (const Record& r : *in.broadcast) {
          if (!out(node.join_fn(l, r))) return false;
        }
        return true;
      });

    case OpKind::kReduceByKey: {
      // A post-shuffle input is materialized: its row count sizes the map.
      ReduceFold fold(node, in.validate, in.validate ? RowsOf(in, 0, p) : 0);
      if (in.pairs != nullptr) {
        for (const KeyValue& pair : in.pairs->partition(p)) fold.AddPair(pair);
        return fold.Emit(out);
      }
      return EachRow(in, 0, p, error,
                     [&](const Record& r) { return fold.Add(r, error); }) &&
             fold.Emit(out);
    }

    case OpKind::kGroupReduceByKey: {
      // One flat index instead of a map of materialized groups. Chains
      // preserve arrival order, so each group reaches the UDF in arrival
      // order; sorting the first-arrival rows with KeyLess emits the
      // groups in key order.
      const std::vector<Record>& rows = in.a->partition(p);
      FlatKeyIndex index;
      index.Build(rows, node.left_key);
      std::vector<int32_t> heads = index.heads();
      std::sort(heads.begin(), heads.end(), [&](int32_t a, int32_t b) {
        return KeyLess(rows[a], rows[b], node.left_key);
      });
      std::vector<Record> group;
      for (int32_t head : heads) {
        group.clear();
        for (int32_t r = head; r >= 0; r = index.Next(r)) {
          group.push_back(rows[r]);
        }
        if (!out(node.group_reduce_fn(
                ExtractKey(rows[head], node.left_key), group))) {
          return false;
        }
      }
      return true;
    }

    case OpKind::kJoin: {
      const std::vector<Record>& build = in.a->partition(p);
      const std::vector<Record>& probes = in.b->partition(p);
      FlatKeyIndex fresh;
      const FlatKeyIndex* index = &fresh;
      if (in.build_index != nullptr) {
        index = &(*in.build_index)[p];
      } else {
        fresh.Build(build, node.left_key);
        ObserveProbeChains(in.metrics, fresh);
      }
      // Probe order, each group's chain in arrival order.
      const std::vector<int32_t> first =
          ProbeHeads(*index, probes, node.right_key);
      for (size_t i = 0; i < probes.size(); ++i) {
        for (int32_t row = first[i]; row >= 0; row = index->Next(row)) {
          if (!out(node.join_fn(build[row], probes[i]))) return false;
        }
      }
      return true;
    }

    case OpKind::kCoGroup: {
      // Cogroup's UDF sweeps fully materialized groups on both sides at
      // once, so it groups into maps (DESIGN.md §12 fallback rule). The
      // union of both key sets is swept in RecordLess order.
      GroupMap lfresh, rfresh;
      if (in.a_groups == nullptr) {
        lfresh = GroupByKey(in.a->partition(p), node.left_key);
      }
      if (in.b_groups == nullptr) {
        rfresh = GroupByKey(in.b->partition(p), node.right_key);
      }
      const GroupMap& lgroups =
          in.a_groups != nullptr ? (*in.a_groups)[p] : lfresh;
      const GroupMap& rgroups =
          in.b_groups != nullptr ? (*in.b_groups)[p] : rfresh;
      std::vector<const Record*> keys;
      keys.reserve(lgroups.size() + rgroups.size());
      for (const auto& [k, g] : lgroups) keys.push_back(&k);
      for (const auto& [k, g] : rgroups) {
        if (lgroups.find(k) == lgroups.end()) keys.push_back(&k);
      }
      std::sort(keys.begin(), keys.end(),
                [](const Record* a, const Record* b) {
                  return RecordLess(*a, *b);
                });
      std::vector<Record> rows;
      for (const Record* key : keys) {
        auto lit = lgroups.find(*key);
        auto rit = rgroups.find(*key);
        node.cogroup_fn(*key, lit != lgroups.end() ? lit->second : kEmptyGroup,
                        rit != rgroups.end() ? rit->second : kEmptyGroup,
                        &rows);
        if (!EmitAll(&rows, out)) return false;
      }
      return true;
    }

    case OpKind::kDistinct: {
      // Flat slot map keyed on the whole record; the kept records double as
      // the dedup table (first occurrence wins).
      const std::vector<Record>& rows = in.a->partition(p);
      std::vector<Record> kept;
      FlatSlotMap slots(rows.size());
      for (const Record& r : rows) {
        bool inserted = false;
        slots.FindOrInsert(
            HashRecord(r), [&](int32_t s) { return kept[s] == r; },
            &inserted);
        if (inserted) kept.push_back(r);
      }
      return EmitAll(&kept, out);
    }
  }
  return true;
}

/// Appends the chained producers streaming into `in`, transitively.
void ChainMembers(const OpInputs& in, std::vector<NodeId>* members) {
  for (const Stage* producer : in.chain) {
    if (producer == nullptr) continue;
    members->push_back(producer->node->id);
    ChainMembers(producer->in, members);
  }
}

/// A spill since a cache lookup may have dropped the index or groups a
/// stage points at. Its pinned records are still alive: rebuild them.
void Repin(const PlanNode& node, Stage* st) {
  for (int i = 0; i < 2; ++i) {
    if (st->entry[i] == nullptr || st->entry[i]->data == st->pinned[i]) {
      continue;
    }
    const PartitionedDataset& data = *st->pinned[i];
    const KeyColumns& key = i == 0 ? node.left_key : node.right_key;
    st->own_groups[i].clear();
    if (i == 0) st->own_index.clear();
    for (int p = 0; p < data.num_partitions(); ++p) {
      if (node.kind == OpKind::kCoGroup) {
        st->own_groups[i].push_back(GroupByKey(data.partition(p), key));
      } else if (i == 0) {
        st->own_index.emplace_back().Build(data.partition(p), key);
      }
    }
    if (node.kind == OpKind::kCoGroup) {
      (i == 0 ? st->in.a_groups : st->in.b_groups) = &st->own_groups[i];
    } else if (i == 0) {
      st->in.build_index = &st->own_index;
    }
  }
}

bool Streams(const Stage& st) {
  return st.in.chain[0] != nullptr || st.in.chain[1] != nullptr;
}

/// Rows per partition of a PartitionedDataset or a PairDataset.
template <typename Dataset>
std::vector<uint64_t> Sizes(const Dataset& ds) {
  std::vector<uint64_t> sizes(ds.num_partitions());
  for (int p = 0; p < ds.num_partitions(); ++p) {
    sizes[p] = ds.partition(p).size();
  }
  return sizes;
}

uint64_t Sum(const std::vector<uint64_t>& v) {
  uint64_t total = 0;
  for (uint64_t x : v) total += x;
  return total;
}

std::vector<int> AllPartitions(int n) {
  std::vector<int> all(n);
  for (int p = 0; p < n; ++p) all[p] = p;
  return all;
}

/// Per node of `plan`, whether a shuffle of its output is a message-log
/// channel (DESIGN.md §14): the node is loop-variant against `log`'s own
/// volatile set, so logging works with or without a cache, and the logged
/// channel set is identical either way (a static build side served from
/// the cache is invariant, hence never logged). All false without a log.
std::vector<bool> LogVariant(const Plan* plan, const runtime::MessageLog* log) {
  if (plan == nullptr) return {};
  std::vector<bool> variant(plan->num_nodes(), false);
  if (log == nullptr) return variant;
  const std::vector<bool> invariant =
      plan->InvariantNodes(log->volatile_bindings());
  for (size_t i = 0; i < variant.size(); ++i) variant[i] = !invariant[i];
  return variant;
}

/// Observes every partition's row count into the batch-size histogram
/// (called at the reduce and join sites only).
void ObserveBatchRows(runtime::MetricsSink* metrics,
                      const std::vector<uint64_t>& rows) {
  if (metrics == nullptr) return;
  for (uint64_t r : rows) {
    metrics->Observe(runtime::metric::kHistBatchRows, static_cast<int64_t>(r));
  }
}

}  // namespace

void ExecStats::MergeFrom(const ExecStats& other) {
  records_processed += other.records_processed;
  messages_shuffled += other.messages_shuffled;
  cache_hits += other.cache_hits;
  records_not_reshuffled += other.records_not_reshuffled;
  messages_replayed += other.messages_replayed;
  for (const auto& [name, count] : other.node_output_counts) {
    node_output_counts[name] += count;
  }
}

// ------------------------------------------------------------ the pass --

/// Execute's pass runs every node on every partition, records into the
/// options' tracer, metrics and cache, appends its loop-variant shuffled
/// channels to the message log, and charges compute and network. Replay's
/// recovery pass (DESIGN.md §14) runs the demanded nodes on their demanded
/// partitions, reads each loop-variant shuffled input back from the log
/// instead of shuffling it, records only its msglog.messages_replayed
/// counts, and charges kRecovery only: the critical path over the demanded
/// partitions plus network for the records that land in lost partitions.
/// Survivors are charged nothing; they idle until the replay completes.
struct Executor::Pass {
  /// Execute's pass over `plan`, or a bare shuffle's without one.
  Pass(const ExecOptions& exec_options, const Plan* plan)
      : options(exec_options),
        parts(plan == nullptr ? 0 : plan->num_nodes(),
              AllPartitions(exec_options.num_partitions)),
        appended(LogVariant(plan, exec_options.message_log)),
        read_back(parts.size(), false) {}

  const ExecOptions& options;
  runtime::Tracer* tracer = options.tracer;
  runtime::MetricsSink* metrics = options.metrics;
  ExecCache* cache = options.cache;
  runtime::MessageLog* log = options.message_log;
  /// Per node, the partitions it runs on; a node with none does not run.
  std::vector<std::vector<int>> parts;
  /// Per node, whether its shuffled channels are appended to `log`, or
  /// read back from it instead of shuffled.
  std::vector<bool> appended;
  std::vector<bool> read_back;
  /// Recovery: the lost partitions; empty in Execute's pass.
  std::vector<bool> lost;

  /// Operator work, charged as its slowest partition: the simulated cluster
  /// runs the partitions on parallel workers. A pure function of the data,
  /// independent of num_threads.
  void ChargeCompute(const std::vector<uint64_t>& per_partition) const {
    uint64_t critical = 0;
    for (uint64_t records : per_partition) critical = std::max(critical, records);
    Add(runtime::Charge::kCompute, &runtime::CostModel::cpu_per_record_ns,
        critical);
  }

  /// A shuffle of `in_sizes` records per source into `out_sizes` per
  /// target, `moved` of them crossing partitions. Execute charges the
  /// scatter's critical path and the moved records and counts them as
  /// messages; a recovery re-ships to the fresh workers only the records
  /// that land in lost partitions.
  void ChargeShuffle(const std::vector<uint64_t>& in_sizes, uint64_t moved,
                     const std::vector<uint64_t>& out_sizes,
                     ExecStats* stats) const {
    if (!lost.empty()) return ChargeNetwork(Landed(out_sizes));
    ChargeCompute(in_sizes);
    ChargeNetwork(moved);
    if (stats != nullptr) stats->messages_shuffled += moved;
  }

  /// A broadcast of `records` rows: Execute sends each to every partition
  /// but its own (counted as messages), a recovery to the lost ones only.
  void ChargeBroadcast(uint64_t records, ExecStats* stats) const {
    if (!lost.empty()) {
      return ChargeNetwork(records * static_cast<uint64_t>(std::count(
                                         lost.begin(), lost.end(), true)));
    }
    const uint64_t messages =
        records * static_cast<uint64_t>(options.num_partitions - 1);
    stats->messages_shuffled += messages;
    ChargeNetwork(messages);
  }

  /// Input `route` of `node` read back from `log`: the partitions `node`
  /// runs on, copied while resident (fetching a later channel may spill
  /// this one) and counted as replayed messages, per partition into the
  /// options' metrics. The records landing in lost partitions are shipped
  /// to the fresh workers.
  Result<PartitionedDataset> ReadBack(const PlanNode& node,
                                      const InputRoute& route,
                                      ExecStats* stats) const {
    const std::string name = MsglogChannel(node.id, route.port);
    FLINKLESS_ASSIGN_OR_RETURN(const PartitionedDataset* channel,
                               log->Channel(name, options.tracer));
    if (channel->num_partitions() != options.num_partitions) {
      return Status::DataLoss("logged channel '" + name +
                              "' has the wrong partition count");
    }
    PartitionedDataset out(options.num_partitions);
    for (int p : parts[node.id]) {
      const uint64_t records = channel->partition(p).size();
      stats->messages_replayed += records;
      if (options.metrics != nullptr && records > 0) {
        options.metrics->Count(runtime::metric::kMsglogMessagesReplayed, p,
                               records);
      }
      out.partition(p) = channel->partition(p);
    }
    ChargeNetwork(Landed(Sizes(out)));
    return out;
  }

 private:
  void Add(runtime::Charge kind, int64_t runtime::CostModel::*ns_per_record,
           uint64_t records) const {
    if (options.clock == nullptr || options.costs == nullptr) return;
    options.clock->Add(lost.empty() ? kind : runtime::Charge::kRecovery,
                       options.costs->*ns_per_record *
                           static_cast<int64_t>(records));
  }

  void ChargeNetwork(uint64_t records) const {
    Add(runtime::Charge::kNetwork, &runtime::CostModel::network_per_record_ns,
        records);
  }

  /// Records of `sizes` (per partition) in lost partitions.
  uint64_t Landed(const std::vector<uint64_t>& sizes) const {
    uint64_t records = 0;
    for (size_t p = 0; p < sizes.size(); ++p) {
      if (lost[p]) records += sizes[p];
    }
    return records;
  }
};

Executor::Executor(ExecOptions options) : options_(options) {
  FLINKLESS_CHECK(options_.num_partitions > 0,
                  "executor needs at least one partition");
  per_partition_args_ = options_.num_partitions <= 8;
  int threads = runtime::ThreadPool::ResolveThreadCount(options_.num_threads);
  if (threads > 1) {
    pool_ = std::make_unique<runtime::ThreadPool>(threads);
  }
}

void Executor::ForEachPartition(
    const Pass& pass, const runtime::TraceSpan& parent, int count,
    const std::function<void(int)>& fn,
    const std::function<int64_t(int)>& records_of, int offset) const {
  // Pool work is counted here, not inside the ThreadPool: a serial executor
  // (num_threads == 1) has no pool at all, and the exported totals must be
  // identical at any thread count.
  if (pass.metrics != nullptr && count > 0) {
    pass.metrics->Count(runtime::metric::kPoolParallelSections, -1);
    pass.metrics->Count(runtime::metric::kPoolTasks, -1,
                        static_cast<uint64_t>(count));
  }
  runtime::TracedParallelFor(pool_.get(), parent, count, fn, records_of,
                             offset);
}

template <typename Data>
Result<std::decay_t<Data>> Executor::ShuffleImpl(const Pass& pass,
                                                 Data&& input,
                                                 const KeyColumns& key,
                                                 ExecStats* stats,
                                                 const PlanNode* node,
                                                 bool* in_place) const {
  using Dataset = std::decay_t<Data>;
  using Row = typename std::decay_t<decltype(input.partition(0))>::value_type;
  constexpr bool kMove = !std::is_lvalue_reference_v<Data>;
  const int n = options_.num_partitions;
  const int sources = input.num_partitions();

  // Source sizes, captured up front: compute is charged on them, scatter
  // spans report them, and the move path releases source partitions as
  // soon as they are drained.
  const std::vector<uint64_t> in_sizes = Sizes(input);
  auto records_of = [&](int base) -> std::function<int64_t(int)> {
    return [&, base](int i) {
      return static_cast<int64_t>(in_sizes[base + i]);
    };
  };

  // Target pass: every source resolves each row's target partition in one
  // parallel section, counting per target and what leaves. A typed pair's
  // key is its int64; a record's single int64 key resolves off the flat
  // key column. PartitionOf is HashKey % n and HashInt64Key is HashKey for
  // that shape, so the targets are identical either way.
  std::vector<std::vector<int32_t>> target(sources);
  std::vector<std::vector<size_t>> counts(sources);
  std::vector<uint64_t> moved(sources, 0);
  std::vector<Status> key_errors(node != nullptr ? sources : 0);
  runtime::TraceSpan targets_span(pass.tracer,
                                  runtime::SpanKind::kShuffleScatter,
                                  "targets");
  ForEachPartition(
      pass, targets_span, sources,
      [&](int p) {
        const std::vector<Row>& src = input.partition(p);
        std::vector<int32_t>& to = target[p];
        counts[p].assign(n, 0);
        to.resize(src.size());
        auto place = [&](size_t r, uint64_t hash) {
          const int t = static_cast<int>(hash % static_cast<uint64_t>(n));
          to[r] = t;
          ++counts[p][t];
          if (t != p) ++moved[p];
        };
        if constexpr (std::is_same_v<Row, KeyValue>) {
          for (size_t r = 0; r < src.size(); ++r) {
            place(r, HashInt64Key(src[r].first));
          }
          return;
        } else {
          std::vector<int64_t> key64;
          if (ExtractKey64(src, key, &key64)) {
            for (size_t r = 0; r < src.size(); ++r) {
              place(r, HashInt64Key(key64[r]));
            }
            return;
          }
          for (size_t r = 0; r < src.size(); ++r) {
            const int missing =
                node != nullptr ? MissingKeyColumn(src[r], key) : -1;
            if (missing >= 0) {
              key_errors[p] = KeyColumnError(*node, missing, src[r]);
              return;
            }
            place(r, HashKey(src[r], key));
          }
        }
      },
      records_of(0));

  uint64_t total_moved = 0;
  for (uint64_t m : moved) total_moved += m;
  if (targets_span.active()) {
    targets_span.AddArg("messages", static_cast<int64_t>(total_moved));
    if (per_partition_args_) {
      PartitionKeyBuffer moved_key("moved_p");
      for (int p = 0; p < sources; ++p) {
        targets_span.AddArg(moved_key.Key(p), static_cast<int64_t>(moved[p]));
      }
    }
  }
  targets_span.Close();
  for (const Status& error : key_errors) FLINKLESS_RETURN_NOT_OK(error);

  if (pass.metrics != nullptr) {
    // Per-source-partition shuffle fan-out: how many of partition p's
    // records left it for another partition. The counter makes skewed
    // senders visible; the histogram gives the distribution across all
    // shuffles of the run.
    for (int p = 0; p < sources; ++p) {
      pass.metrics->Count(runtime::metric::kShuffleFanout, p, moved[p]);
      pass.metrics->Observe(runtime::metric::kHistShuffleFanout,
                            static_cast<int64_t>(moved[p]));
    }
  }

  Dataset out(n);
  if (sources == n && total_moved == 0 && (kMove || in_place != nullptr)) {
    // Nothing leaves its partition (DESIGN.md §12): a moved input is the
    // output, and a caller that can read the input where it is does so.
    if constexpr (kMove) {
      out = std::move(input);
    } else {
      *in_place = true;
    }
    pass.ChargeShuffle(in_sizes, 0, in_sizes, stats);
    return out;
  }

  // Blocked scatter/gather pipeline: sources are scattered in blocks and
  // each block's outboxes are drained into the output (in source order)
  // before the next block scatters, so peak outbox memory is one block
  // (~half the input) instead of the whole input. Within a target
  // partition rows still arrive in global source-partition order, so the
  // result stays byte-identical to the all-at-once two-phase shuffle — and
  // to a serial single-pass one. Each block's scatter and gather are
  // sibling spans.
  const int block = sources <= 1 ? 1 : (sources + 1) / 2;
  for (int base = 0; base < sources; base += block) {
    const int count = std::min(block, sources - base);
    std::vector<std::vector<std::vector<Row>>> outbox(count);
    runtime::TraceSpan scatter_span(pass.tracer,
                                    runtime::SpanKind::kShuffleScatter,
                                    "scatter");
    ForEachPartition(
        pass, scatter_span, count,
        [&](int i) {
          // Every outbox is sized exactly by the target pass, then filled
          // in source order — no per-row push_back growth.
          const int p = base + i;
          auto& src = input.partition(p);
          const std::vector<int32_t>& to = target[p];
          auto& boxes = outbox[i];
          boxes.resize(n);
          for (int t = 0; t < n; ++t) boxes[t].reserve(counts[p][t]);
          if constexpr (kMove) {
            for (size_t r = 0; r < src.size(); ++r) {
              boxes[to[r]].push_back(std::move(src[r]));
            }
            input.ReleasePartition(p);
          } else {
            for (size_t r = 0; r < src.size(); ++r) {
              boxes[to[r]].push_back(src[r]);
            }
          }
          std::vector<int32_t>().swap(target[p]);
        },
        records_of(base), /*offset=*/base);
    scatter_span.Close();

    uint64_t block_records = 0;
    for (int i = 0; i < count; ++i) block_records += in_sizes[base + i];
    // Drain this block's outboxes, freeing them before the next block
    // scatters (the outbox vector's scope ends with the loop body).
    runtime::TraceSpan gather_span(pass.tracer,
                                   runtime::SpanKind::kShuffleGather,
                                   "gather");
    ForEachPartition(pass, gather_span, n, [&](int t) {
      std::vector<Row>& dst = out.partition(t);
      size_t add = 0;
      for (int i = 0; i < count; ++i) add += outbox[i][t].size();
      dst.reserve(dst.size() + add);
      for (int i = 0; i < count; ++i) {
        for (Row& r : outbox[i][t]) dst.push_back(std::move(r));
      }
    });
    if (gather_span.active()) {
      // The block's rows, all buffered in outboxes at once: the largest
      // block's count is the shuffle's outbox peak, a pure function of the
      // input sizes and the (deterministic) block schedule.
      gather_span.AddArg("records", static_cast<int64_t>(block_records));
      gather_span.AddArg("outbox_peak_records",
                         static_cast<int64_t>(block_records));
    }
  }

  pass.ChargeShuffle(in_sizes, total_moved, Sizes(out), stats);
  return out;
}

PartitionedDataset Executor::Shuffle(const PartitionedDataset& input,
                                     const KeyColumns& key,
                                     ExecStats* stats) const {
  return ShuffleImpl(Pass(options_, nullptr), input, key, stats).ValueOrDie();
}

PartitionedDataset Executor::Shuffle(PartitionedDataset&& input,
                                     const KeyColumns& key,
                                     ExecStats* stats) const {
  return ShuffleImpl(Pass(options_, nullptr), std::move(input), key, stats)
      .ValueOrDie();
}

Result<std::map<std::string, PartitionedDataset>> Executor::Execute(
    const Plan& plan, const Bindings& bindings, ExecStats* stats) const {
  FLINKLESS_RETURN_NOT_OK(plan.Validate());
  return Run(plan, bindings, Pass(options_, &plan), stats);
}

Result<std::map<std::string, PartitionedDataset>> Executor::Run(
    const Plan& plan, const Bindings& bindings, const Pass& pass,
    ExecStats* stats) const {
  const int n = options_.num_partitions;
  const int num_nodes = static_cast<int>(plan.num_nodes());

  // Loop-invariant analysis: with a cache attached, a node whose value
  // cannot change between supersteps is served from / stored into it.
  ExecCache* cache = pass.cache;
  std::vector<bool> invariant;
  if (cache != nullptr) {
    cache->EnsurePartitionCount(n);
    invariant = plan.InvariantNodes(cache->volatile_bindings());
  }

  // Operator chaining (DESIGN.md §17). runs_at[id] is the node whose
  // position runs id's body: id unless chained, a pre-combining reduce for
  // its input, else the consumer's runs_at.
  const std::vector<NodeId> chained_into = plan.ChainedInto(invariant);
  std::vector<NodeId> runs_at(num_nodes);
  for (int id = num_nodes - 1; id >= 0; --id) {
    const NodeId c = chained_into[id];
    runs_at[id] = c < 0                                      ? id
                  : plan.node(c).kind == OpKind::kReduceByKey ? c
                                                              : runs_at[c];
  }

  ExecStats local_stats;

  // Node results are views over a borrowed source binding, a cache entry,
  // or an executor-owned dataset — sources and cache hits cost no copies
  // (a chained node has none). Reserved up front: views point into their
  // own slots.
  struct Slot {
    PartitionedDataset owned;
    std::shared_ptr<const PartitionedDataset> keepalive;
    const PartitionedDataset* view = nullptr;
    bool is_owned = false;
  };
  std::vector<Slot> slots;
  slots.reserve(num_nodes);
  auto push_owned = [&](PartitionedDataset ds) {
    Slot& s = slots.emplace_back();
    s.owned = std::move(ds);
    s.view = &s.owned;
    s.is_owned = true;
  };
  auto push_view = [&](const PartitionedDataset* ds) {
    slots.emplace_back().view = ds;
  };
  auto push_cached = [&](std::shared_ptr<const PartitionedDataset> ds) {
    Slot& s = slots.emplace_back();
    s.keepalive = std::move(ds);
    s.view = s.keepalive.get();
  };
  auto input_of = [&](int idx) -> const PartitionedDataset& {
    return *slots[idx].view;
  };

  // An executor-owned result is released once the last section reading it
  // has run, not at the end of Execute: peak memory drops. Plan outputs
  // stay. A local route reads at its consumer's runs_at, and so may a
  // shuffled one, whose consumer reads the input in place when no row
  // moves; a pre-combine or broadcast input is read at the node's own
  // position.
  std::vector<NodeId> release_at(num_nodes, -1);
  for (const PlanNode& node : plan.nodes()) {
    const std::vector<InputRoute> routes = InputRoutes(node);
    for (size_t i = 0; i < routes.size(); ++i) {
      const bool at_own = routes[i].kind == InputRoute::kBroadcast ||
                          routes[i].pre_combine;
      NodeId& at = release_at[node.inputs[i]];
      at = std::max(at, at_own ? node.id : runs_at[node.id]);
    }
  }
  for (const auto& [name, node] : plan.outputs()) release_at[node] = -1;
  auto release_dead = [&](NodeId at) {
    for (NodeId idx = 0; idx < at; ++idx) {
      Slot& s = slots[idx];
      if (!s.is_owned || release_at[idx] != at) continue;
      runtime::ParallelFor(pool_.get(), s.owned.num_partitions(), [&](int p) {
        std::vector<Record>().swap(s.owned.partition(p));
      });
      s.owned = PartitionedDataset();
      s.view = nullptr;
      s.is_owned = false;
    }
  };

  std::vector<Stage> stages(num_nodes);

  // Counts and charges a body from the rows its `inputs` inputs delivered
  // to the partitions it ran on. A node whose inputs are all materialized
  // is charged at its own position, so every span sees the SimClock it saw
  // unchained.
  auto charge = [&](const Stage& st, size_t inputs,
                    const std::vector<int>& parts) {
    std::vector<uint64_t> work(n, 0);
    for (size_t i = 0; i < inputs; ++i) {
      if (st.hit[i]) continue;
      if (i == 1 && st.in.broadcast != nullptr) {
        local_stats.records_processed += st.broadcast.size();
        continue;
      }
      for (int p : parts) {
        const uint64_t rows = RowsOf(st.in, static_cast<int>(i), p);
        work[p] += rows;
        local_stats.records_processed += rows;
      }
    }
    // Partition p pays for its own records against the whole broadcast
    // side.
    if (st.in.broadcast != nullptr) {
      for (uint64_t& w : work) w *= st.broadcast.size();
    }
    pass.ChargeCompute(work);
    for (int p : parts) {
      if (pass.metrics == nullptr) break;
      pass.metrics->Count(runtime::metric::kExecRecords, p,
                          RowsOf(st.in, st.cached[0] ? 1 : 0, p));
    }
  };

  // Runs `body` on each partition of `parts` in one parallel section, the
  // chained producers of `in` streaming in; the child spans carry input
  // `traced`'s rows. Failures are checked in partition order, so the error
  // is the one serial execution hits first. The producers are counted
  // (charged, if streamed into) and appended to `members`.
  auto run_section = [&](const OpInputs& in, const std::vector<int>& parts,
                         const runtime::TraceSpan& span, int traced,
                         std::vector<NodeId>* members,
                         const std::function<void(int, Status*)>& body)
      -> Status {
    const size_t first = members->size();
    ChainMembers(in, members);
    for (size_t m = first; m < members->size(); ++m) {
      Repin(plan.node((*members)[m]), &stages[(*members)[m]]);
    }
    std::vector<Status> status(parts.size());
    std::function<int64_t(int)> records_of;
    if (span.active()) {
      records_of = [&](int i) {
        return static_cast<int64_t>(RowsOf(in, traced, parts[i]));
      };
    }
    ForEachPartition(
        pass, span, static_cast<int>(parts.size()),
        [&](int i) { body(parts[i], &status[i]); }, records_of);
    for (const Status& s : status) FLINKLESS_RETURN_NOT_OK(s);
    for (size_t m = first; m < members->size(); ++m) {
      const Stage& member = stages[(*members)[m]];
      if (Streams(member)) {
        charge(member, member.node->inputs.size(),
               pass.parts[member.node->id]);
      }
      local_stats.node_output_counts[member.node->name] += Sum(member.emitted);
    }
    return Status::OK();
  };

  // A materializing sink into partition `p` of `out`.
  auto append_to = [](PartitionedDataset& out, int p) {
    return [&rows = out.partition(p)](Record&& r) {
      rows.push_back(std::move(r));
      return true;
    };
  };

  // The pre-combine of reduce `node`'s input under `in` on `parts`, shuffled
  // into `st`: the typed channel (st->pairs) when every partition's fold
  // stayed typed, else the records of every fold (st->shuffled[0]), the
  // typed ones emitted as records, exactly what Emit would have built.
  auto combine_and_shuffle = [&](const PlanNode& node, const OpInputs& in,
                                 const std::vector<int>& parts,
                                 const runtime::TraceSpan& span, Stage* st,
                                 std::vector<NodeId>* members) -> Status {
    PairDataset pairs(n);
    PartitionedDataset records(n);
    std::vector<uint8_t> typed(n, 0);
    FLINKLESS_RETURN_NOT_OK(run_section(
        in, parts, span, 0, members, [&](int p, Status* error) {
          ReduceFold fold(node, /*validate=*/false);
          if (!EachRow(in, 0, p, error,
                       [&](const Record& r) { return fold.Add(r, error); })) {
            return;
          }
          typed[p] = fold.typed();
          if (typed[p]) {
            pairs.partition(p) = fold.SortedPairs();
          } else {
            fold.Emit(append_to(records, p));
          }
        }));
    const bool all_typed = std::all_of(parts.begin(), parts.end(),
                                       [&](int p) { return typed[p] != 0; });
    const KeyColumns& key = node.left_key;
    if (all_typed) {
      FLINKLESS_ASSIGN_OR_RETURN(
          st->pairs,
          ShuffleImpl(pass, std::move(pairs), key, &local_stats, &node));
      st->in.pairs = &st->pairs;
      return Status::OK();
    }
    for (int p : parts) {
      if (typed[p] != 0) {
        records.partition(p) =
            PairRecords(node.reduce_kind, pairs.partition(p));
      }
    }
    FLINKLESS_ASSIGN_OR_RETURN(
        st->shuffled[0],
        ShuffleImpl(pass, std::move(records), key, &local_stats, &node));
    return Status::OK();
  };

  // Input `i` of loop-variant `node` when it is a loop-invariant shuffled
  // side: shuffled on `route`'s key on first use and served from the cache
  // after that, port l as role kBuild and port r as kProbe. A hit is
  // counted with the records whose shuffle it saved.
  auto cached_side = [&](const PlanNode& node, const InputRoute& route,
                         size_t i) -> Result<ExecCache::Entry*> {
    Stage& st = stages[node.id];
    const ExecCache::Role role =
        i == 0 ? ExecCache::Role::kBuild : ExecCache::Role::kProbe;
    bool reloaded = false;
    FLINKLESS_ASSIGN_OR_RETURN(
        ExecCache::Entry* e,
        cache->FindResident(node.id, role, pass.tracer, &reloaded));
    st.hit[i] = e != nullptr;
    if (st.hit[i]) {
      ++local_stats.cache_hits;
      local_stats.records_not_reshuffled += e->data->NumRecords();
      st.span_args.emplace_back("cache_hit", 1);
      st.span_args.emplace_back("reloaded", reloaded ? 1 : 0);
      return e;
    }
    const KeyColumns& key = *route.key;
    FLINKLESS_ASSIGN_OR_RETURN(
        PartitionedDataset shuffled,
        ShuffleImpl(pass, input_of(node.inputs[i]), key, &local_stats,
                    &node));
    ExecCache::Entry& entry = cache->Emplace(node.id, role);
    entry.data = std::make_shared<PartitionedDataset>(std::move(shuffled));
    entry.index_key = key;
    if (node.kind == OpKind::kJoin && role == ExecCache::Role::kBuild) {
      // Later supersteps probe the prebuilt per-partition flat index,
      // whose rows are the cached records themselves.
      entry.flat_index.resize(n);
      ForEachPartition(pass, runtime::TraceSpan(), n, [&](int p) {
        entry.flat_index[p].Build(entry.data->partition(p), key);
      });
      ObserveBatchRows(pass.metrics, Sizes(*entry.data));
      for (const FlatKeyIndex& index : entry.flat_index) {
        ObserveProbeChains(pass.metrics, index);
      }
    } else if (node.kind == OpKind::kCoGroup) {
      // Cogroup has no flat index: its UDF sweeps fully materialized groups
      // on both sides at once (DESIGN.md §12), so the side keeps its groups.
      entry.groups.resize(n);
      ForEachPartition(pass, runtime::TraceSpan(), n, [&](int p) {
        entry.groups[p] = GroupByKey(entry.data->partition(p), key);
      });
    }
    FLINKLESS_RETURN_NOT_OK(
        cache->OnEntryFilled(node.id, role, pass.tracer));
    st.span_args.emplace_back("cache_build", 1);
    return &entry;
  };

  for (const PlanNode& node : plan.nodes()) {
    const std::vector<int>& parts = pass.parts[node.id];
    if (parts.empty()) {
      // Not demanded by a recovery: not run, not bound.
      slots.emplace_back();
      release_dead(node.id);
      continue;
    }
    const std::vector<InputRoute> routes = InputRoutes(node);
    const bool chained = chained_into[node.id] >= 0;
    const bool pre_combine = !routes.empty() && routes[0].pre_combine;
    Stage& st = stages[node.id];
    // Chained producers whose bodies ran in this position's sections.
    std::vector<NodeId> members;
    // One span per position that runs a section: a chained node's body
    // runs in its root's span, but its pre-combine fold is its own.
    runtime::TraceSpan op_span(!chained || pre_combine ? pass.tracer : nullptr,
                               runtime::SpanKind::kOperator, node.name);

    // Fully loop-invariant node: its output is the same every superstep,
    // so the first execution materializes it into the cache and every
    // later one serves the cached dataset without running (or charging)
    // anything. Sources are exempt — they are already zero-copy views.
    bool from_cache = false;
    bool store_output = false;
    if (cache != nullptr && node.kind != OpKind::kSource &&
        invariant[node.id]) {
      bool reloaded = false;
      FLINKLESS_ASSIGN_OR_RETURN(
          ExecCache::Entry* e,
          cache->FindResident(node.id, ExecCache::Role::kOutput,
                              pass.tracer, &reloaded));
      if (e != nullptr) {
        ++local_stats.cache_hits;
        for (size_t i = 0; i < routes.size(); ++i) {
          if (routes[i].kind == InputRoute::kShuffled) {
            local_stats.records_not_reshuffled +=
                slots[node.inputs[i]].view->NumRecords();
          }
        }
        push_cached(e->data);
        if (op_span.active()) {
          op_span.AddArg("cache_hit", 1);
          op_span.AddArg("reloaded", reloaded ? 1 : 0);
        }
        from_cache = true;
      } else {
        store_output = true;
      }
    }

    if (node.kind == OpKind::kSource) {
      auto it = bindings.find(node.source_name);
      if (it == bindings.end() || it->second == nullptr) {
        return Status::NotFound("no binding for source '" + node.source_name +
                                "'");
      }
      if (it->second->num_partitions() != n) {
        return Status::InvalidArgument(
            "binding '" + node.source_name + "' has " +
            std::to_string(it->second->num_partitions()) +
            " partitions, executor expects " + std::to_string(n));
      }
      push_view(it->second);
    } else if (!from_cache) {
      // Every input moves along its route (DESIGN.md §12); a chained local
      // input streams in when the body runs. The cached loop-invariant
      // sides are looked up first, then the volatile sides are shuffled (or,
      // in a recovery, read back from the log) in port order and logged in
      // port order.
      const PartitionedDataset* side[2] = {nullptr, nullptr};
      // Which sides went through a shuffle (or were read back from the log).
      bool shuffled[2] = {false, false};
      st.in.metrics = pass.metrics;
      for (size_t i = 0; i < routes.size(); ++i) {
        if (routes[i].kind == InputRoute::kLocal &&
            chained_into[node.inputs[i]] == node.id) {
          st.in.chain[i] = &stages[node.inputs[i]];
        }
        if (routes[i].kind != InputRoute::kShuffled || cache == nullptr ||
            invariant[node.id] || !invariant[node.inputs[i]]) {
          continue;
        }
        FLINKLESS_ASSIGN_OR_RETURN(ExecCache::Entry* e,
                                   cached_side(node, routes[i], i));
        st.cached[i] = true;
        st.entry[i] = e;
        st.pinned[i] = e->data;
        side[i] = e->data.get();
        if (!e->flat_index.empty()) st.in.build_index = &e->flat_index;
        if (!e->groups.empty()) {
          (i == 0 ? st.in.a_groups : st.in.b_groups) = &e->groups;
        }
      }
      for (size_t i = 0; i < routes.size(); ++i) {
        if (st.cached[i] || st.in.chain[i] != nullptr) continue;
        const NodeId input = node.inputs[i];
        if (routes[i].kind == InputRoute::kShuffled && pass.read_back[input]) {
          FLINKLESS_ASSIGN_OR_RETURN(
              st.shuffled[i], pass.ReadBack(node, routes[i], &local_stats));
          side[i] = &st.shuffled[i];
          shuffled[i] = true;
          continue;
        }
        if (routes[i].pre_combine) {
          // Local pre-aggregation before the shuffle: fewer messages.
          Stage pre;
          pre.in.validate = false;
          if (chained_into[input] == node.id) {
            pre.in.chain[0] = &stages[input];
          } else {
            pre.in.a = &input_of(input);
          }
          FLINKLESS_RETURN_NOT_OK(combine_and_shuffle(
              node, pre.in, pass.parts[input], op_span, &st, &members));
          std::vector<uint64_t> rows(n);
          for (int p = 0; p < n; ++p) rows[p] = RowsOf(pre.in, 0, p);
          ObserveBatchRows(pass.metrics, rows);
          charge(pre, 1, pass.parts[input]);
          if (st.in.pairs == nullptr) side[i] = &st.shuffled[i];
          shuffled[i] = true;
          continue;
        }
        const PartitionedDataset& in = input_of(input);
        side[i] = &in;
        if (routes[i].kind == InputRoute::kBroadcast) {
          st.broadcast = in.Collect();
          pass.ChargeBroadcast(st.broadcast.size(), &local_stats);
          st.in.broadcast = &st.broadcast;
        } else if (routes[i].kind == InputRoute::kShuffled) {
          bool in_place = false;
          FLINKLESS_ASSIGN_OR_RETURN(
              st.shuffled[i], ShuffleImpl(pass, in, *routes[i].key,
                                          &local_stats, &node, &in_place));
          if (!in_place) side[i] = &st.shuffled[i];
          shuffled[i] = true;
        }
      }
      // Outbound message log (DESIGN.md §14): loop-variant channels are
      // appended post-gather, a typed channel as the records it stands for.
      for (size_t i = 0; i < routes.size(); ++i) {
        if (!shuffled[i] || !pass.appended[node.inputs[i]]) continue;
        const std::string channel = MsglogChannel(node.id, routes[i].port);
        FLINKLESS_RETURN_NOT_OK(
            i == 0 && st.in.pairs != nullptr
                ? pass.log->Append(channel,
                                   st.pairs.ToRecords(node.reduce_kind),
                                   pass.tracer)
                : pass.log->Append(channel, *side[i], pass.tracer));
      }
      // Batch sizes of the flat kernels' input side: the reduce input and
      // the join build side (a cached build side is observed when its
      // index is built).
      if (shuffled[0] && node.kind != OpKind::kCoGroup) {
        ObserveBatchRows(pass.metrics, st.in.pairs != nullptr
                                           ? Sizes(st.pairs)
                                           : Sizes(*side[0]));
      }
      st.in.a = side[0];
      st.in.b = side[1];
      if (chained) {
        st.node = &node;
        st.emitted.assign(n, 0);
        if (!Streams(st)) charge(st, routes.size(), parts);
        slots.emplace_back();
      } else {
        for (auto& [key, value] : st.span_args) op_span.AddArg(key, value);
        Repin(node, &st);
        PartitionedDataset out(n);
        FLINKLESS_RETURN_NOT_OK(run_section(
            st.in, parts, op_span, st.cached[0] ? 1 : 0, &members,
            [&](int p, Status* error) {
              RunBody(node, st.in, p, append_to(out, p), error);
            }));
        charge(st, routes.size(), parts);
        local_stats.node_output_counts[node.name] += out.NumRecords();
        push_owned(std::move(out));
      }
    }

    if (store_output) {
      // First execution of an invariant node: move its output into the
      // cache and keep serving this Execute from the cached copy.
      Slot& s = slots.back();
      auto shared = std::make_shared<PartitionedDataset>(std::move(s.owned));
      cache->Emplace(node.id, ExecCache::Role::kOutput).data = shared;
      s.keepalive = shared;
      s.view = shared.get();
      s.is_owned = false;
      FLINKLESS_RETURN_NOT_OK(cache->OnEntryFilled(
          node.id, ExecCache::Role::kOutput, pass.tracer));
      if (op_span.active()) op_span.AddArg("cache_build", 1);
    }
    if (node.kind == OpKind::kSource || from_cache) {
      local_stats.node_output_counts[node.name] +=
          slots.back().view->NumRecords();
    }

    if (op_span.active()) {
      // The chained producers that ran here, each with its output rows.
      if (!members.empty()) {
        op_span.AddArg("chained", static_cast<int64_t>(members.size()));
      }
      for (NodeId m : members) {
        for (auto& [key, value] : stages[m].span_args) {
          op_span.AddArg(key, value);
        }
        op_span.AddArg("chained." + plan.node(m).name,
                       static_cast<int64_t>(Sum(stages[m].emitted)));
      }
      uint64_t records_in = 0;
      for (NodeId idx : node.inputs) {
        records_in += chained_into[idx] == node.id
                          ? Sum(stages[idx].emitted)
                          : slots[idx].view->NumRecords();
      }
      op_span.AddArg("records_in", static_cast<int64_t>(records_in));
      if (!chained) {
        const PartitionedDataset& produced = *slots.back().view;
        op_span.AddArg("records_out",
                       static_cast<int64_t>(produced.NumRecords()));
        if (per_partition_args_) {
          PartitionKeyBuffer out_key("out_p");
          for (int p = 0; p < produced.num_partitions(); ++p) {
            op_span.AddArg(out_key.Key(p),
                           static_cast<int64_t>(produced.partition(p).size()));
          }
        }
      }
    }
    for (NodeId m : members) stages[m] = Stage();
    if (!chained) st = Stage();
    release_dead(node.id);
  }

  std::map<std::string, PartitionedDataset> outputs;
  std::map<int, int> outputs_left;
  for (const auto& [name, node] : plan.outputs()) ++outputs_left[node];
  for (const auto& [name, node] : plan.outputs()) {
    Slot& s = slots[node];
    // Executor-owned results move into their last requesting output;
    // borrowed/cached views are copied (callers own their outputs).
    if (s.is_owned && --outputs_left[node] == 0) {
      outputs.emplace(name, std::move(s.owned));
    } else {
      outputs.emplace(name, *s.view);
    }
  }
  if (pass.metrics != nullptr) {
    // Job-level roll-ups of this Execute, under the canonical v2 names.
    // The per-partition families (exec.records, shuffle.fanout) are
    // recorded at the operator/shuffle sites above. cache.hits appears
    // only once a hit happened, so cache-less runs carry no such family.
    runtime::MetricsSink* m = pass.metrics;
    if (local_stats.cache_hits > 0) {
      m->Count(runtime::metric::kCacheHits, -1, local_stats.cache_hits);
    }
    m->Count(runtime::metric::kCacheRecordsNotReshuffled, -1,
             local_stats.records_not_reshuffled);
  }
  if (stats != nullptr) stats->MergeFrom(local_stats);
  return outputs;
}

// ------------------------------------------------ confined-log replay --
//
// Rebuilds the plan outputs for the lost partitions from the logged
// post-shuffle channels (DESIGN.md §14). A backward demand pass decides
// which nodes run on which partitions: each node is demanded at kNone,
// kLost (only the lost partitions of its output are needed) or kAll, and
// passes demand to each input by that input's route (InputRoutes). A local
// input gets the node's demand unchanged. A shuffled input *stops* demand
// when it is variant (its post-shuffle content is in the log) and is raised
// to kAll when it is invariant (the side must be recomputed and re-shuffled
// in full, since any source partition can feed a lost target). A broadcast
// input, copied everywhere during Execute, is raised to kAll. Execute's
// loop then runs the demanded nodes under the recovery pass.
Result<std::map<std::string, PartitionedDataset>> Executor::Replay(
    const Plan& plan, const Bindings& bindings, const std::vector<int>& lost,
    runtime::MessageLog* log, ExecStats* stats) const {
  FLINKLESS_RETURN_NOT_OK(plan.Validate());
  if (log == nullptr) {
    return Status::InvalidArgument("Replay needs a message log");
  }
  const int n = options_.num_partitions;
  const int num_nodes = static_cast<int>(plan.num_nodes());
  Pass pass(options_, &plan);
  pass.tracer = nullptr;
  pass.metrics = nullptr;
  pass.cache = nullptr;
  pass.log = log;
  pass.appended.assign(num_nodes, false);
  pass.read_back = LogVariant(&plan, log);
  pass.lost.assign(n, false);
  for (int p : lost) {
    if (p < 0 || p >= n) {
      return Status::InvalidArgument("replay: lost partition " +
                                     std::to_string(p) + " is outside [0, " +
                                     std::to_string(n) + ")");
    }
    pass.lost[p] = true;
  }

  runtime::TraceSpan span(options_.tracer, runtime::SpanKind::kMessageLogReplay,
                          "replay");

  enum Demand { kNone = 0, kLost = 1, kAll = 2 };
  std::vector<Demand> demand(num_nodes, kNone);
  for (const auto& [name, node_id] : plan.outputs()) demand[node_id] = kLost;
  // Node ids are topologically ordered (operators only reference earlier
  // nodes), so one backward sweep settles every demand.
  for (int id = num_nodes - 1; id >= 0; --id) {
    if (demand[id] == kNone) continue;
    const PlanNode& node = plan.node(id);
    const std::vector<InputRoute> routes = InputRoutes(node);
    for (size_t i = 0; i < routes.size(); ++i) {
      const NodeId input = node.inputs[i];
      Demand d = routes[i].kind == InputRoute::kLocal ? demand[id] : kAll;
      if (routes[i].kind == InputRoute::kShuffled && pass.read_back[input]) {
        d = kNone;  // its post-shuffle bytes are a logged channel
      }
      demand[input] = std::max(demand[input], d);
    }
  }
  std::vector<int> lost_parts;
  for (int p = 0; p < n; ++p) {
    if (pass.lost[p]) lost_parts.push_back(p);
  }
  for (int id = 0; id < num_nodes; ++id) {
    // A demanded volatile source would need the failed superstep's *input*
    // state, which the superstep loop has already advanced past. Every plan
    // in src/algos routes volatile data through a shuffle before any
    // output, so this only rejects plans confined-log recovery cannot serve.
    const PlanNode& node = plan.node(id);
    if (node.kind == OpKind::kSource && demand[id] != kNone &&
        pass.read_back[id]) {
      return Status::FailedPrecondition(
          "confined-log replay: plan output depends on volatile source '" +
          node.source_name +
          "' outside any logged shuffle; the plan is not replayable");
    }
    if (demand[id] == kNone) pass.parts[id].clear();
    if (demand[id] == kLost) pass.parts[id] = lost_parts;
  }

  ExecStats local_stats;
  FLINKLESS_ASSIGN_OR_RETURN(auto outputs,
                             Run(plan, bindings, pass, &local_stats));
  if (span.active()) {
    span.AddArg("partitions_lost", static_cast<int64_t>(lost.size()));
    span.AddArg("messages_replayed",
                static_cast<int64_t>(local_stats.messages_replayed));
    span.AddArg("records_recomputed",
                static_cast<int64_t>(local_stats.records_processed));
  }
  if (stats != nullptr) stats->MergeFrom(local_stats);
  return outputs;
}

}  // namespace flinkless::dataflow
