#include "dataflow/executor.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <unordered_map>
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

  /// The hash slot `slot` was inserted with.
  uint64_t hash(size_t slot) const { return hashes_[slot]; }

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

/// HashKey of `row`'s `key`: a single int64 key column hashes with
/// HashInt64Key, which is HashKey for that shape.
uint64_t KeyHash(const Record& row, const KeyColumns& key) {
  return key.size() == 1 && static_cast<size_t>(key[0]) < row.size() &&
                 row[key[0]].is_int64()
             ? HashInt64Key(row[key[0]].AsInt64())
             : HashKey(row, key);
}

/// A channel source's rows grouped by target partition (DESIGN.md §12):
/// bucket t is rows order[start[t]], ..., order[start[t + 1] - 1], in
/// source order. A source none of whose rows leave it has no order, and
/// its own bucket is the whole partition. A source that did not run has no
/// buckets.
struct Buckets {
  std::vector<size_t> start;
  std::vector<uint32_t> order;

  bool empty() const { return start.empty(); }
  uint64_t size(int t) const { return empty() ? 0 : start[t + 1] - start[t]; }
};

/// Buckets of source `self`'s `rows` rows over `n` targets, row r going to
/// target(r), stable. Nothing per row is written until the first row that
/// leaves `self`.
template <typename Target>
Buckets BucketRows(size_t rows, int n, int self, const Target& target) {
  FLINKLESS_CHECK(rows <= UINT32_MAX, "partition too large for 32-bit rows");
  Buckets out;
  out.start.assign(n + 1, 0);
  size_t stay = 0;
  int first = self;
  while (stay < rows && (first = target(stay)) == self) ++stay;
  if (stay == rows) {
    for (int t = self + 1; t <= n; ++t) out.start[t] = rows;
    return out;
  }
  // Rows before `stay` stay; the rest are resolved once, then all placed.
  std::vector<int> to(rows, self);
  to[stay] = first;
  for (size_t r = stay + 1; r < rows; ++r) to[r] = target(r);
  for (int t : to) ++out.start[t + 1];
  for (int t = 0; t < n; ++t) out.start[t + 1] += out.start[t];
  std::vector<size_t> next(out.start.begin(), out.start.end() - 1);
  out.order.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    out.order[next[to[r]]++] = static_cast<uint32_t>(r);
  }
  return out;
}

/// Target t of a channel: bucket t of every source, in source order.
/// `rows_of(s)` is source s's rows, moved out when the channel owns them
/// and copied when it borrows them (a const vector).
template <typename RowsOf, typename Row>
void GatherBuckets(const std::vector<Buckets>& sources, const RowsOf& rows_of,
                   int t, std::vector<Row>* dst) {
  size_t add = 0;
  for (const Buckets& source : sources) add += source.size(t);
  dst->reserve(add);
  for (size_t s = 0; s < sources.size(); ++s) {
    const Buckets& b = sources[s];
    if (b.size(t) == 0) continue;
    auto& rows = rows_of(static_cast<int>(s));
    if (b.order.empty()) {
      dst->insert(dst->end(),
                  std::make_move_iterator(rows.begin() + b.start[t]),
                  std::make_move_iterator(rows.begin() + b.start[t + 1]));
      continue;
    }
    for (size_t i = b.start[t]; i < b.start[t + 1]; ++i) {
      dst->push_back(std::move(rows[b.order[i]]));
    }
  }
}

/// The row counts of a channel whose sources handed back `sources`: `in`
/// per source, `out` per target of `n`, and `moved` per source, the rows
/// that left it. Messages, fan-out and the shuffle charge come from these.
struct ChannelSizes {
  ChannelSizes(const std::vector<Buckets>& sources, int n)
      : in(sources.size(), 0), out(n, 0), moved(sources.size(), 0) {
    for (size_t s = 0; s < sources.size(); ++s) {
      for (int t = 0; t < n; ++t) {
        const uint64_t rows = sources[s].size(t);
        in[s] += rows;
        out[t] += rows;
        if (static_cast<size_t>(t) != s) moved[s] += rows;
      }
    }
  }

  std::vector<uint64_t> in, out, moved;
};

/// Sorts `pairs`, whose keys are unique, by key: an LSD radix sort over
/// the sign-flipped key's bytes that skips the bytes every key shares.
/// Unique keys make the order exactly std::sort's.
void SortByKey(std::vector<KeyValue>* pairs) {
  if (pairs->size() < 2) return;
  const int64_t first = pairs->front().first;
  uint64_t differ = 0;
  for (const KeyValue& pair : *pairs) {
    differ |= static_cast<uint64_t>(pair.first ^ first);
  }
  std::vector<KeyValue> buffer(pairs->size());
  for (int shift = 0; shift < 64; shift += 8) {
    if (((differ >> shift) & 0xff) == 0) continue;
    auto digit = [shift](const KeyValue& pair) {
      const uint64_t biased =
          static_cast<uint64_t>(pair.first) ^ (uint64_t{1} << 63);
      return (biased >> shift) & 0xff;
    };
    size_t offset[256] = {};
    for (const KeyValue& pair : *pairs) ++offset[digit(pair)];
    size_t start = 0;
    for (size_t& o : offset) start += std::exchange(o, start);
    for (const KeyValue& pair : *pairs) buffer[offset[digit(pair)]++] = pair;
    pairs->swap(buffer);
  }
}

/// A declared reduce's typed channel (DESIGN.md §15): per partition, the
/// pairs gathered from the pre-combine folds' buckets.
class PairDataset {
 public:
  explicit PairDataset(int num_partitions = 0) : partitions_(num_partitions) {}

  int num_partitions() const { return static_cast<int>(partitions_.size()); }
  std::vector<KeyValue>& partition(int p) { return partitions_[p]; }
  const std::vector<KeyValue>& partition(int p) const {
    return partitions_[p];
  }

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
/// emitted sorted on the key, or, as a pre-combine, handed back unsorted in
/// one bucket per target partition. A declared combiner (DESIGN.md §15) folds
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
    const uint64_t h = KeyHash(row, key);
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

  /// Hands the partials back unsorted, the typed fold's pairs into *pairs
  /// and the accumulator records into *records, bucketed as source `self`
  /// over `n` targets in slot (first-arrival) order. A slot's hash is
  /// HashKey of its key, so its bucket is PartitionedDataset::PartitionOf
  /// the key.
  Buckets Route(int n, int self, std::vector<KeyValue>* pairs,
                std::vector<Record>* records) {
    *pairs = std::move(pairs_);
    *records = std::move(acc_);
    return BucketRows(slots_.size(), n, self, [&](size_t s) {
      return static_cast<int>(slots_.hash(s) % static_cast<uint64_t>(n));
    });
  }

  /// Emits the accumulators in key order (KeyLess; numeric order for an
  /// int64 key).
  bool Emit(const RowSink& out) {
    if (typed_) {
      SortByKey(&pairs_);
      for (const KeyValue& pair : pairs_) {
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
  /// Cached sides' entries, each pinning its side and a join build side's
  /// index: a spill before the section runs drops only the cache's refs.
  ExecCache::Entry pinned[2];
  /// The input exec.records and the section's child spans count: input 1
  /// when input 0 is a cached side.
  int counted() const { return pinned[0].data != nullptr ? 1 : 0; }
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

const std::vector<Record> kEmptyGroup;

/// Cogroup of partition `p`. Its UDF sweeps fully materialized groups on
/// both sides at once, so both sides are grouped into maps (DESIGN.md §12
/// fallback rule); the union of both key sets is swept in RecordLess order.
bool CoGroupBody(const PlanNode& node, const OpInputs& in, int p,
                 const RowSink& out) {
  auto group = [p](const PartitionedDataset* side, const KeyColumns& key) {
    std::unordered_map<Record, std::vector<Record>, RecordHash> groups;
    groups.reserve(side->partition(p).size());
    for (const Record& r : side->partition(p)) {
      groups[ExtractKey(r, key)].push_back(r);
    }
    return groups;
  };
  const auto lgroups = group(in.a, node.left_key);
  const auto rgroups = group(in.b, node.right_key);
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
                    rit != rgroups.end() ? rit->second : kEmptyGroup, &rows);
    if (!EmitAll(&rows, out)) return false;
  }
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

    case OpKind::kCoGroup:
      return CoGroupBody(node, in, p, out);
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

/// Records the rows that left each source partition of a channel: the
/// "messages" and "moved_p<i>" args of its job-level shuffle span, and the
/// per-source shuffle fan-out (the counter makes skewed senders visible,
/// the histogram gives the distribution across all shuffles of the run).
/// Returns the messages.
uint64_t RecordMoved(runtime::MetricsSink* metrics, runtime::TraceSpan* span,
                     bool per_partition_args,
                     const std::vector<uint64_t>& moved) {
  const uint64_t messages = Sum(moved);
  if (span->active()) {
    span->AddArg("messages", static_cast<int64_t>(messages));
    if (per_partition_args) {
      PartitionKeyBuffer moved_key("moved_p");
      for (size_t p = 0; p < moved.size(); ++p) {
        span->AddArg(moved_key.Key(static_cast<int>(p)),
                     static_cast<int64_t>(moved[p]));
      }
    }
  }
  if (metrics != nullptr) {
    for (size_t p = 0; p < moved.size(); ++p) {
      metrics->Count(runtime::metric::kShuffleFanout, static_cast<int>(p),
                     moved[p]);
      metrics->Observe(runtime::metric::kHistShuffleFanout,
                       static_cast<int64_t>(moved[p]));
    }
  }
  return messages;
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
  /// route's critical path and the moved records and counts them as
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
  /// but its own (counted as messages, and returned), a recovery to the
  /// lost ones only.
  uint64_t ChargeBroadcast(uint64_t records, ExecStats* stats) const {
    if (!lost.empty()) {
      ChargeNetwork(records * static_cast<uint64_t>(std::count(
                                  lost.begin(), lost.end(), true)));
      return 0;
    }
    const uint64_t messages =
        records * static_cast<uint64_t>(options.num_partitions - 1);
    stats->messages_shuffled += messages;
    ChargeNetwork(messages);
    return messages;
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
    const std::function<int64_t(int)>& records_of) const {
  // Pool work is counted here, not inside the ThreadPool: a serial executor
  // (num_threads == 1) has no pool at all, and the exported totals must be
  // identical at any thread count.
  if (pass.metrics != nullptr && count > 0) {
    pass.metrics->Count(runtime::metric::kPoolParallelSections, -1);
    pass.metrics->Count(runtime::metric::kPoolTasks, -1,
                        static_cast<uint64_t>(count));
  }
  runtime::TracedParallelFor(pool_.get(), parent, count, fn, records_of);
}

Result<PartitionedDataset> Executor::ShuffleImpl(
    const Pass& pass, const PartitionedDataset& input, const KeyColumns& key,
    ExecStats* stats, const PlanNode* node, bool* in_place) const {
  const int n = options_.num_partitions;
  const int sources = input.num_partitions();

  // Route: every source groups its rows by target partition in one pass.
  std::vector<Buckets> buckets(sources);
  std::vector<Status> key_errors(sources);
  runtime::TraceSpan route_span(pass.tracer,
                                runtime::SpanKind::kShuffleScatter, "route");
  ForEachPartition(
      pass, route_span, sources,
      [&](int p) {
        const std::vector<Record>& src = input.partition(p);
        Status& error = key_errors[p];
        buckets[p] = BucketRows(src.size(), n, p, [&](size_t r) {
          const int missing =
              node != nullptr ? MissingKeyColumn(src[r], key) : -1;
          if (missing >= 0) {
            if (error.ok()) error = KeyColumnError(*node, missing, src[r]);
            return p;
          }
          return static_cast<int>(KeyHash(src[r], key) %
                                  static_cast<uint64_t>(n));
        });
      },
      [&](int p) { return static_cast<int64_t>(input.partition(p).size()); });
  for (const Status& error : key_errors) FLINKLESS_RETURN_NOT_OK(error);
  const ChannelSizes sizes(buckets, n);
  const uint64_t messages =
      RecordMoved(pass.metrics, &route_span, per_partition_args_, sizes.moved);
  route_span.Close();

  PartitionedDataset out(n);
  if (sources == n && messages == 0 && in_place != nullptr) {
    // Nothing leaves its partition (DESIGN.md §12): the caller reads the
    // input where it is.
    *in_place = true;
  } else {
    runtime::TraceSpan gather_span(pass.tracer,
                                   runtime::SpanKind::kShuffleGather, "gather");
    if (gather_span.active()) {
      gather_span.AddArg("records", static_cast<int64_t>(Sum(sizes.in)));
    }
    ForEachPartition(
        pass, gather_span, n,
        [&](int t) {
          GatherBuckets(
              buckets,
              [&](int s) -> const std::vector<Record>& {
                return input.partition(s);
              },
              t, &out.partition(t));
        },
        [&](int t) { return static_cast<int64_t>(sizes.out[t]); });
  }
  pass.ChargeShuffle(sizes.in, messages, sizes.out, stats);
  return out;
}

PartitionedDataset Executor::Shuffle(const PartitionedDataset& input,
                                     const KeyColumns& key,
                                     ExecStats* stats) const {
  return ShuffleImpl(Pass(options_, nullptr), input, key, stats).ValueOrDie();
}

// ------------------------------------------------------- the plan run --

/// One Execute or Replay call's per-node loop. In plan order each node
/// resolves its stage, moves its inputs, runs its section and is accounted
/// for; then dead intermediates are released. Inputs move at the node's own
/// position even when its body waits for a chained consumer, so cache
/// lookups, shuffles and log appends keep plan order (DESIGN.md §17).
class Executor::PlanRun {
 public:
  PlanRun(const Executor& executor, const Plan& plan, const Bindings& bindings,
          const Pass& pass)
      : executor_(executor),
        plan_(plan),
        bindings_(bindings),
        pass_(pass),
        n_(executor.options_.num_partitions),
        chained_into_(plan.ChainedInto()),
        release_at_(plan.num_nodes(), -1),
        stages_(plan.num_nodes()) {
    const int num_nodes = static_cast<int>(plan.num_nodes());
    if (pass.cache != nullptr) {
      pass.cache->EnsurePartitionCount(n_);
      invariant_ = plan.InvariantNodes(pass.cache->volatile_bindings());
    }

    // Operator chaining (DESIGN.md §17). runs_at[id] is the node whose
    // position runs id's body: id unless chained, a pre-combining reduce for
    // its input, else the consumer's runs_at.
    std::vector<NodeId> runs_at(num_nodes);
    for (int id = num_nodes - 1; id >= 0; --id) {
      const NodeId c = chained_into_[id];
      runs_at[id] = c < 0                                      ? id
                    : plan.node(c).kind == OpKind::kReduceByKey ? c
                                                                : runs_at[c];
    }

    // An executor-owned result is released once the last section reading it
    // has run, not at the end of Execute: peak memory drops. Plan outputs
    // stay. A local route reads at its consumer's runs_at, and so may a
    // shuffled one, whose consumer reads the input in place when no row
    // moves; a pre-combine or broadcast input is read at the node's own
    // position.
    for (const PlanNode& node : plan.nodes()) {
      const std::vector<InputRoute> routes = InputRoutes(node);
      for (size_t i = 0; i < routes.size(); ++i) {
        const bool at_own = routes[i].kind == InputRoute::kBroadcast ||
                            routes[i].pre_combine;
        NodeId& at = release_at_[node.inputs[i]];
        at = std::max(at, at_own ? node.id : runs_at[node.id]);
      }
    }
    for (const auto& [name, node] : plan.outputs()) release_at_[node] = -1;
    slots_.reserve(num_nodes);
  }

  /// Runs every node the pass demands, then hands back the plan's outputs.
  Result<std::map<std::string, PartitionedDataset>> Run(ExecStats* stats) {
    for (const PlanNode& node : plan_.nodes()) {
      if (pass_.parts[node.id].empty()) {
        slots_.emplace_back();  // not demanded by a recovery: not run
      } else {
        Position at(node, chained_into_[node.id] >= 0, pass_.tracer);
        FLINKLESS_RETURN_NOT_OK(ResolveStage(&at));
        if (node.kind != OpKind::kSource) {
          FLINKLESS_RETURN_NOT_OK(MoveInputs(&at));
          FLINKLESS_RETURN_NOT_OK(RunSection(&at));
        }
        Account(&at);
      }
      ReleaseDead(node.id);
    }

    std::map<std::string, PartitionedDataset> outputs;
    std::map<int, int> outputs_left;
    for (const auto& [name, node] : plan_.outputs()) ++outputs_left[node];
    for (const auto& [name, node] : plan_.outputs()) {
      Slot& s = slots_[node];
      // Executor-owned results move into their last requesting output;
      // borrowed views are copied (callers own their outputs).
      if (s.is_owned() && --outputs_left[node] == 0) {
        outputs.emplace(name, std::move(s.owned));
      } else {
        outputs.emplace(name, *s.view);
      }
    }
    if (pass_.metrics != nullptr) {
      // Job-level roll-ups of this Execute. cache.hits appears only once a
      // hit happened, so cache-less runs carry no such family.
      runtime::MetricsSink* m = pass_.metrics;
      if (stats_.cache_hits > 0) {
        m->Count(runtime::metric::kCacheHits, -1, stats_.cache_hits);
      }
      m->Count(runtime::metric::kCacheRecordsNotReshuffled, -1,
               stats_.records_not_reshuffled);
    }
    if (stats != nullptr) stats->MergeFrom(stats_);
    return outputs;
  }

 private:
  /// A node's result: a view over a borrowed source binding (no copy) or
  /// over `owned`; a chained node has none. Reserved, so views stay valid.
  struct Slot {
    PartitionedDataset owned;
    const PartitionedDataset* view = nullptr;
    bool is_owned() const { return view == &owned; }
  };

  /// What the steps of one node's position share.
  struct Position {
    Position(const PlanNode& n, bool is_chained, runtime::Tracer* tracer)
        : node(n),
          routes(InputRoutes(n)),
          chained(is_chained),
          span(!chained || (!routes.empty() && routes[0].pre_combine)
                   ? tracer
                   : nullptr,
               runtime::SpanKind::kOperator, n.name) {}

    const PlanNode& node;
    const std::vector<InputRoute> routes;
    const bool chained;
    /// One span per position that runs a section: a chained node's body
    /// runs in its root's span, but its pre-combine fold is its own.
    runtime::TraceSpan span;
    /// Chained producers whose bodies ran in this position's sections.
    std::vector<NodeId> members;
  };

  /// A source's result is its binding, viewed in place. Any other node's
  /// stage links its chained producers and pins each loop-invariant
  /// shuffled side of a loop-variant node from the cache (port l as role
  /// kBuild, r as kProbe): a miss shuffles it and indexes a join build side,
  /// a hit is counted with the records whose shuffle it saved.
  Status ResolveStage(Position* at) {
    const PlanNode& node = at->node;
    if (node.kind == OpKind::kSource) {
      auto it = bindings_.find(node.source_name);
      if (it == bindings_.end() || it->second == nullptr) {
        return Status::NotFound("no binding for source '" + node.source_name +
                                "'");
      }
      if (it->second->num_partitions() != n_) {
        return Status::InvalidArgument(
            "binding '" + node.source_name + "' has " +
            std::to_string(it->second->num_partitions()) +
            " partitions, executor expects " + std::to_string(n_));
      }
      slots_.emplace_back().view = it->second;
      return Status::OK();
    }
    Stage& st = stages_[node.id];
    st.in.metrics = pass_.metrics;
    for (size_t i = 0; i < at->routes.size(); ++i) {
      const NodeId input = node.inputs[i];
      const InputRoute& route = at->routes[i];
      if (route.kind == InputRoute::kLocal && chained_into_[input] == node.id) {
        st.in.chain[i] = &stages_[input];
      }
      if (route.kind != InputRoute::kShuffled || pass_.cache == nullptr ||
          invariant_[node.id] || !invariant_[input]) {
        continue;
      }
      const ExecCache::Role role =
          i == 0 ? ExecCache::Role::kBuild : ExecCache::Role::kProbe;
      bool reloaded = false;
      FLINKLESS_ASSIGN_OR_RETURN(
          ExecCache::Entry* e,
          pass_.cache->FindResident(node.id, role, pass_.tracer, &reloaded));
      st.hit[i] = e != nullptr;
      if (st.hit[i]) {
        ++stats_.cache_hits;
        stats_.records_not_reshuffled += e->data->NumRecords();
        st.span_args.emplace_back("cache_hit", 1);
        st.span_args.emplace_back("reloaded", reloaded ? 1 : 0);
      } else {
        const KeyColumns& key = *route.key;
        FLINKLESS_ASSIGN_OR_RETURN(
            PartitionedDataset shuffled,
            executor_.ShuffleImpl(pass_, *slots_[input].view, key, &stats_,
                                  &node));
        e = &pass_.cache->Emplace(node.id, role);
        e->data = std::make_shared<PartitionedDataset>(std::move(shuffled));
        e->index_key = key;
        if (node.kind == OpKind::kJoin && role == ExecCache::Role::kBuild) {
          auto index = std::make_shared<std::vector<FlatKeyIndex>>(n_);
          executor_.ForEachPartition(
              pass_, runtime::TraceSpan(), n_,
              [&](int p) { (*index)[p].Build(e->data->partition(p), key); });
          ObserveBatchRows(pass_.metrics, Sizes(*e->data));
          for (const FlatKeyIndex& part : *index) {
            ObserveProbeChains(pass_.metrics, part);
          }
          e->flat_index = std::move(index);
        }
        FLINKLESS_RETURN_NOT_OK(
            pass_.cache->OnEntryFilled(node.id, role, pass_.tracer));
        st.span_args.emplace_back("cache_build", 1);
      }
      st.pinned[i] = *e;
      (i == 0 ? st.in.a : st.in.b) = e->data.get();
      if (i == 0) st.in.build_index = e->flat_index.get();
    }
    return Status::OK();
  }

  /// Moves every input that is neither cached nor chained along its route
  /// (DESIGN.md §12) in port order: read back from the log in a recovery,
  /// pre-combined, shuffled (or read in place) or broadcast. Then appends
  /// the loop-variant channels to the message log (§14) in port order.
  Status MoveInputs(Position* at) {
    const PlanNode& node = at->node;
    Stage& st = stages_[node.id];
    // Which sides went through a shuffle (or were read back from the log).
    bool shuffled[2] = {false, false};
    for (size_t i = 0; i < at->routes.size(); ++i) {
      if (st.pinned[i].data != nullptr || st.in.chain[i] != nullptr) continue;
      const InputRoute& route = at->routes[i];
      const NodeId input = node.inputs[i];
      const PartitionedDataset*& side = i == 0 ? st.in.a : st.in.b;
      if (route.kind == InputRoute::kShuffled && pass_.read_back[input]) {
        FLINKLESS_ASSIGN_OR_RETURN(st.shuffled[i],
                                   pass_.ReadBack(node, route, &stats_));
        side = &st.shuffled[i];
      } else if (route.pre_combine) {
        // Local pre-aggregation before the shuffle: fewer messages.
        FLINKLESS_RETURN_NOT_OK(PreCombine(at));
        if (st.in.pairs == nullptr) side = &st.shuffled[i];
      } else if (route.kind == InputRoute::kShuffled) {
        bool in_place = false;
        FLINKLESS_ASSIGN_OR_RETURN(
            st.shuffled[i],
            executor_.ShuffleImpl(pass_, *slots_[input].view, *route.key,
                                  &stats_, &node, &in_place));
        side = in_place ? slots_[input].view : &st.shuffled[i];
      } else {
        side = slots_[input].view;
        if (route.kind == InputRoute::kBroadcast) {
          st.broadcast = side->Collect();
          // Its messages are the operator span's: no shuffle span runs.
          st.span_args.emplace_back(
              "messages", static_cast<int64_t>(pass_.ChargeBroadcast(
                              st.broadcast.size(), &stats_)));
          st.in.broadcast = &st.broadcast;
        }
      }
      shuffled[i] = route.kind == InputRoute::kShuffled;
    }
    // A typed channel is logged as the records it stands for.
    for (size_t i = 0; i < at->routes.size(); ++i) {
      if (!shuffled[i] || !pass_.appended[node.inputs[i]]) continue;
      const std::string channel = MsglogChannel(node.id, at->routes[i].port);
      FLINKLESS_RETURN_NOT_OK(
          i == 0 && st.in.pairs != nullptr
              ? pass_.log->Append(channel, st.pairs.ToRecords(node.reduce_kind),
                                  pass_.tracer)
              : pass_.log->Append(channel, *st.in.side(static_cast<int>(i)),
                                  pass_.tracer));
    }
    // Batch sizes of the flat kernels' input side: the reduce input and the
    // join build side (a cached build side is observed when its index is
    // built).
    if (shuffled[0] && node.kind != OpKind::kCoGroup) {
      ObserveBatchRows(pass_.metrics, st.in.pairs != nullptr ? Sizes(st.pairs)
                                                             : Sizes(*st.in.a));
    }
    return Status::OK();
  }

  /// The pre-combine of reduce `at`'s input in its own section (DESIGN.md
  /// §15): each source's fold buckets its unsorted partials, and target t
  /// gathers bucket t of every source in source order. The channel is typed
  /// (the stage's `pairs`) when every fold stayed typed, else records
  /// (`shuffled[0]`), typed sources converted as PairRecords does.
  Status PreCombine(Position* at) {
    const PlanNode& node = at->node;
    const NodeId input = node.inputs[0];
    Stage& st = stages_[node.id];
    Stage pre;
    pre.in.validate = false;
    if (chained_into_[input] == node.id) {
      pre.in.chain[0] = &stages_[input];
    } else {
      pre.in.a = slots_[input].view;
    }
    const std::vector<int>& parts = pass_.parts[input];
    std::vector<Buckets> buckets(n_);
    std::vector<std::vector<KeyValue>> pairs(n_);
    std::vector<std::vector<Record>> records(n_);
    std::vector<char> untyped(n_, 0);
    FLINKLESS_RETURN_NOT_OK(ParallelSection(
        at, pre.in, parts, 0, [&](int p, Status* error) {
          ReduceFold fold(node, /*validate=*/false);
          if (!EachRow(pre.in, 0, p, error,
                       [&](const Record& r) { return fold.Add(r, error); })) {
            return;
          }
          untyped[p] = !fold.typed();
          buckets[p] = fold.Route(n_, p, &pairs[p], &records[p]);
        }));
    const bool all_typed =
        std::find(untyped.begin(), untyped.end(), 1) == untyped.end();
    const ChannelSizes sizes(buckets, n_);
    // The channel's one job-level shuffle span, under the reduce's.
    runtime::TraceSpan gather_span(pass_.tracer,
                                   runtime::SpanKind::kShuffleGather, "gather");
    if (gather_span.active()) {
      gather_span.AddArg("records", static_cast<int64_t>(Sum(sizes.in)));
    }
    const uint64_t messages =
        RecordMoved(pass_.metrics, &gather_span,
                    executor_.per_partition_args_, sizes.moved);
    if (!all_typed) {
      for (int p = 0; p < n_; ++p) {
        if (!untyped[p]) records[p] = PairRecords(node.reduce_kind, pairs[p]);
      }
    }
    // When nothing leaves its source, each source's rows are its target
    // partition.
    auto gather = [&](auto& rows, auto& out) {
      if (messages == 0) {
        for (int p = 0; p < n_; ++p) out.partition(p) = std::move(rows[p]);
        return;
      }
      executor_.ForEachPartition(
          pass_, gather_span, n_,
          [&](int t) {
            GatherBuckets(
                buckets, [&](int s) -> auto& { return rows[s]; }, t,
                &out.partition(t));
          },
          [&](int t) { return static_cast<int64_t>(sizes.out[t]); });
    };
    if (all_typed) {
      st.pairs = PairDataset(n_);
      gather(pairs, st.pairs);
      st.in.pairs = &st.pairs;
    } else {
      st.shuffled[0] = PartitionedDataset(n_);
      gather(records, st.shuffled[0]);
    }
    gather_span.Close();
    pass_.ChargeShuffle(sizes.in, messages, sizes.out, &stats_);

    std::vector<uint64_t> rows(n_);
    for (int p = 0; p < n_; ++p) rows[p] = RowsOf(pre.in, 0, p);
    ObserveBatchRows(pass_.metrics, rows);
    Charge(pre, 1, parts);
    return Status::OK();
  }

  /// A chained node's body waits for its root's section. Any other node's
  /// body runs now, its chained producers streaming in, and its output is
  /// materialized into its slot.
  Status RunSection(Position* at) {
    const PlanNode& node = at->node;
    Stage& st = stages_[node.id];
    if (at->chained) {
      st.node = &node;
      st.emitted.assign(n_, 0);
      slots_.emplace_back();
      return Status::OK();
    }
    for (auto& [key, value] : st.span_args) at->span.AddArg(key, value);
    PartitionedDataset out(n_);
    FLINKLESS_RETURN_NOT_OK(ParallelSection(
        at, st.in, pass_.parts[node.id], st.counted(),
        [&](int p, Status* error) {
          RunBody(node, st.in, p, [&rows = out.partition(p)](Record&& r) {
            rows.push_back(std::move(r));
            return true;
          }, error);
        }));
    Slot& s = slots_.emplace_back();
    s.owned = std::move(out);
    s.view = &s.owned;
    return Status::OK();
  }

  /// Runs `body` on each partition of `parts` in one parallel section under
  /// `at`'s span, the chained producers of `in` streaming in; the child
  /// spans carry input `traced`'s rows. Failures are checked in partition
  /// order, so the error is the one serial execution hits first. The
  /// producers are counted (charged, if streamed into) and become members.
  Status ParallelSection(Position* at, const OpInputs& in,
                         const std::vector<int>& parts, int traced,
                         const std::function<void(int, Status*)>& body) {
    std::vector<NodeId>* members = &at->members;
    const size_t first = members->size();
    ChainMembers(in, members);
    std::vector<Status> status(parts.size());
    executor_.ForEachPartition(
        pass_, at->span, static_cast<int>(parts.size()),
        [&](int i) { body(parts[i], &status[i]); },
        [&](int i) {
          return static_cast<int64_t>(RowsOf(in, traced, parts[i]));
        });
    for (const Status& s : status) FLINKLESS_RETURN_NOT_OK(s);
    for (size_t m = first; m < members->size(); ++m) {
      const Stage& member = stages_[(*members)[m]];
      if (Streams(member)) {
        Charge(member, member.node->inputs.size(),
               pass_.parts[member.node->id]);
      }
      stats_.node_output_counts[member.node->name] += Sum(member.emitted);
    }
    return Status::OK();
  }

  /// Counts and charges a body from the rows its `inputs` inputs delivered
  /// to the partitions it ran on. A hit side is not charged.
  void Charge(const Stage& st, size_t inputs, const std::vector<int>& parts) {
    std::vector<uint64_t> work(n_, 0);
    for (size_t i = 0; i < inputs; ++i) {
      if (st.hit[i]) continue;
      if (i == 1 && st.in.broadcast != nullptr) {
        stats_.records_processed += st.broadcast.size();
        continue;
      }
      for (int p : parts) {
        const uint64_t rows = RowsOf(st.in, static_cast<int>(i), p);
        work[p] += rows;
        stats_.records_processed += rows;
      }
    }
    // Partition p pays for its own records against the whole broadcast side.
    if (st.in.broadcast != nullptr) {
      for (uint64_t& w : work) w *= st.broadcast.size();
    }
    pass_.ChargeCompute(work);
    for (int p : parts) {
      if (pass_.metrics == nullptr) break;
      pass_.metrics->Count(runtime::metric::kExecRecords, p,
                           RowsOf(st.in, st.counted(), p));
    }
  }

  /// Counts and charges the node, fills its span, and drops the stages whose
  /// sections ran. A node whose inputs are all materialized is charged at
  /// its own position, so every span sees the SimClock it saw unchained.
  void Account(Position* at) {
    const PlanNode& node = at->node;
    Stage& st = stages_[node.id];
    if (node.kind != OpKind::kSource && !(at->chained && Streams(st))) {
      Charge(st, at->routes.size(), pass_.parts[node.id]);
    }
    if (!at->chained) {
      stats_.node_output_counts[node.name] += slots_.back().view->NumRecords();
    }
    runtime::TraceSpan& span = at->span;
    if (span.active()) {
      // The chained producers that ran here, each with its output rows.
      if (!at->members.empty()) {
        span.AddArg("chained", static_cast<int64_t>(at->members.size()));
      }
      for (NodeId m : at->members) {
        for (auto& [key, value] : stages_[m].span_args) span.AddArg(key, value);
        span.AddArg("chained." + plan_.node(m).name,
                    static_cast<int64_t>(Sum(stages_[m].emitted)));
      }
      uint64_t records_in = 0;
      for (NodeId idx : node.inputs) {
        records_in += chained_into_[idx] == node.id
                          ? Sum(stages_[idx].emitted)
                          : slots_[idx].view->NumRecords();
      }
      span.AddArg("records_in", static_cast<int64_t>(records_in));
      if (!at->chained) {
        const PartitionedDataset& produced = *slots_.back().view;
        span.AddArg("records_out", static_cast<int64_t>(produced.NumRecords()));
        if (executor_.per_partition_args_) {
          PartitionKeyBuffer out_key("out_p");
          for (int p = 0; p < produced.num_partitions(); ++p) {
            span.AddArg(out_key.Key(p),
                        static_cast<int64_t>(produced.partition(p).size()));
          }
        }
      }
    }
    for (NodeId m : at->members) stages_[m] = Stage();
    if (!at->chained) st = Stage();
  }

  /// Releases the owned results whose last reading section ran at `at`.
  void ReleaseDead(NodeId at) {
    for (NodeId idx = 0; idx < at; ++idx) {
      Slot& s = slots_[idx];
      if (!s.is_owned() || release_at_[idx] != at) continue;
      executor_.ForEachPartition(
          pass_, runtime::TraceSpan(), s.owned.num_partitions(),
          [&](int p) { std::vector<Record>().swap(s.owned.partition(p)); });
      s.owned = PartitionedDataset();
      s.view = nullptr;
    }
  }

  const Executor& executor_;
  const Plan& plan_;
  const Bindings& bindings_;
  const Pass& pass_;
  const int n_;
  /// With a cache: per node, whether it is loop-invariant.
  std::vector<bool> invariant_;
  const std::vector<NodeId> chained_into_;
  /// Per node, the position after whose sections its owned result is dead
  /// (-1 = kept: a plan output).
  std::vector<NodeId> release_at_;
  std::vector<Slot> slots_;
  std::vector<Stage> stages_;
  ExecStats stats_;
};

Result<std::map<std::string, PartitionedDataset>> Executor::Execute(
    const Plan& plan, const Bindings& bindings, ExecStats* stats) const {
  FLINKLESS_RETURN_NOT_OK(plan.Validate());
  return PlanRun(*this, plan, bindings, Pass(options_, &plan)).Run(stats);
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
  FLINKLESS_ASSIGN_OR_RETURN(
      auto outputs, PlanRun(*this, plan, bindings, pass).Run(&local_stats));
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
