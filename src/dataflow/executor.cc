#include "dataflow/executor.h"

#include <algorithm>
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

/// Reduce of one partition: accumulate in first-arrival order through a
/// FlatSlotMap, then emit accumulators sorted on their key columns.
/// `validate` enforces the combiner-keeps-the-key contract (post-shuffle
/// phase only).
Status FlatReducePartition(const std::vector<Record>& in,
                           const KeyColumns& key, const CombineFn& combine,
                           bool validate, const std::string& node_name,
                           std::vector<Record>* out) {
  std::vector<Record> acc;
  acc.reserve(in.size());
  FlatSlotMap slots(in.size());
  // Single-int64-key fast path: hash the whole key column in one pass
  // and compare slots on the flat array (each slot remembers its
  // first-arrival key — equal to the accumulator's key under the
  // combiner-keeps-the-key contract the validate phase enforces).
  std::vector<int64_t> key64;
  std::vector<uint64_t> hashes;
  std::vector<int64_t> slot_key;
  const bool fast = ExtractKey64(in, key, &key64);
  if (fast) {
    hashes.resize(in.size());
    for (size_t i = 0; i < in.size(); ++i) hashes[i] = HashInt64Key(key64[i]);
    slot_key.reserve(in.size());
  }
  for (size_t i = 0; i < in.size(); ++i) {
    const Record& r = in[i];
    const uint64_t h = fast ? hashes[i] : HashKey(r, key);
    bool inserted = false;
    int32_t slot;
    if (fast) {
      slot = slots.FindOrInsert(
          h, [&](int32_t s) { return slot_key[s] == key64[i]; }, &inserted);
      if (inserted) slot_key.push_back(key64[i]);
    } else {
      slot = slots.FindOrInsert(
          h, [&](int32_t s) { return KeysEqual(acc[s], key, r, key); },
          &inserted);
    }
    if (inserted) {
      acc.push_back(r);
      continue;
    }
    Record folded = combine(acc[slot], r);
    if (validate && !KeysEqual(folded, key, r, key)) {
      return Status::Internal("ReduceByKey '" + node_name +
                              "': combiner changed the key (got " +
                              RecordToString(folded) + ")");
    }
    acc[slot] = std::move(folded);
  }
  std::vector<int32_t> order(acc.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return KeyLess(acc[a], acc[b], key);
  });
  out->reserve(out->size() + order.size());
  for (int32_t s : order) out->push_back(std::move(acc[s]));
  return Status::OK();
}

/// Typed columnar reduce of one partition (DESIGN.md §15): when the
/// combiner is declared (Plan::DeclareReduce) and the partition has the
/// declared shape — records (int64 key, value), key == {0}, value column 1
/// of the declared type — the fold runs over scalar accumulators on flat
/// columns, never materializing intermediate Records. Returns false on any
/// shape mismatch; the caller falls back to FlatReducePartition. Fold and
/// emission order match the generic path exactly: arrival-order folding
/// per key (kSumDouble strictly sequential — FP association is
/// load-bearing), emission sorted by key (KeyLess on an int64 key is
/// numeric order).
bool FlatReduceTypedPartition(const std::vector<Record>& in,
                              const KeyColumns& key, ReduceKind kind,
                              int value_col, std::vector<Record>* out) {
  if (key.size() != 1 || key[0] != 0 || value_col != 1) return false;
  const bool want_double = kind == ReduceKind::kSumDouble;
  for (const Record& r : in) {
    if (r.size() != 2 || !r[0].is_int64()) return false;
    if (want_double ? !r[1].is_double() : !r[1].is_int64()) return false;
  }
  if (in.empty()) return true;

  std::vector<int64_t> keys(in.size());
  std::vector<uint64_t> hashes(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    keys[i] = in[i][0].AsInt64();
    hashes[i] = HashInt64Key(keys[i]);
  }
  FlatSlotMap slots(in.size());
  std::vector<int64_t> slot_key;
  slot_key.reserve(in.size());
  std::vector<int64_t> acc_i;
  std::vector<double> acc_d;
  for (size_t i = 0; i < in.size(); ++i) {
    bool inserted = false;
    const int32_t slot = slots.FindOrInsert(
        hashes[i], [&](int32_t s) { return slot_key[s] == keys[i]; },
        &inserted);
    if (want_double) {
      const double v = in[i][1].AsDouble();
      if (inserted) {
        slot_key.push_back(keys[i]);
        acc_d.push_back(v);
      } else {
        acc_d[slot] += v;  // arrival order, same association as combine()
      }
      continue;
    }
    const int64_t v = in[i][1].AsInt64();
    if (inserted) {
      slot_key.push_back(keys[i]);
      acc_i.push_back(v);
      continue;
    }
    switch (kind) {
      case ReduceKind::kSumInt64:
        acc_i[slot] = static_cast<int64_t>(static_cast<uint64_t>(acc_i[slot]) +
                                           static_cast<uint64_t>(v));
        break;
      case ReduceKind::kMinInt64:
        if (v < acc_i[slot]) acc_i[slot] = v;  // ties keep the accumulator
        break;
      case ReduceKind::kMaxInt64:
        if (v > acc_i[slot]) acc_i[slot] = v;
        break;
      case ReduceKind::kSumDouble:
      case ReduceKind::kNone:
        break;  // unreachable
    }
  }
  std::vector<int32_t> order(slot_key.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return slot_key[a] < slot_key[b];
  });
  out->reserve(out->size() + order.size());
  for (int32_t s : order) {
    if (want_double) {
      out->push_back(MakeRecord(slot_key[s], acc_d[s]));
    } else {
      out->push_back(MakeRecord(slot_key[s], acc_i[s]));
    }
  }
  return true;
}

/// Batched join probe (DESIGN.md §15): when the build index runs in key64
/// mode and the probe side's key extracts to a flat int64 column, hash the
/// probe keys in one pass and resolve all group heads with
/// FindFirstStripe before emitting. Emission order (probe order, chains in
/// arrival order) is identical to the per-record FindFirst loop. Returns
/// false when the shapes don't allow it; the caller probes row by row.
bool StripedJoinProbe(const FlatKeyIndex& index,
                      const std::vector<Record>& build,
                      const std::vector<Record>& probes,
                      const KeyColumns& probe_key, const JoinFn& join_fn,
                      std::vector<Record>* out) {
  if (!index.key64_probe_ready()) return false;
  std::vector<int64_t> keys;
  if (!ExtractKey64(probes, probe_key, &keys)) return false;
  std::vector<uint64_t> hashes(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) hashes[i] = HashInt64Key(keys[i]);
  std::vector<int32_t> first(keys.size());
  index.FindFirstStripe(keys.data(), hashes.data(), keys.size(),
                        first.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    for (int32_t row = first[i]; row >= 0; row = index.Next(row)) {
      out->push_back(join_fn(build[row], probes[i]));
    }
  }
  return true;
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
// Each OpKind's per-partition work, written once. Execute runs a body over
// every partition on the pool; Replay runs the same body over the
// partitions its demand analysis selects. A body writes only its own output
// partition and never counts, charges, or traces: both callers do their own
// accounting around it.

/// What an operator body reads. Execute fills it from fresh shuffles and
/// cache entries, Replay from logged channels and re-scattered inputs.
struct OpInputs {
  /// Input 0: the plain input of a narrow operator, the post-shuffle input
  /// of a keyed one (the join build side, the cogroup left side).
  const PartitionedDataset* a = nullptr;
  /// Input 1: union's second input, the join probe side, the cogroup right
  /// side.
  const PartitionedDataset* b = nullptr;
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
};

/// Computes partition `p` of `node`'s output into `out` (empty on entry).
Status RunBody(const PlanNode& node, const OpInputs& in, int p,
               std::vector<Record>* out) {
  switch (node.kind) {
    case OpKind::kSource:
      break;  // sources are bound views, never run

    case OpKind::kMap:
    case OpKind::kFlatMap: {
      const std::vector<Record>& rows = in.a->partition(p);
      if (node.kind == OpKind::kMap) {
        out->reserve(rows.size());
        for (const Record& r : rows) out->push_back(node.map_fn(r));
      } else {
        for (const Record& r : rows) node.flat_map_fn(r, out);
      }
      break;
    }

    case OpKind::kFilter:
      for (const Record& r : in.a->partition(p)) {
        if (node.filter_fn(r)) out->push_back(r);
      }
      break;

    case OpKind::kProject:
      for (const Record& r : in.a->partition(p)) {
        Record projected;
        projected.reserve(node.project_columns.size());
        for (int col : node.project_columns) {
          if (col < 0 || static_cast<size_t>(col) >= r.size()) {
            return Status::OutOfRange(
                "Project '" + node.name + "': column " + std::to_string(col) +
                " out of range for record " + RecordToString(r));
          }
          projected.push_back(r[col]);
        }
        out->push_back(std::move(projected));
      }
      break;

    case OpKind::kUnion: {
      const std::vector<Record>& a = in.a->partition(p);
      const std::vector<Record>& b = in.b->partition(p);
      out->reserve(a.size() + b.size());
      out->insert(out->end(), a.begin(), a.end());
      out->insert(out->end(), b.begin(), b.end());
      break;
    }

    case OpKind::kCross:
      out->reserve(in.a->partition(p).size() * in.broadcast->size());
      for (const Record& l : in.a->partition(p)) {
        for (const Record& r : *in.broadcast) {
          out->push_back(node.join_fn(l, r));
        }
      }
      break;

    case OpKind::kReduceByKey: {
      const std::vector<Record>& rows = in.a->partition(p);
      if (node.reduce_kind != ReduceKind::kNone &&
          FlatReduceTypedPartition(rows, node.left_key, node.reduce_kind,
                                   node.reduce_value_col, out)) {
        break;
      }
      return FlatReducePartition(rows, node.left_key, node.combine_fn,
                                 in.validate, node.name, out);
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
      out->reserve(heads.size());
      std::vector<Record> group;
      for (int32_t head : heads) {
        group.clear();
        for (int32_t r = head; r >= 0; r = index.Next(r)) {
          group.push_back(rows[r]);
        }
        out->push_back(node.group_reduce_fn(
            ExtractKey(rows[head], node.left_key), group));
      }
      break;
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
      if (StripedJoinProbe(*index, build, probes, node.right_key,
                           node.join_fn, out)) {
        break;
      }
      for (const Record& r : probes) {
        int32_t row =
            index->FindFirst(r, node.right_key, HashKey(r, node.right_key));
        for (; row >= 0; row = index->Next(row)) {
          out->push_back(node.join_fn(build[row], r));
        }
      }
      break;
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
      for (const Record* key : keys) {
        auto lit = lgroups.find(*key);
        auto rit = rgroups.find(*key);
        node.cogroup_fn(*key,
                        lit != lgroups.end() ? lit->second : kEmptyGroup,
                        rit != rgroups.end() ? rit->second : kEmptyGroup,
                        out);
      }
      break;
    }

    case OpKind::kDistinct: {
      // Flat slot map keyed on the whole record; the emitted records double
      // as the dedup table (first occurrence wins).
      const std::vector<Record>& rows = in.a->partition(p);
      FlatSlotMap slots(rows.size());
      for (const Record& r : rows) {
        bool inserted = false;
        slots.FindOrInsert(
            HashRecord(r), [&](int32_t s) { return (*out)[s] == r; },
            &inserted);
        if (inserted) out->push_back(r);
      }
      break;
    }
  }
  return Status::OK();
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

Executor::Executor(ExecOptions options) : options_(options) {
  FLINKLESS_CHECK(options_.num_partitions > 0,
                  "executor needs at least one partition");
  per_partition_args_ = options_.num_partitions <= 8;
  int threads = runtime::ThreadPool::ResolveThreadCount(options_.num_threads);
  if (threads > 1) {
    pool_ = std::make_unique<runtime::ThreadPool>(threads);
  }
}

void Executor::ForEachPartition(int count,
                                const std::function<void(int)>& fn) const {
  CountPoolWork(count);
  runtime::ParallelFor(pool_.get(), count, fn);
}

void Executor::ForEachPartition(const runtime::TraceSpan& parent,
                                const PartitionedDataset* in, int count,
                                const std::function<void(int)>& fn) const {
  CountPoolWork(count);
  if (options_.metrics != nullptr && in != nullptr) {
    // Per-partition operator input records, counted on the orchestration
    // thread so the family exists (with identical values) at any thread
    // count.
    for (int p = 0; p < count; ++p) {
      options_.metrics->Count(runtime::metric::kExecRecords, p,
                              in->partition(p).size());
    }
  }
  std::function<int64_t(int)> records_of;
  if (parent.active() && in != nullptr) {
    records_of = [in](int p) {
      return static_cast<int64_t>(in->partition(p).size());
    };
  }
  runtime::TracedParallelFor(pool_.get(), parent, count, fn, records_of);
}

void Executor::CountPoolWork(int tasks) const {
  if (options_.metrics == nullptr || tasks <= 0) return;
  options_.metrics->Count(runtime::metric::kPoolParallelSections, -1);
  options_.metrics->Count(runtime::metric::kPoolTasks, -1,
                          static_cast<uint64_t>(tasks));
}

void Executor::ObserveBatchRows(const PartitionedDataset& ds) const {
  if (options_.metrics == nullptr) return;
  for (int p = 0; p < ds.num_partitions(); ++p) {
    options_.metrics->Observe(runtime::metric::kHistBatchRows,
                              static_cast<int64_t>(ds.partition(p).size()));
  }
}

void Executor::ChargeCompute(
    const std::vector<uint64_t>& per_partition) const {
  if (options_.clock == nullptr || options_.costs == nullptr) return;
  uint64_t critical = 0;
  for (uint64_t records : per_partition) critical = std::max(critical, records);
  options_.clock->Add(runtime::Charge::kCompute,
                      options_.costs->cpu_per_record_ns *
                          static_cast<int64_t>(critical));
}

void Executor::ChargeCompute(const PartitionedDataset& in) const {
  std::vector<uint64_t> records(in.num_partitions());
  for (int p = 0; p < in.num_partitions(); ++p) {
    records[p] = in.partition(p).size();
  }
  ChargeCompute(records);
}

void Executor::ChargeNetwork(uint64_t messages) const {
  if (options_.clock == nullptr || options_.costs == nullptr) return;
  options_.clock->Add(runtime::Charge::kNetwork,
                      options_.costs->network_per_record_ns *
                          static_cast<int64_t>(messages));
}

template <typename Input>
PartitionedDataset Executor::ShuffleImpl(Input&& input, const KeyColumns& key,
                                         ExecStats* stats) const {
  constexpr bool kMove = !std::is_lvalue_reference_v<Input>;
  const int n = options_.num_partitions;
  const int sources = input.num_partitions();

  // Source sizes, captured up front: compute is charged on them, scatter
  // spans report them, and the move path releases source partitions as
  // soon as they are drained.
  std::vector<uint64_t> in_sizes(sources);
  for (int p = 0; p < sources; ++p) in_sizes[p] = input.partition(p).size();

  // Blocked scatter/gather pipeline: sources are scattered in blocks and
  // each block's outboxes are drained into the output (in source order)
  // before the next block scatters, so peak outbox memory is one block
  // (~half the input) instead of the whole input. Within a target
  // partition records still arrive in global source-partition order, so
  // the result stays byte-identical to the old all-at-once two-phase
  // shuffle — and to a serial single-pass one.
  const int block = sources <= 1 ? 1 : (sources + 1) / 2;

  PartitionedDataset out(n);
  std::vector<uint64_t> moved(sources, 0);
  uint64_t outbox_peak = 0;

  runtime::TraceSpan scatter_span(options_.tracer,
                                  runtime::SpanKind::kShuffleScatter,
                                  "scatter");
  {
    // The gather span nests inside the scatter span (the phases now
    // interleave per block); it must close first.
    runtime::TraceSpan gather_span(options_.tracer,
                                   runtime::SpanKind::kShuffleGather,
                                   "gather");
    for (int base = 0; base < sources; base += block) {
      const int count = std::min(block, sources - base);
      std::vector<std::vector<std::vector<Record>>> outbox(count);

      std::function<int64_t(int)> records_of;
      if (scatter_span.active()) {
        records_of = [&](int i) {
          return static_cast<int64_t>(in_sizes[base + i]);
        };
      }
      CountPoolWork(count);
      runtime::TracedParallelFor(
          pool_.get(), scatter_span, count,
          [&](int i) {
            const int p = base + i;
            auto& boxes = outbox[i];
            boxes.resize(n);
            // Batch scatter (§12): resolve the whole key column to target
            // partitions in one pass, size every outbox exactly, then move
            // — no per-record push_back growth. Record order within each
            // outbox is source order.
            auto& src = input.partition(p);
            std::vector<int32_t> target(src.size());
            std::vector<size_t> counts(n, 0);
            // Single-int64-key shuffles (every hot channel) resolve their
            // targets off the flat key column. PartitionOf is HashKey % n
            // and HashInt64Key is HashKey for this shape, so the targets
            // are identical.
            std::vector<int64_t> key64;
            if (ExtractKey64(src, key, &key64)) {
              for (size_t r = 0; r < src.size(); ++r) {
                const int t = static_cast<int>(HashInt64Key(key64[r]) %
                                               static_cast<uint64_t>(n));
                target[r] = t;
                ++counts[t];
                if (t != p) ++moved[p];
              }
            } else {
              for (size_t r = 0; r < src.size(); ++r) {
                const int t = PartitionedDataset::PartitionOf(src[r], key, n);
                target[r] = t;
                ++counts[t];
                if (t != p) ++moved[p];
              }
            }
            for (int t = 0; t < n; ++t) boxes[t].reserve(counts[t]);
            if constexpr (kMove) {
              for (size_t r = 0; r < src.size(); ++r) {
                boxes[target[r]].push_back(std::move(src[r]));
              }
              input.ReleasePartition(p);
            } else {
              for (size_t r = 0; r < src.size(); ++r) {
                boxes[target[r]].push_back(src[r]);
              }
            }
          },
          records_of, /*partition_offset=*/base);

      uint64_t block_records = 0;
      for (int i = 0; i < count; ++i) block_records += in_sizes[base + i];
      outbox_peak = std::max(outbox_peak, block_records);

      // Drain this block's outboxes, freeing them before the next block
      // scatters (the outbox vector's scope ends with the loop body).
      ForEachPartition(gather_span, nullptr, n, [&](int t) {
        std::vector<Record>& dst = out.partition(t);
        size_t add = 0;
        for (int i = 0; i < count; ++i) add += outbox[i][t].size();
        dst.reserve(dst.size() + add);
        for (int i = 0; i < count; ++i) {
          for (Record& r : outbox[i][t]) dst.push_back(std::move(r));
        }
      });
    }
    if (gather_span.active()) {
      gather_span.AddArg("records", static_cast<int64_t>(out.NumRecords()));
      // Peak records simultaneously buffered in outboxes — a pure function
      // of the input sizes and the (deterministic) block schedule.
      gather_span.AddArg("outbox_peak_records",
                         static_cast<int64_t>(outbox_peak));
    }
  }

  uint64_t total_moved = 0;
  for (uint64_t m : moved) total_moved += m;
  if (options_.metrics != nullptr) {
    // Per-source-partition shuffle fan-out: how many of partition p's
    // records left it for another partition. The counter makes skewed
    // senders visible; the histogram gives the distribution across all
    // shuffles of the run.
    for (int p = 0; p < sources; ++p) {
      options_.metrics->Count(runtime::metric::kShuffleFanout, p, moved[p]);
      options_.metrics->Observe(runtime::metric::kHistShuffleFanout,
                                static_cast<int64_t>(moved[p]));
    }
  }
  if (scatter_span.active()) {
    scatter_span.AddArg("messages", static_cast<int64_t>(total_moved));
    if (per_partition_args_) {
      PartitionKeyBuffer moved_key("moved_p");
      for (int p = 0; p < sources; ++p) {
        scatter_span.AddArg(moved_key.Key(p), static_cast<int64_t>(moved[p]));
      }
    }
  }
  scatter_span.Close();

  ChargeCompute(in_sizes);
  ChargeNetwork(total_moved);
  if (stats != nullptr) stats->messages_shuffled += total_moved;
  return out;
}

PartitionedDataset Executor::Shuffle(const PartitionedDataset& input,
                                     const KeyColumns& key,
                                     ExecStats* stats) const {
  return ShuffleImpl(input, key, stats);
}

PartitionedDataset Executor::Shuffle(PartitionedDataset&& input,
                                     const KeyColumns& key,
                                     ExecStats* stats) const {
  return ShuffleImpl(std::move(input), key, stats);
}

Result<std::map<std::string, PartitionedDataset>> Executor::Execute(
    const Plan& plan, const Bindings& bindings, ExecStats* stats) const {
  FLINKLESS_RETURN_NOT_OK(plan.Validate());
  const int n = options_.num_partitions;

  // Loop-invariant analysis: with a cache attached, a node whose value
  // cannot change between supersteps is served from / stored into it.
  ExecCache* cache = options_.cache;
  std::vector<bool> invariant;
  if (cache != nullptr) {
    cache->EnsurePartitionCount(n);
    invariant = plan.InvariantNodes(cache->volatile_bindings());
  }

  // Outbound message log (DESIGN.md §14): every shuffle of a loop-variant
  // channel is appended post-gather. Variance is computed against the
  // log's own volatile set so logging works with or without a cache, and
  // the logged channel set is identical either way (a static build side
  // served from the cache is invariant, hence never logged).
  runtime::MessageLog* msglog = options_.message_log;
  std::vector<bool> log_variant;
  if (msglog != nullptr) {
    std::vector<bool> log_invariant =
        plan.InvariantNodes(msglog->volatile_bindings());
    log_variant.resize(log_invariant.size());
    for (size_t i = 0; i < log_invariant.size(); ++i) {
      log_variant[i] = !log_invariant[i];
    }
  }
  // Appends a just-shuffled channel of `node` (the shuffled input is plan
  // node `input_node`, arriving on `port` ∈ {in, l, r}).
  auto log_shuffled = [&](const PlanNode& node, NodeId input_node,
                          const char* port,
                          const PartitionedDataset& shuffled) -> Status {
    if (msglog == nullptr || !log_variant[input_node]) return Status::OK();
    return msglog->Append(MsglogChannel(node.id, port), shuffled,
                          options_.tracer);
  };

  ExecStats local_stats;

  // Node results are views over a borrowed source binding, a cache entry,
  // or an executor-owned dataset — sources and cache hits cost no copies
  // (the executor used to deep-copy every source binding per Execute).
  // Reserved up front: views point into their own slots.
  struct Slot {
    PartitionedDataset owned;
    std::shared_ptr<const PartitionedDataset> keepalive;
    const PartitionedDataset* view = nullptr;
    bool is_owned = false;
  };
  std::vector<Slot> slots;
  slots.reserve(plan.num_nodes());
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

  // An executor-owned result is released once its last consumer has run,
  // not at the end of Execute: peak memory drops, and the release runs on
  // the pool inside that consumer's operator span. Plan outputs stay.
  std::vector<NodeId> last_consumer(plan.num_nodes(), -1);
  for (const PlanNode& node : plan.nodes()) {
    for (NodeId idx : node.inputs) last_consumer[idx] = node.id;
  }
  for (const auto& [name, node] : plan.outputs()) last_consumer[node] = -1;
  auto release_dead_inputs = [&](const PlanNode& node) {
    for (NodeId idx : node.inputs) {
      Slot& s = slots[idx];
      if (!s.is_owned || last_consumer[idx] != node.id) continue;
      runtime::ParallelFor(pool_.get(), s.owned.num_partitions(), [&](int p) {
        std::vector<Record>().swap(s.owned.partition(p));
      });
      s.owned = PartitionedDataset();
      s.view = nullptr;
      s.is_owned = false;
    }
  };

  auto count_output = [&](const PlanNode& node,
                          const PartitionedDataset& ds) {
    local_stats.node_output_counts[node.name] += ds.NumRecords();
  };

  // Runs `node`'s body over every partition, one child span of `span` per
  // partition; `traced` supplies their "records" args and the exec.records
  // counts. Failures are checked in partition order after the parallel
  // section, so the reported error is the one serial execution hits first.
  std::vector<Status> part_status(n);
  auto run_body = [&](const PlanNode& node, const runtime::TraceSpan& span,
                      const OpInputs& inputs, const PartitionedDataset* traced)
      -> Result<PartitionedDataset> {
    PartitionedDataset out(n);
    ForEachPartition(span, traced, n, [&](int p) {
      part_status[p] = RunBody(node, inputs, p, &out.partition(p));
    });
    for (const Status& s : part_status) FLINKLESS_RETURN_NOT_OK(s);
    return out;
  };

  // Input `i` of loop-variant `node` when it is a loop-invariant shuffled
  // side: shuffled on `route`'s key on first use and served from the cache
  // after that, port l as role kBuild and port r as kProbe. `*hit` says
  // which; a hit is counted with the records whose shuffle it saved.
  auto cached_side = [&](const PlanNode& node, runtime::TraceSpan& span,
                         const InputRoute& route, size_t i,
                         bool* hit) -> Result<ExecCache::Entry*> {
    const ExecCache::Role role =
        i == 0 ? ExecCache::Role::kBuild : ExecCache::Role::kProbe;
    bool reloaded = false;
    FLINKLESS_ASSIGN_OR_RETURN(
        ExecCache::Entry* e,
        cache->FindResident(node.id, role, options_.tracer, &reloaded));
    *hit = e != nullptr;
    if (*hit) {
      ++local_stats.cache_hits;
      local_stats.records_not_reshuffled += e->data->NumRecords();
      if (span.active()) {
        span.AddArg("cache_hit", 1);
        span.AddArg("reloaded", reloaded ? 1 : 0);
      }
      return e;
    }
    const KeyColumns& key = *route.key;
    PartitionedDataset shuffled =
        Shuffle(input_of(node.inputs[i]), key, &local_stats);
    ExecCache::Entry& entry = cache->Emplace(node.id, role);
    entry.data = std::make_shared<PartitionedDataset>(std::move(shuffled));
    entry.index_key = key;
    if (node.kind == OpKind::kJoin && role == ExecCache::Role::kBuild) {
      // Later supersteps probe the prebuilt per-partition flat index,
      // whose rows are the cached records themselves.
      entry.flat_index.resize(n);
      ForEachPartition(n, [&](int p) {
        entry.flat_index[p].Build(entry.data->partition(p), key);
      });
      ObserveBatchRows(*entry.data);
      for (const FlatKeyIndex& index : entry.flat_index) {
        ObserveProbeChains(options_.metrics, index);
      }
    } else if (node.kind == OpKind::kCoGroup) {
      // Cogroup has no flat index: its UDF sweeps fully materialized groups
      // on both sides at once (DESIGN.md §12), so the side keeps its groups.
      entry.groups.resize(n);
      ForEachPartition(n, [&](int p) {
        entry.groups[p] = GroupByKey(entry.data->partition(p), key);
      });
    }
    FLINKLESS_RETURN_NOT_OK(
        cache->OnEntryFilled(node.id, role, options_.tracer));
    if (span.active()) span.AddArg("cache_build", 1);
    return &entry;
  };

  for (const PlanNode& node : plan.nodes()) {
    const std::vector<InputRoute> routes = InputRoutes(node);
    // One span per operator; per-partition child spans are recorded by the
    // traced ForEachPartition overload below. Input/output record counts
    // land as args when the span closes at the end of this loop body.
    uint64_t span_records_in = 0;
    if (options_.tracer != nullptr) {
      for (int idx : node.inputs) {
        span_records_in += slots[idx].view->NumRecords();
      }
    }
    runtime::TraceSpan op_span(options_.tracer, runtime::SpanKind::kOperator,
                               node.name);

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
                              options_.tracer, &reloaded));
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
      // Every input moves along its route (DESIGN.md §12). The cached
      // loop-invariant sides are looked up first, then the volatile sides
      // are shuffled in port order and logged in port order. Work is
      // counted and charged over the sides that were not cache hits.
      const PartitionedDataset* side[2] = {nullptr, nullptr};
      PartitionedDataset shuffled[2];
      bool cached[2] = {false, false};
      bool hit[2] = {false, false};
      std::vector<Record> broadcast;
      OpInputs inputs;
      inputs.metrics = options_.metrics;
      for (size_t i = 0; i < routes.size(); ++i) {
        if (routes[i].kind != InputRoute::kShuffled || cache == nullptr ||
            invariant[node.id] || !invariant[node.inputs[i]]) {
          continue;
        }
        FLINKLESS_ASSIGN_OR_RETURN(
            ExecCache::Entry* e,
            cached_side(node, op_span, routes[i], i, &hit[i]));
        cached[i] = true;
        side[i] = e->data.get();
        if (!e->flat_index.empty()) inputs.build_index = &e->flat_index;
        if (!e->groups.empty()) {
          (i == 0 ? inputs.a_groups : inputs.b_groups) = &e->groups;
        }
      }
      for (size_t i = 0; i < routes.size(); ++i) {
        if (cached[i]) continue;
        const PartitionedDataset& in = input_of(node.inputs[i]);
        side[i] = &in;
        if (routes[i].kind == InputRoute::kBroadcast) {
          // Every record is replicated to every partition but its own
          // (counted as messages).
          broadcast = in.Collect();
          const uint64_t messages =
              in.NumRecords() * static_cast<uint64_t>(n - 1);
          local_stats.messages_shuffled += messages;
          ChargeNetwork(messages);
          inputs.broadcast = &broadcast;
        } else if (routes[i].kind == InputRoute::kShuffled) {
          if (routes[i].pre_combine) {
            // Local pre-aggregation before the shuffle: fewer messages.
            ObserveBatchRows(in);
            OpInputs local;
            local.a = &in;
            local.validate = false;
            FLINKLESS_ASSIGN_OR_RETURN(PartitionedDataset combined,
                                       run_body(node, op_span, local, &in));
            local_stats.records_processed += in.NumRecords();
            ChargeCompute(in);
            shuffled[i] = Shuffle(std::move(combined), *routes[i].key,
                                  &local_stats);
          } else {
            shuffled[i] = Shuffle(in, *routes[i].key, &local_stats);
          }
          side[i] = &shuffled[i];
        }
      }
      for (size_t i = 0; i < routes.size(); ++i) {
        if (side[i] == &shuffled[i]) {
          FLINKLESS_RETURN_NOT_OK(
              log_shuffled(node, node.inputs[i], routes[i].port, shuffled[i]));
        }
      }
      // Batch sizes of the flat kernels' input side: the reduce input and
      // the join build side (a cached build side is observed when its
      // index is built).
      if (side[0] == &shuffled[0] && node.kind != OpKind::kCoGroup) {
        ObserveBatchRows(shuffled[0]);
      }
      inputs.a = side[0];
      inputs.b = side[1];
      FLINKLESS_ASSIGN_OR_RETURN(
          PartitionedDataset out,
          run_body(node, op_span, inputs, cached[0] ? side[1] : side[0]));
      std::vector<uint64_t> work(n, 0);
      for (size_t i = 0; i < routes.size(); ++i) {
        if (hit[i]) continue;
        local_stats.records_processed += side[i]->NumRecords();
        if (routes[i].kind == InputRoute::kBroadcast) continue;
        for (int p = 0; p < n; ++p) work[p] += side[i]->partition(p).size();
      }
      // Partition p pays for its own records against the whole broadcast
      // side.
      if (inputs.broadcast != nullptr) {
        for (uint64_t& w : work) w *= broadcast.size();
      }
      ChargeCompute(work);
      push_owned(std::move(out));
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
          node.id, ExecCache::Role::kOutput, options_.tracer));
      if (op_span.active()) op_span.AddArg("cache_build", 1);
    }

    count_output(node, *slots.back().view);
    if (op_span.active()) {
      const PartitionedDataset& produced = *slots.back().view;
      op_span.AddArg("records_in", static_cast<int64_t>(span_records_in));
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
    release_dead_inputs(node);
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
  if (options_.metrics != nullptr) {
    // Job-level roll-ups of this Execute, under the canonical v2 names.
    // The per-partition families (exec.records, shuffle.fanout) are
    // recorded at the operator/shuffle sites above. cache.hits appears
    // only once a hit happened, so cache-less runs carry no such family.
    runtime::MetricsSink* m = options_.metrics;
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
// post-shuffle channels (DESIGN.md §14). Two passes:
//
//  1. Backward demand analysis. Each node is demanded at kNone, kLost
//     (only the lost partitions of its output are needed) or kAll, and
//     passes demand to each input by that input's route (InputRoutes). A
//     local input gets the node's demand unchanged. A shuffled input
//     *stops* demand when it is variant (its post-shuffle content is in the
//     log) and is raised to kAll when it is invariant (the side must be
//     recomputed and re-shuffled in full, since any source partition can
//     feed a lost target). A broadcast input — copied everywhere during
//     Execute — is raised to kAll.
//
//  2. Forward pass over the demanded nodes, computing only the demanded
//     partitions with the operator bodies Execute runs (RunBody), so each
//     rebuilt partition is byte-identical to the failed Execute's. The
//     bodies run on the pool; no spans, metrics, or cache entries are
//     touched beyond the one "replay" span and the replay counters.
//
// Everything is charged to Charge::kRecovery: logged messages shipped
// into lost partitions at network rate, recomputed records on the
// critical path at cpu rate. Survivors contribute no charges — they idle
// until the replay completes, exactly the confined-recovery story.
Result<std::map<std::string, PartitionedDataset>> Executor::Replay(
    const Plan& plan, const Bindings& bindings, const std::vector<int>& lost,
    runtime::MessageLog* log, ExecStats* stats) const {
  FLINKLESS_RETURN_NOT_OK(plan.Validate());
  if (log == nullptr) {
    return Status::InvalidArgument("Replay needs a message log");
  }
  const int n = options_.num_partitions;
  std::vector<bool> is_lost(n, false);
  for (int p : lost) {
    if (p >= 0 && p < n) is_lost[p] = true;
  }

  runtime::TraceSpan span(options_.tracer, runtime::SpanKind::kMessageLogReplay,
                          "replay");

  // ---- pass 1: backward demand ----
  enum Demand { kNone = 0, kLost = 1, kAll = 2 };
  std::vector<bool> invariant = plan.InvariantNodes(log->volatile_bindings());
  const int num_nodes = static_cast<int>(plan.num_nodes());
  std::vector<Demand> demand(num_nodes, kNone);
  auto raise = [&](NodeId id, Demand d) {
    if (d > demand[id]) demand[id] = d;
  };
  for (const auto& [name, node_id] : plan.outputs()) raise(node_id, kLost);
  // Node ids are topologically ordered (operators only reference earlier
  // nodes), so one backward sweep settles every demand.
  for (int id = num_nodes - 1; id >= 0; --id) {
    if (demand[id] == kNone) continue;
    const PlanNode& node = plan.node(id);
    const std::vector<InputRoute> routes = InputRoutes(node);
    for (size_t i = 0; i < routes.size(); ++i) {
      const NodeId input = node.inputs[i];
      switch (routes[i].kind) {
        case InputRoute::kLocal:
          raise(input, demand[id]);
          break;
        case InputRoute::kShuffled:
          // A variant input's post-shuffle bytes are a logged channel.
          if (invariant[input]) raise(input, kAll);
          break;
        case InputRoute::kBroadcast:
          raise(input, kAll);
          break;
      }
    }
  }
  // A demanded volatile source would need the failed superstep's *input*
  // state, which the driver has already advanced past. Every plan in
  // src/algos routes volatile data through a shuffle before any output,
  // so this only rejects plans confined-log recovery cannot serve.
  for (int id = 0; id < num_nodes; ++id) {
    const PlanNode& node = plan.node(id);
    if (node.kind == OpKind::kSource && demand[id] != kNone &&
        !invariant[id]) {
      return Status::FailedPrecondition(
          "confined-log replay: plan output depends on volatile source '" +
          node.source_name +
          "' outside any logged shuffle; the plan is not replayable");
    }
  }

  // ---- pass 2: forward execution of demanded partitions ----
  ExecStats local_stats;
  std::vector<uint64_t> replayed_per_part(n, 0);
  const bool charging =
      options_.clock != nullptr && options_.costs != nullptr;
  auto charge_recovery = [&](int64_t ns) {
    if (charging && ns > 0) {
      options_.clock->Add(runtime::Charge::kRecovery, ns);
    }
  };
  auto charge_shipped = [&](uint64_t records) {
    if (charging) {
      charge_recovery(options_.costs->network_per_record_ns *
                      static_cast<int64_t>(records));
    }
  };
  // Recomputation runs on the demanded partitions' workers in parallel in
  // the simulated cluster: charge the slowest one.
  auto charge_compute_critical = [&](const std::vector<uint64_t>& per_part) {
    uint64_t critical = 0;
    for (uint64_t records : per_part) critical = std::max(critical, records);
    if (charging) {
      charge_recovery(options_.costs->cpu_per_record_ns *
                      static_cast<int64_t>(critical));
    }
  };
  auto parts_of = [&](Demand d) {
    std::vector<int> parts;
    for (int p = 0; p < n; ++p) {
      if (d == kAll || (d == kLost && is_lost[p])) parts.push_back(p);
    }
    return parts;
  };

  struct RSlot {
    PartitionedDataset owned;
    const PartitionedDataset* view = nullptr;
  };
  std::vector<RSlot> slots(plan.num_nodes());
  auto input_of = [&](NodeId id) -> const PartitionedDataset& {
    FLINKLESS_CHECK(slots[id].view != nullptr,
                    "replay read an input that was never demanded");
    return *slots[id].view;
  };

  // Runs `node`'s body over `parts` — the same body Execute runs — on the
  // pool, without spans, metrics, or charges (the caller charges).
  auto run_body = [&](const PlanNode& node, const OpInputs& inputs,
                      const std::vector<int>& parts)
      -> Result<PartitionedDataset> {
    PartitionedDataset out(n);
    std::vector<Status> status(parts.size());
    runtime::ParallelFor(pool_.get(), static_cast<int>(parts.size()),
                         [&](int i) {
                           status[i] = RunBody(node, inputs, parts[i],
                                               &out.partition(parts[i]));
                         });
    for (const Status& s : status) FLINKLESS_RETURN_NOT_OK(s);
    return out;
  };

  // Re-ships a recomputed invariant input to the fresh workers: a serial
  // scatter visiting sources in order, so partition contents are
  // byte-identical to ShuffleImpl's gather. Records landing in lost
  // partitions are a recovery charge at network rate.
  auto rescatter = [&](const PartitionedDataset& in, const KeyColumns& key) {
    PartitionedDataset out(n);
    uint64_t shipped = 0;
    for (int p = 0; p < in.num_partitions(); ++p) {
      for (const Record& r : in.partition(p)) {
        const int target = PartitionedDataset::PartitionOf(r, key, n);
        if (is_lost[target]) ++shipped;
        out.partition(target).push_back(r);
      }
    }
    charge_shipped(shipped);
    return out;
  };

  // The shuffled input of a shuffle operator: the logged channel for a
  // variant input (counted as replayed messages; shipping into lost
  // partitions is charged at network rate), or the re-scattered recomputed
  // invariant input — pre-combined first when the reduce asks for it, as
  // Execute does. Returned by value: logged channels live in
  // budget-managed segments, and fetching a later channel may spill an
  // earlier one, so the demanded partitions are copied out while the
  // segment is resident.
  auto shuffled_input = [&](const PlanNode& node, NodeId input,
                            const InputRoute& route)
      -> Result<PartitionedDataset> {
    const KeyColumns& key = *route.key;
    if (invariant[input]) {
      const PartitionedDataset& in = input_of(input);
      if (!route.pre_combine) return rescatter(in, key);
      OpInputs local;
      local.a = &in;
      local.validate = false;
      FLINKLESS_ASSIGN_OR_RETURN(PartitionedDataset combined,
                                 run_body(node, local, parts_of(kAll)));
      local_stats.records_processed += in.NumRecords();
      return rescatter(combined, key);
    }
    FLINKLESS_ASSIGN_OR_RETURN(
        const PartitionedDataset* channel,
        log->Channel(MsglogChannel(node.id, route.port), options_.tracer));
    if (channel->num_partitions() != n) {
      return Status::DataLoss("logged channel '" +
                              MsglogChannel(node.id, route.port) +
                              "' has the wrong partition count");
    }
    PartitionedDataset out(n);
    uint64_t shipped = 0;
    for (int p : parts_of(demand[node.id])) {
      uint64_t records = channel->partition(p).size();
      local_stats.messages_replayed += records;
      replayed_per_part[p] += records;
      if (is_lost[p]) shipped += records;
      out.partition(p) = channel->partition(p);
    }
    charge_shipped(shipped);
    return out;
  };

  for (int id = 0; id < num_nodes; ++id) {
    if (demand[id] == kNone) continue;
    const PlanNode& node = plan.node(id);
    const std::vector<int> parts = parts_of(demand[id]);

    if (node.kind == OpKind::kSource) {
      auto it = bindings.find(node.source_name);
      if (it == bindings.end() || it->second == nullptr) {
        return Status::NotFound("replay: no binding for source '" +
                                node.source_name + "'");
      }
      if (it->second->num_partitions() != n) {
        return Status::InvalidArgument(
            "replay binding '" + node.source_name + "' has " +
            std::to_string(it->second->num_partitions()) +
            " partitions, executor expects " + std::to_string(n));
      }
      slots[id].view = it->second;
      continue;
    }

    const std::vector<InputRoute> routes = InputRoutes(node);
    const PartitionedDataset* side[2] = {nullptr, nullptr};
    PartitionedDataset shuffled[2];  // shuffled inputs, owned here
    std::vector<Record> broadcast;
    OpInputs inputs;
    for (size_t i = 0; i < routes.size(); ++i) {
      switch (routes[i].kind) {
        case InputRoute::kLocal:
          side[i] = &input_of(node.inputs[i]);
          break;
        case InputRoute::kShuffled: {
          FLINKLESS_ASSIGN_OR_RETURN(
              shuffled[i], shuffled_input(node, node.inputs[i], routes[i]));
          side[i] = &shuffled[i];
          break;
        }
        case InputRoute::kBroadcast: {
          broadcast = input_of(node.inputs[i]).Collect();
          inputs.broadcast = &broadcast;
          // Execute broadcast this side everywhere; recovery only re-ships
          // it to the partitions being rebuilt.
          uint64_t lost_targets = 0;
          for (int p : parts) {
            if (is_lost[p]) ++lost_targets;
          }
          charge_shipped(broadcast.size() * lost_targets);
          break;
        }
      }
    }
    inputs.a = side[0];
    inputs.b = side[1];

    FLINKLESS_ASSIGN_OR_RETURN(PartitionedDataset out,
                               run_body(node, inputs, parts));
    std::vector<uint64_t> work(n, 0);
    for (int p : parts) {
      const uint64_t a = inputs.a->partition(p).size();
      if (inputs.broadcast != nullptr) {
        work[p] = a * broadcast.size();
        local_stats.records_processed += a + broadcast.size();
        continue;
      }
      work[p] = a + (inputs.b != nullptr ? inputs.b->partition(p).size() : 0);
      local_stats.records_processed += work[p];
    }
    charge_compute_critical(work);
    slots[id].owned = std::move(out);
    slots[id].view = &slots[id].owned;
  }

  std::map<std::string, PartitionedDataset> outputs;
  for (const auto& [name, node_id] : plan.outputs()) {
    outputs.emplace(name, *slots[node_id].view);
  }

  if (options_.metrics != nullptr) {
    for (int p = 0; p < n; ++p) {
      if (replayed_per_part[p] > 0) {
        options_.metrics->Count(runtime::metric::kMsglogMessagesReplayed, p,
                                replayed_per_part[p]);
      }
    }
  }
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
