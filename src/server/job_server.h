// JobServer: admits and runs many concurrent iterative jobs on shared
// runtime services, and serves point reads from their states while they
// run — including while a failure is being compensated (DESIGN.md §16).
//
// The paper's system demonstrates optimistic recovery *in action*: jobs
// keep making progress through failures. This subsystem completes the
// story on the serving side — the fixpoint being computed is also the
// fixpoint being queried, so recovery quality becomes visible as read
// availability and staleness, not just as job runtime.
//
// Scheduling: turn-based, on the caller's thread. Each admitted job's
// iteration driver is stepped one turn at a time (SuperstepLoop::Step):
// the first turn runs the job's setup and OnJobStart, each later turn one
// superstep through its epoch hook (iteration/epoch.h), the last one the
// end of the run. Pump() gives one turn to every running job per call,
// round-robin in admission order. Nothing else runs in between, so the
// shared services (SimClock, StableStorage, MemoryManager, views, lookup
// queue) are touched in one deterministic order: same admission order =>
// same turn order => same simulated timeline, answers, and charges at any
// executor thread count. The server is not thread-safe; like Executor, it
// is driven from one thread.
//
// Admission control: a queued job starts only while fewer than
// max_concurrent_jobs run AND the shared MemoryManager's residency is
// within the server budget. The manager is shared across jobs (JobEnv::
// memory), so one job's superstep may spill another job's cold artifacts —
// the per-owner breakdown (MemoryManager::OwnerBreakdown) shows who pays.
//
// Cache reuse: the server keeps one ExecCache slot per dataflow_id,
// attached to the shared manager/storage under "spill/<dataflow_id>/".
// Resubmitting the same dataflow (the same Plan object => the same node
// ids) finds every loop-invariant artifact already built: zero cache
// builds on the re-run. A job whose slot is busy (a live job of the same
// dataflow holds it) falls back to a driver-private cache. The spill-key
// registry (StableStorage::AcquirePrefix) guarantees concurrent owners
// never mix blobs, and Submit rejects duplicate job ids up front.
//
// Reads: EnqueueLookup queues a keyed read; queued reads are served in
// ticket order at deterministic service points — each accepted publish,
// each failure detection (mid-compensation, from the pinned pre-failure
// epoch), and the end of each Pump. Answers carry the observed epoch and
// SimClock-based submit/answer timestamps; each answered read charges one
// record's CPU cost to the shared clock. The synchronous MultiLookup
// answers immediately from materialized view state or reports the cold
// partitions as pending (marking them wanted — the Noria-style upquery).

#ifndef FLINKLESS_SERVER_JOB_SERVER_H_
#define FLINKLESS_SERVER_JOB_SERVER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataflow/exec_cache.h"
#include "dataflow/executor.h"
#include "dataflow/plan.h"
#include "iteration/bulk_iteration.h"
#include "iteration/delta_iteration.h"
#include "iteration/epoch.h"
#include "iteration/policy.h"
#include "iteration/state.h"
#include "runtime/cost_model.h"
#include "runtime/failure.h"
#include "runtime/memory_manager.h"
#include "runtime/metrics.h"
#include "runtime/sim_clock.h"
#include "runtime/stable_storage.h"
#include "runtime/tracing.h"
#include "server/read_view.h"

namespace flinkless::server {

/// Everything needed to run one job. Plans, bound datasets, and the policy
/// are borrowed and must outlive the server; the failure schedule is a
/// per-job copy (each job has its own failure timeline).
struct JobSpec {
  /// Unique for the server's lifetime; Submit rejects duplicates so two
  /// live jobs can never share a spill namespace or a view name.
  std::string job_id;
  /// Cache-slot key: jobs with the same dataflow_id (and the same Plan
  /// object) share loop-invariant artifacts across submissions. Empty =
  /// job_id (no sharing).
  std::string dataflow_id;

  iteration::StateKind kind = iteration::StateKind::kDelta;
  const dataflow::Plan* plan = nullptr;
  dataflow::Bindings bindings;
  /// exec.tracer (optional) traces this job's run.
  dataflow::ExecOptions exec;
  iteration::FaultTolerancePolicy* policy = nullptr;
  runtime::FailureSchedule failures;

  /// Delta jobs (kind == kDelta).
  iteration::DeltaIterationConfig delta;
  std::vector<dataflow::Record> initial_solution;
  dataflow::PartitionedDataset initial_workset;

  /// Bulk jobs (kind == kBulk).
  iteration::BulkIterationConfig bulk;
  dataflow::PartitionedDataset initial_state;
};

struct ServerOptions {
  /// Jobs running concurrently; further submissions queue.
  int max_concurrent_jobs = 2;
  /// Byte budget of the shared MemoryManager (0 = unlimited). Also the
  /// admission gate: while residency exceeds it, queued jobs wait.
  uint64_t memory_budget_bytes = 0;
  /// Simulated cost charged per answered lookup; -1 = the cost model's
  /// cpu_per_record_ns.
  int64_t lookup_cost_ns = -1;
};

/// One answered read.
struct LookupAnswer {
  uint64_t ticket = 0;
  std::string job_id;
  dataflow::Record key;
  bool found = false;
  dataflow::Record record;  // empty unless found
  /// Partition the key routed to.
  int partition = -1;
  /// View epoch the answer observed.
  int epoch = -1;
  /// True when the queried job was mid-recovery (failure detected, not yet
  /// compensated) at answer time — served from the pinned pre-failure epoch.
  bool during_recovery = false;
  int64_t submit_sim_ns = 0;
  int64_t answer_sim_ns = 0;
};

/// Final accounting of one finished job.
struct JobReport {
  std::string job_id;
  Status status;
  bool converged = false;
  int iterations = 0;
  int supersteps_executed = 0;
  int failures_recovered = 0;
  /// The job ran on a cache slot a previous job of the same dataflow
  /// already warmed.
  bool cache_slot_reused = false;
  /// Cache entries built during this job's run on its slot (0 on a warm
  /// resubmit — the zero-rebuild guarantee).
  uint64_t cache_builds = 0;
};

class JobServer {
 public:
  /// `clock`, `costs`, and `storage` are the shared runtime services every
  /// job charges against (borrowed). `tracer`/`metrics` may be null. The
  /// server's tracer records only "server.publish" spans; a job is traced
  /// through its own JobSpec::exec.tracer. A server destroyed mid-run
  /// drops its running jobs: their caches and message logs delete their
  /// spill blobs and release their spill namespaces.
  JobServer(runtime::SimClock* clock, const runtime::CostModel* costs,
            runtime::StableStorage* storage, ServerOptions options,
            runtime::Tracer* tracer = nullptr,
            runtime::MetricsSink* metrics = nullptr);

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Queues a job. Fails with AlreadyExists on a duplicate job id (live or
  /// finished) and InvalidArgument on a malformed spec.
  Status Submit(JobSpec spec);

  /// One scheduling round: admit what fits, step every running job one
  /// turn (admission order), reap finished jobs, serve queued lookups.
  /// Returns true while any job is queued or running.
  bool Pump();

  /// Pumps until every job finished. `max_pumps` guards against a stuck
  /// job (Aborted when exceeded).
  Status RunToCompletion(uint64_t max_pumps = 1'000'000);

  /// Queues a keyed read against `job_id`'s view; returns the ticket. The
  /// answer appears in TakeAnswers() once served (kFound or kMissing) at a
  /// service point; reads of cold partitions wait materialization. A key
  /// whose field count differs from the job's key is InvalidArgument.
  Result<uint64_t> EnqueueLookup(const std::string& job_id,
                                 dataflow::Record key_projection);

  /// Answers served since the last call, in service order.
  std::vector<LookupAnswer> TakeAnswers();

  /// Synchronous read of several keys, all answered from one consistent
  /// epoch. All-or-nothing: any pending partition of a live job fails the
  /// batch with FailedPrecondition (every cold partition is marked wanted
  /// first; retry after the next Pump); for a finished job cold partitions
  /// are materialized on demand from the final state. A key whose field
  /// count differs from the job's key is InvalidArgument.
  Result<std::vector<LookupAnswer>> MultiLookup(
      const std::string& job_id, std::vector<dataflow::Record> keys);

  /// Base-data change hook: drops the dataflow's cached loop-invariant
  /// artifacts so the next submission rebuilds from the new bindings.
  /// FailedPrecondition while a live job holds the slot.
  Status InvalidateDataflow(const std::string& dataflow_id);

  /// Report of a finished job (NotFound until it finishes).
  Result<JobReport> Report(const std::string& job_id) const;

  /// Per-iteration metrics of a job (nullptr for unknown jobs).
  const runtime::MetricsRegistry* job_metrics(const std::string& job_id) const;

  /// Final solution set of a finished delta job (NotFound until then).
  Result<const iteration::SolutionSet*> FinalSolution(
      const std::string& job_id) const;

  runtime::MemoryManager& memory() { return memory_; }

  int num_running() const { return static_cast<int>(running_.size()); }
  int num_queued() const { return static_cast<int>(queued_.size()); }
  uint64_t lookups_answered() const { return lookups_answered_; }
  /// Answers served while the queried job was mid-recovery — the
  /// availability the epoch-pinned views buy (the CI smoke asserts > 0).
  uint64_t answered_during_recovery() const {
    return answered_during_recovery_;
  }

 private:
  struct CacheSlot {
    std::unique_ptr<dataflow::ExecCache> cache;
    iteration::StateKind kind = iteration::StateKind::kDelta;
    bool in_use = false;
    uint64_t jobs_served = 0;
  };

  struct Job {
    JobSpec spec;
    ReadView view;
    runtime::MetricsRegistry metrics;
    /// The driver of spec.kind and the loop it steps, from the job's first
    /// turn until it finishes.
    std::unique_ptr<iteration::DeltaIterationDriver> delta_driver;
    std::unique_ptr<iteration::BulkIterationDriver> bulk_driver;
    iteration::SuperstepLoop* loop = nullptr;

    bool finished = false;
    /// Between kFailureDetected and kRecoveryComplete: reads served from
    /// the pinned epoch count as answered-during-recovery.
    bool in_recovery = false;

    Status run_status;
    iteration::DeltaIterationResult delta_result;
    iteration::BulkIterationResult bulk_result;

    CacheSlot* slot = nullptr;
    bool slot_reused = false;
    uint64_t slot_builds_before = 0;
    /// Builds charged to this job on its slot, settled when it finishes.
    uint64_t cache_builds = 0;

    Job(JobSpec s, int num_partitions)
        : spec(std::move(s)),
          view(spec.kind == iteration::StateKind::kDelta
                   ? spec.delta.solution_key
                   : spec.bulk.state_key,
               num_partitions) {}
  };

  struct PendingLookup {
    uint64_t ticket = 0;
    Job* job = nullptr;
    dataflow::Record key;
    int64_t submit_sim_ns = 0;
    bool counted_deferred = false;
  };

  // Runs `job`'s next turn, creating its driver on the first; false once
  // the job's run is over.
  Result<bool> StepJob(Job* job);
  Result<iteration::SuperstepLoop*> StartJob(Job* job);
  // Settles a job whose run ended with `status`: keeps its result,
  // releases its driver and its cache slot.
  void FinishJob(Job* job, Status status);
  // Epoch-hook target, called inside the job's turn.
  void OnEpochEvent(Job* job, const iteration::EpochInfo& info);

  void Admit();
  void AssignCacheSlot(Job* job);
  void ServeQueuedLookups();
  LookupAnswer Answer(uint64_t ticket, Job* job, const dataflow::Record& key,
                      const ReadView::LookupResult& r, int64_t submit_sim_ns);
  /// Resolves a kPending hit against a finished job's final state; returns
  /// true when the lookup can be retried.
  bool MaterializeForFinished(Job* job, int partition);
  /// InvalidArgument unless `key` has as many fields as `job`'s key.
  static Status CheckKey(const Job& job, const dataflow::Record& key);
  Job* FindJob(const std::string& job_id) const;

  runtime::SimClock* clock_;
  const runtime::CostModel* costs_;
  runtime::StableStorage* storage_;
  ServerOptions options_;
  runtime::Tracer* tracer_;
  runtime::MetricsSink* metrics_;
  runtime::MemoryManager memory_;
  int64_t lookup_cost_ns_;

  /// Declared before jobs_, so that a running job's driver (its cache and
  /// message log) is torn down first and the slots' caches next, all
  /// while the shared memory manager still lives.
  std::map<std::string, CacheSlot> cache_slots_;
  /// All jobs ever submitted, by id (owns them; views and results stay
  /// queryable after finish).
  std::map<std::string, std::unique_ptr<Job>> jobs_;
  std::deque<Job*> queued_;
  /// Admission order — the deterministic turn order.
  std::vector<Job*> running_;

  std::vector<PendingLookup> pending_lookups_;
  std::vector<LookupAnswer> answered_;
  uint64_t next_ticket_ = 1;
  uint64_t lookups_answered_ = 0;
  uint64_t answered_during_recovery_ = 0;
};

}  // namespace flinkless::server

#endif  // FLINKLESS_SERVER_JOB_SERVER_H_
