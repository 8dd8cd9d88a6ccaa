#include "server/job_server.h"

#include <utility>
#include <vector>

#include "common/logging.h"

namespace flinkless::server {

using dataflow::Record;
using iteration::EpochEvent;
using iteration::EpochInfo;
using iteration::StateKind;

JobServer::JobServer(runtime::SimClock* clock, const runtime::CostModel* costs,
                     runtime::StableStorage* storage, ServerOptions options,
                     runtime::Tracer* tracer, runtime::MetricsSink* metrics)
    : clock_(clock),
      costs_(costs),
      storage_(storage),
      options_(options),
      tracer_(tracer),
      metrics_(metrics),
      memory_(options.memory_budget_bytes) {
  FLINKLESS_CHECK(clock_ != nullptr && costs_ != nullptr && storage_ != nullptr,
                  "the job server needs a clock, a cost model, and a storage");
  FLINKLESS_CHECK(options_.max_concurrent_jobs >= 1,
                  "max_concurrent_jobs must be at least 1");
  memory_.set_metrics(metrics_);
  lookup_cost_ns_ = options_.lookup_cost_ns >= 0 ? options_.lookup_cost_ns
                                                 : costs_->cpu_per_record_ns;
}

Status JobServer::Submit(JobSpec spec) {
  if (spec.job_id.empty()) {
    return Status::InvalidArgument("a job needs a non-empty job_id");
  }
  if (spec.plan == nullptr) {
    return Status::InvalidArgument("job '" + spec.job_id + "' has no plan");
  }
  if (spec.policy == nullptr) {
    return Status::InvalidArgument("job '" + spec.job_id + "' has no policy");
  }
  const int n = spec.exec.num_partitions;
  if (n <= 0) {
    return Status::InvalidArgument("job '" + spec.job_id +
                                   "' needs at least one partition");
  }
  if (spec.kind == StateKind::kDelta &&
      spec.initial_workset.num_partitions() != n) {
    return Status::InvalidArgument(
        "job '" + spec.job_id + "': initial workset has " +
        std::to_string(spec.initial_workset.num_partitions()) +
        " partitions, exec options say " + std::to_string(n));
  }
  if (spec.kind == StateKind::kBulk &&
      spec.initial_state.num_partitions() != n) {
    return Status::InvalidArgument(
        "job '" + spec.job_id + "': initial state has " +
        std::to_string(spec.initial_state.num_partitions()) +
        " partitions, exec options say " + std::to_string(n));
  }

  if (jobs_.count(spec.job_id) > 0) {
    // The spill-key registry would catch the namespace collision later
    // with a crash; reject the duplicate id cleanly up front instead
    // (ISSUE: concurrent jobs must never mix blobs).
    return Status::AlreadyExists(
        "job id '" + spec.job_id +
        "' was already submitted; job ids are unique for the server's "
        "lifetime (their spill namespaces and read views collide otherwise)");
  }
  auto job = std::make_unique<Job>(std::move(spec), n);
  Job* raw = job.get();
  jobs_.emplace(raw->spec.job_id, std::move(job));
  queued_.push_back(raw);
  return Status::OK();
}

void JobServer::AssignCacheSlot(Job* job) {
  JobSpec& spec = job->spec;
  const bool wants_cache = spec.kind == StateKind::kDelta
                               ? spec.delta.cache_loop_invariant
                               : spec.bulk.cache_loop_invariant;
  if (!wants_cache || spec.exec.cache != nullptr) return;
  const std::string df =
      spec.dataflow_id.empty() ? spec.job_id : spec.dataflow_id;
  auto it = cache_slots_.find(df);
  if (it != cache_slots_.end() && !it->second.in_use &&
      it->second.kind != spec.kind) {
    // The dataflow changed iteration mode: its volatile bindings differ,
    // so the old artifacts are meaningless. Destroying the slot releases
    // its spill prefix before the replacement re-acquires it.
    cache_slots_.erase(it);
    it = cache_slots_.end();
  }
  if (it == cache_slots_.end()) {
    std::vector<std::string> volatile_bindings;
    if (spec.kind == StateKind::kDelta) {
      volatile_bindings = {spec.delta.workset_binding,
                           spec.delta.solution_binding};
    } else {
      volatile_bindings = {spec.bulk.state_binding};
    }
    CacheSlot slot;
    slot.kind = spec.kind;
    slot.cache =
        std::make_unique<dataflow::ExecCache>(std::move(volatile_bindings));
    slot.cache->set_metrics(metrics_);
    // "spill/<dataflow_id>/" — exclusively owned while the slot lives
    // (StableStorage::AcquirePrefix); segments are tagged with the
    // dataflow id in the shared manager's per-owner breakdown.
    slot.cache->AttachMemoryManager(&memory_, storage_, df);
    it = cache_slots_.emplace(df, std::move(slot)).first;
  }
  CacheSlot& slot = it->second;
  if (slot.in_use) {
    // A live job of the same dataflow holds the slot. The driver falls
    // back to a private cache under "spill/<job_id>/" — safe because live
    // job ids are unique — except in the one corner where this job's id
    // IS the busy namespace; there caching is turned off for the run.
    if (df == spec.job_id) {
      if (spec.kind == StateKind::kDelta) {
        spec.delta.cache_loop_invariant = false;
      } else {
        spec.bulk.cache_loop_invariant = false;
      }
    }
    return;
  }
  slot.in_use = true;
  job->slot = &slot;
  job->slot_reused = slot.jobs_served > 0;
  job->slot_builds_before = slot.cache->builds();
  ++slot.jobs_served;
  spec.exec.cache = slot.cache.get();
}

void JobServer::Admit() {
  // The memory gate never starves an idle server: with nothing running,
  // residency cannot shrink on its own (warm cache slots keep bytes
  // registered), so the head-of-line job is admitted regardless — its
  // first superstep will spill cold artifacts to fit the budget.
  while (!queued_.empty() &&
         static_cast<int>(running_.size()) < options_.max_concurrent_jobs &&
         (running_.empty() || options_.memory_budget_bytes == 0 ||
          memory_.resident_bytes() <= options_.memory_budget_bytes)) {
    Job* job = queued_.front();
    queued_.pop_front();
    AssignCacheSlot(job);
    running_.push_back(job);
    if (metrics_ != nullptr) {
      metrics_->Count(runtime::metric::kServerJobsAdmitted, -1);
    }
  }
}

Result<bool> JobServer::StepJob(Job* job) {
  // The driver is built in the job's first turn, so job setup (driver
  // construction, OnJobStart checkpoints) is serialized like any superstep.
  if (job->loop == nullptr) {
    FLINKLESS_ASSIGN_OR_RETURN(job->loop, StartJob(job));
  }
  return job->loop->Step();
}

Result<iteration::SuperstepLoop*> JobServer::StartJob(Job* job) {
  JobSpec& spec = job->spec;

  iteration::JobEnv env;
  env.clock = clock_;
  env.costs = costs_;
  env.storage = storage_;
  env.metrics = &job->metrics;
  env.failures = &spec.failures;
  env.metrics_sink = metrics_;
  env.memory = &memory_;
  env.job_id = spec.job_id;

  dataflow::ExecOptions exec = spec.exec;
  if (exec.clock == nullptr) exec.clock = clock_;
  if (exec.costs == nullptr) exec.costs = costs_;

  auto hook = [this, job](const EpochInfo& info) { OnEpochEvent(job, info); };
  if (spec.kind == StateKind::kDelta) {
    iteration::DeltaIterationConfig config = spec.delta;
    config.epoch_hook = hook;
    job->delta_driver = std::make_unique<iteration::DeltaIterationDriver>(
        spec.plan, spec.bindings, std::move(config), exec, env);
    return job->delta_driver->Start(std::move(spec.initial_solution),
                                    std::move(spec.initial_workset),
                                    spec.policy);
  }
  iteration::BulkIterationConfig config = spec.bulk;
  config.epoch_hook = hook;
  job->bulk_driver = std::make_unique<iteration::BulkIterationDriver>(
      spec.plan, spec.bindings, std::move(config), exec, env);
  return job->bulk_driver->Start(std::move(spec.initial_state), spec.policy);
}

void JobServer::FinishJob(Job* job, Status status) {
  if (status.ok() && job->delta_driver != nullptr) {
    job->delta_result = job->delta_driver->TakeResult();
  } else if (status.ok()) {
    job->bulk_result = job->bulk_driver->TakeResult();
  }
  job->loop = nullptr;
  job->delta_driver.reset();
  job->bulk_driver.reset();
  job->run_status = std::move(status);
  if (job->slot != nullptr) {
    job->cache_builds = job->slot->cache->builds() - job->slot_builds_before;
    job->slot->in_use = false;
    job->slot = nullptr;
  }
  job->finished = true;
}

void JobServer::OnEpochEvent(Job* job, const EpochInfo& info) {
  if (info.event == EpochEvent::kFailureDetected) {
    // Mid-turn service point: the iteration state is inconsistent, but the
    // view still pins the last published epoch — reads keep flowing while
    // the policy compensates. Recovery may restart partition clocks, so
    // incremental watermarks are dead: full rematerialize next publish.
    job->view.MarkAllDirty();
    job->in_recovery = true;
    ServeQueuedLookups();
    return;
  }
  {
    runtime::TraceSpan span(tracer_, runtime::SpanKind::kServerPublish,
                            job->spec.job_id);
    const bool accepted = job->view.Publish(*info.state, info.epoch);
    if (span.active()) {
      span.AddArg("epoch", info.epoch);
      span.AddArg("accepted", accepted ? 1 : 0);
    }
    if (metrics_ != nullptr) {
      metrics_->Count(accepted ? runtime::metric::kServerPublishes
                               : runtime::metric::kServerPublishesSkipped,
                      -1);
    }
  }
  if (info.event == EpochEvent::kRecoveryComplete) job->in_recovery = false;
  ServeQueuedLookups();
}

bool JobServer::Pump() {
  Admit();
  // running_ is stable inside the loop (admission above, reaping below),
  // so the turn order is exactly the admission order.
  for (Job* job : running_) {
    Result<bool> more = StepJob(job);
    if (!more.ok()) {
      FinishJob(job, more.status());
    } else if (!*more) {
      FinishJob(job, Status::OK());
    }
    if (metrics_ != nullptr) {
      metrics_->Count(runtime::metric::kServerTurns, -1);
    }
  }
  std::erase_if(running_, [](const Job* job) { return job->finished; });
  Admit();  // freed capacity: late jobs get their first turn next pump
  ServeQueuedLookups();
  return !running_.empty() || !queued_.empty();
}

Status JobServer::RunToCompletion(uint64_t max_pumps) {
  uint64_t pumps = 0;
  while (Pump()) {
    if (++pumps > max_pumps) {
      return Status::Aborted("job server exceeded " +
                             std::to_string(max_pumps) +
                             " pumps without draining; stuck job?");
    }
  }
  return Status::OK();
}

Result<uint64_t> JobServer::EnqueueLookup(const std::string& job_id,
                                          Record key_projection) {
  Job* job = FindJob(job_id);
  if (job == nullptr) {
    return Status::NotFound("no job '" + job_id + "' on this server");
  }
  FLINKLESS_RETURN_NOT_OK(CheckKey(*job, key_projection));
  PendingLookup pending;
  const uint64_t ticket = next_ticket_++;
  pending.ticket = ticket;
  pending.job = job;
  pending.key = std::move(key_projection);
  pending.submit_sim_ns = clock_->TotalNs();
  pending_lookups_.push_back(std::move(pending));
  return ticket;
}

std::vector<LookupAnswer> JobServer::TakeAnswers() {
  std::vector<LookupAnswer> out = std::move(answered_);
  answered_.clear();
  return out;
}

Result<std::vector<LookupAnswer>> JobServer::MultiLookup(
    const std::string& job_id, std::vector<Record> keys) {
  Job* job = FindJob(job_id);
  if (job == nullptr) {
    return Status::NotFound("no job '" + job_id + "' on this server");
  }
  for (const Record& key : keys) {
    FLINKLESS_RETURN_NOT_OK(CheckKey(*job, key));
  }
  // First pass: every key must be answerable from the one pinned epoch —
  // all-or-nothing, so the batch can never mix materialization states.
  std::vector<ReadView::LookupResult> hits;
  hits.reserve(keys.size());
  int pending = 0;
  for (const Record& key : keys) {
    ReadView::LookupResult r = job->view.Lookup(key);
    if (r.hit == ReadView::Hit::kPending) {
      if (job->finished && MaterializeForFinished(job, r.partition)) {
        r = job->view.Lookup(key);
      } else {
        ++pending;
      }
    }
    hits.push_back(r);
  }
  if (pending > 0) {
    return Status::FailedPrecondition(
        std::to_string(pending) + " of " + std::to_string(keys.size()) +
        " keys route to partitions of job '" + job_id +
        "' that are not materialized yet (now wanted; retry after the next "
        "Pump)");
  }
  std::vector<LookupAnswer> answers;
  answers.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    answers.push_back(
        Answer(next_ticket_++, job, keys[i], hits[i], clock_->TotalNs()));
  }
  return answers;
}

void JobServer::ServeQueuedLookups() {
  for (auto it = pending_lookups_.begin(); it != pending_lookups_.end();) {
    Job* job = it->job;
    ReadView::LookupResult r = job->view.Lookup(it->key);
    if (r.hit == ReadView::Hit::kPending) {
      if (job->finished && MaterializeForFinished(job, r.partition)) {
        r = job->view.Lookup(it->key);
      } else if (job->finished) {
        // The job died without a final state (e.g. DataLoss under the
        // none-policy): nothing will ever materialize this partition.
        // Answer "missing" from whatever epoch is pinned instead of
        // leaving the ticket queued forever.
        r.hit = ReadView::Hit::kMissing;
      } else {
        if (!it->counted_deferred) {
          it->counted_deferred = true;
          if (metrics_ != nullptr) {
            metrics_->Count(runtime::metric::kServerLookupsDeferred,
                            r.partition);
          }
        }
        ++it;
        continue;
      }
    }
    answered_.push_back(Answer(it->ticket, job, it->key, r, it->submit_sim_ns));
    it = pending_lookups_.erase(it);
  }
}

LookupAnswer JobServer::Answer(uint64_t ticket, Job* job, const Record& key,
                               const ReadView::LookupResult& r,
                               int64_t submit_sim_ns) {
  LookupAnswer answer;
  answer.ticket = ticket;
  answer.job_id = job->spec.job_id;
  answer.key = key;
  answer.found = r.hit == ReadView::Hit::kFound;
  if (answer.found) answer.record = *r.record;
  answer.partition = r.partition;
  answer.epoch = r.epoch;
  answer.during_recovery = job->in_recovery;
  answer.submit_sim_ns = submit_sim_ns;
  clock_->Add(runtime::Charge::kCompute, lookup_cost_ns_);
  answer.answer_sim_ns = clock_->TotalNs();
  ++lookups_answered_;
  if (job->in_recovery) ++answered_during_recovery_;
  if (metrics_ != nullptr) {
    metrics_->Count(runtime::metric::kServerLookups, r.partition);
    if (!answer.found) {
      metrics_->Count(runtime::metric::kServerLookupsMissed, r.partition);
    }
    metrics_->Observe(runtime::metric::kHistLookupLatency,
                      answer.answer_sim_ns - answer.submit_sim_ns);
  }
  return answer;
}

bool JobServer::MaterializeForFinished(Job* job, int partition) {
  if (!job->run_status.ok()) return false;
  if (job->spec.kind == StateKind::kDelta) {
    if (job->delta_result.final_solution.num_partitions() !=
        job->view.num_partitions()) {
      return false;
    }
    job->view.MaterializePartitionFromSolution(
        partition, job->delta_result.final_solution);
    return true;
  }
  if (job->bulk_result.final_state.num_partitions() !=
      job->view.num_partitions()) {
    return false;
  }
  job->view.MaterializePartitionFromBulk(partition,
                                         job->bulk_result.final_state);
  return true;
}

Status JobServer::InvalidateDataflow(const std::string& dataflow_id) {
  auto it = cache_slots_.find(dataflow_id);
  if (it == cache_slots_.end()) return Status::OK();  // nothing cached
  if (it->second.in_use) {
    return Status::FailedPrecondition(
        "dataflow '" + dataflow_id +
        "' has a live job on its cache slot; invalidate after it finishes");
  }
  it->second.cache->Clear();
  it->second.jobs_served = 0;  // the next submission is a cold rebuild
  return Status::OK();
}

Status JobServer::CheckKey(const Job& job, const Record& key) {
  if (key.size() == job.view.key_arity()) return Status::OK();
  return Status::InvalidArgument(
      "a lookup key of job '" + job.spec.job_id + "' has " +
      std::to_string(job.view.key_arity()) + " field(s), not " +
      std::to_string(key.size()));
}

JobServer::Job* JobServer::FindJob(const std::string& job_id) const {
  auto it = jobs_.find(job_id);
  return it != jobs_.end() ? it->second.get() : nullptr;
}

Result<JobReport> JobServer::Report(const std::string& job_id) const {
  Job* job = FindJob(job_id);
  if (job == nullptr) {
    return Status::NotFound("no job '" + job_id + "' on this server");
  }
  if (!job->finished) {
    return Status::NotFound("job '" + job_id + "' has not finished yet");
  }
  JobReport report;
  report.job_id = job_id;
  report.status = job->run_status;
  report.cache_slot_reused = job->slot_reused;
  report.cache_builds = job->cache_builds;
  const iteration::SuperstepLoopResult& run =
      job->spec.kind == StateKind::kDelta
          ? static_cast<const iteration::SuperstepLoopResult&>(
                job->delta_result)
          : job->bulk_result;
  report.converged = run.converged;
  report.iterations = run.iterations;
  report.supersteps_executed = run.supersteps_executed;
  report.failures_recovered = run.failures_recovered;
  return report;
}

const runtime::MetricsRegistry* JobServer::job_metrics(
    const std::string& job_id) const {
  Job* job = FindJob(job_id);
  return job != nullptr ? &job->metrics : nullptr;
}

Result<const iteration::SolutionSet*> JobServer::FinalSolution(
    const std::string& job_id) const {
  Job* job = FindJob(job_id);
  if (job == nullptr) {
    return Status::NotFound("no job '" + job_id + "' on this server");
  }
  if (!job->finished || !job->run_status.ok()) {
    return Status::FailedPrecondition("job '" + job_id +
                                      "' has no final solution (yet)");
  }
  if (job->spec.kind != StateKind::kDelta) {
    return Status::InvalidArgument("job '" + job_id + "' is not a delta job");
  }
  return static_cast<const iteration::SolutionSet*>(
      &job->delta_result.final_solution);
}

}  // namespace flinkless::server
