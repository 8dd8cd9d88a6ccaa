// Epoch hooks: superstep-boundary callbacks the iteration drivers fire so
// an observer (the job server, DESIGN.md §16) can publish read views with
// read-your-epoch consistency.
//
// Both drivers fire the hook at the same four points of their superstep
// loop (iteration/superstep_loop.h). kJobStart ends the loop's first turn
// and kEpochComplete / kRecoveryComplete end each superstep's turn;
// kFailureDetected fires in the middle of a superstep, which is why the
// hook exists even though the loop is stepped turn by turn. Per superstep
// exactly one of kEpochComplete OR the pair (kFailureDetected, then
// kRecoveryComplete) fires, so a consumer that
// refreshes its view only on kEpochComplete/kRecoveryComplete never
// observes a half-applied delta: between those two events the state is
// either untouched or mid-recovery, and the previous published epoch stays
// pinned.

#ifndef FLINKLESS_ITERATION_EPOCH_H_
#define FLINKLESS_ITERATION_EPOCH_H_

#include <functional>
#include <vector>

namespace flinkless::iteration {

class IterationState;

enum class EpochEvent : int {
  /// OnJobStart ran; `state` is the initial state — epoch 0. A consumer
  /// may publish it as the first readable view.
  kJobStart = 0,
  /// A failure-free superstep fully applied its delta (and the policy's
  /// checkpoint, if any). `state` is consistent at `epoch`.
  kEpochComplete,
  /// A failure fired: the lost partitions were cleared and the exec cache
  /// invalidated, but the policy has not recovered yet. `state` is
  /// INCONSISTENT — consumers must not read it, only note that every
  /// version clock may restart (ReplacePartition semantics, state.h) and
  /// keep serving their previously published epoch.
  kFailureDetected,
  /// The policy's recovery action completed. `state` is consistent again
  /// at `epoch` — which may be EARLIER than previously published epochs
  /// (rollback rewind, restart); deterministic re-execution makes the
  /// re-published epochs content-identical, so consumers may keep a newer
  /// pinned view and skip older publishes.
  kRecoveryComplete,
};

/// What a hook invocation sees. `state` and `lost` are borrowed for the
/// duration of the call only.
struct EpochInfo {
  EpochEvent event = EpochEvent::kEpochComplete;
  /// The epoch `state` corresponds to: the executed superstep for
  /// kEpochComplete, the post-recovery logical iteration for
  /// kRecoveryComplete (the rewind target for rollback, 0 for restart),
  /// the failed superstep for kFailureDetected, 0 for kJobStart.
  int epoch = 0;
  const IterationState* state = nullptr;
  /// Partitions lost (kFailureDetected / kRecoveryComplete only).
  const std::vector<int>* lost = nullptr;
};

/// Fired on the driver's orchestration thread; the driver blocks until it
/// returns, so a hook may safely read `state`.
using EpochHook = std::function<void(const EpochInfo&)>;

}  // namespace flinkless::iteration

#endif  // FLINKLESS_ITERATION_EPOCH_H_
