// Alternating Least Squares matrix factorization as a bulk-iterative
// dataflow — the collaborative-filtering member of the fixpoint-algorithm
// family the optimistic-recovery work targets (Schelter et al.'s line of
// work treats factorization alongside the graph algorithms; the demo
// paper's §1 motivates with "complex machine learning algorithms").
//
// Model: ratings R (user, item, value) ≈ U · Mᵀ with rank-r factor rows.
// Each superstep runs both half-steps of ALS: solve every user row from the
// current item rows, then every item row from the fresh user rows. Both
// halves are regularized least-squares problems per entity, solved with a
// small dense Cholesky factorization.
//
// A failure destroys the factor rows held by the lost partitions. The
// compensation re-initializes the lost rows deterministically (the same
// seeding rule as at job start); the next half-step immediately re-solves
// them against their surviving counterparts, so the loss costs roughly one
// extra superstep — ALS is naturally self-correcting, which is exactly why
// it sits in the optimistically recoverable class.

#ifndef FLINKLESS_ALGOS_ALS_H_
#define FLINKLESS_ALGOS_ALS_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/compensation.h"
#include "dataflow/plan.h"
#include "iteration/bulk_iteration.h"

namespace flinkless::algos {

/// One observed rating.
struct Rating {
  int64_t user = 0;
  int64_t item = 0;
  double value = 0;
};

/// A synthetic low-rank rating matrix: draws ground-truth factors with
/// entries in [0,1), keeps each (user, item) cell with probability
/// `density`, and adds N(0, noise) to the observed values. Guarantees at
/// least one rating per user and per item (ALS needs every entity
/// observed).
std::vector<Rating> GenerateRatings(int64_t num_users, int64_t num_items,
                                    int rank, double density, double noise,
                                    Rng* rng);

/// Root-mean-squared reconstruction error of the factorization on
/// `ratings`.
double RatingsRmse(const std::vector<Rating>& ratings,
                   const std::vector<std::vector<double>>& user_factors,
                   const std::vector<std::vector<double>>& item_factors);

/// One ALS superstep: solves every user from the item rows of "state"
/// (kind, id, f_0..f_{rank-1}; kind 0 = user, 1 = item) and the "ratings"
/// (user, item, value), then every item from the new user rows. Output
/// "next_state" has the shape of "state".
dataflow::Plan BuildAlsPlan(int rank, double regularization);

/// Deterministic initial factor row for an entity (used for both the
/// initial state and the compensation's re-seeding).
std::vector<double> InitialFactorRow(int64_t entity_id, int rank,
                                     bool is_item);

/// Configuration of an ALS run.
struct AlsOptions {
  int rank = 4;
  double regularization = 0.05;
  int num_partitions = 4;
  /// Executor worker threads (1 = serial, 0 = hardware concurrency).
  int num_threads = 1;
  /// Log every shuffled loop-variant channel of the current superstep to
  /// an outbound message log and expose the confined-log replay hook
  /// (runtime/message_log.h, DESIGN.md §14), enabling
  /// core::ConfinedLogReplayPolicy. Results are byte-identical with the
  /// flag on or off when no failure fires.
  bool message_log = false;
  int max_iterations = 30;
  /// Converged when no factor entry moved more than this between
  /// supersteps.
  double tolerance = 1e-6;
};

/// Compensation for ALS: re-initialize the lost factor rows with the same
/// deterministic seeding used at job start; surviving rows are untouched.
class ReseedFactorsCompensation : public core::CompensationFunction {
 public:
  ReseedFactorsCompensation(int64_t num_users, int64_t num_items, int rank);

  std::string name() const override { return "reseed-factors"; }

  Status Compensate(const iteration::IterationContext& ctx,
                    iteration::IterationState* state,
                    const std::vector<int>& lost) override;

 private:
  int64_t num_users_;
  int64_t num_items_;
  int rank_;
};

/// Outcome of an ALS run.
struct AlsResult {
  /// user_factors[u] / item_factors[i] are rank-sized rows.
  std::vector<std::vector<double>> user_factors;
  std::vector<std::vector<double>> item_factors;
  double rmse = 0;
  int iterations = 0;
  int supersteps_executed = 0;
  bool converged = false;
  int failures_recovered = 0;
};

/// Runs ALS under the given fault-tolerance policy.
Result<AlsResult> RunAls(const std::vector<Rating>& ratings,
                         int64_t num_users, int64_t num_items,
                         const AlsOptions& options, iteration::JobEnv env,
                         iteration::FaultTolerancePolicy* policy);

/// Sequential reference ALS with the same initialization, half-step order
/// and solver — the dataflow version must match it to numerical noise.
AlsResult ReferenceAls(const std::vector<Rating>& ratings, int64_t num_users,
                       int64_t num_items, const AlsOptions& options);

}  // namespace flinkless::algos

#endif  // FLINKLESS_ALGOS_ALS_H_
