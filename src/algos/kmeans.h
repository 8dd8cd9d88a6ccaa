// K-Means clustering as a bulk-iterative dataflow — a representative of the
// machine-learning end of the fixpoint-algorithm class the optimistic
// recovery work targets (Schelter et al. CIKM'13 cover ML algorithms next
// to the graph algorithms this demo shows; the demo paper's §1 motivates
// the mechanism with "complex machine learning algorithms").
//
// The iteration state is the centroid set; the (static) input is the point
// cloud. Lloyd's step: assign every point to its nearest centroid, then
// recompute each centroid as the mean of its points. A failure loses the
// centroids held by the failed partitions; the compensation re-seeds the
// lost centroids deterministically from the input points and the iteration
// re-converges (possibly to a different local optimum — the tests check
// clustering cost, not centroid identity).

#ifndef FLINKLESS_ALGOS_KMEANS_H_
#define FLINKLESS_ALGOS_KMEANS_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/compensation.h"
#include "dataflow/plan.h"
#include "iteration/bulk_iteration.h"

namespace flinkless::algos {

/// A 2-D point.
struct Point {
  double x = 0;
  double y = 0;
};

/// `k` Gaussian blobs of `points_per_blob` points each, centers spread on a
/// circle of the given radius. The classic synthetic clustering workload.
std::vector<Point> GenerateBlobs(int k, int points_per_blob,
                                 double center_radius, double stddev,
                                 Rng* rng);

/// Sequential Lloyd's algorithm from the given initial centroids (ground
/// truth / baseline). Runs until centroid movement < tolerance or
/// max_iterations.
std::vector<Point> ReferenceKMeans(const std::vector<Point>& points,
                                   std::vector<Point> centroids,
                                   int max_iterations, double tolerance);

/// Sum of squared distances from each point to its nearest centroid (the
/// k-means objective; lower is better).
double ClusteringCost(const std::vector<Point>& points,
                      const std::vector<Point>& centroids);

/// Deterministic initial centroids: the first k distinct points.
std::vector<Point> InitialCentroids(const std::vector<Point>& points, int k);

/// Builds the Lloyd-step plan. Sources: "state" (centroid_id, x, y) and
/// "points" (point_id, x, y). Output: "next_state". Assignment uses a
/// Cross (every point sees every centroid — k is small), the recompute uses
/// a ReduceByKey per centroid.
dataflow::Plan BuildKMeansPlan();

/// Compensation for K-Means: re-seed each lost centroid from the input
/// points, deterministically (seeded by centroid id), so the iteration can
/// continue. Surviving centroids are untouched.
class ReseedCentroidsCompensation : public core::CompensationFunction {
 public:
  /// `points` is borrowed and must outlive the compensation.
  ReseedCentroidsCompensation(const std::vector<Point>* points,
                              int num_centroids);

  std::string name() const override { return "reseed-centroids"; }

  Status Compensate(const iteration::IterationContext& ctx,
                    iteration::IterationState* state,
                    const std::vector<int>& lost) override;

 private:
  const std::vector<Point>* points_;
  int num_centroids_;
};

/// Configuration of a K-Means run.
struct KMeansOptions {
  int k = 4;
  int num_partitions = 4;
  /// Executor worker threads (1 = serial, 0 = hardware concurrency).
  int num_threads = 1;
  /// Log every shuffled loop-variant channel of the current superstep to
  /// an outbound message log and expose the confined-log replay hook
  /// (runtime/message_log.h, DESIGN.md §14), enabling
  /// core::ConfinedLogReplayPolicy. Results are byte-identical with the
  /// flag on or off when no failure fires.
  bool message_log = false;
  int max_iterations = 100;
  /// Converged when no centroid moved more than this between iterations.
  double tolerance = 1e-9;
};

/// Outcome of a K-Means run.
struct KMeansResult {
  std::vector<Point> centroids;
  double cost = 0;  // final clustering objective
  int iterations = 0;
  int supersteps_executed = 0;
  bool converged = false;
  int failures_recovered = 0;
};

/// Runs K-Means under the given fault-tolerance policy, starting from
/// InitialCentroids(points, k).
Result<KMeansResult> RunKMeans(const std::vector<Point>& points,
                               const KMeansOptions& options,
                               iteration::JobEnv env,
                               iteration::FaultTolerancePolicy* policy);

}  // namespace flinkless::algos

#endif  // FLINKLESS_ALGOS_KMEANS_H_
