#include "algos/kmeans.h"

#include <cmath>
#include <limits>
#include <set>

#include "algos/datasets.h"
#include "common/logging.h"
#include "dataflow/executor.h"

namespace flinkless::algos {

using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Plan;
using dataflow::Record;

std::vector<Point> GenerateBlobs(int k, int points_per_blob,
                                 double center_radius, double stddev,
                                 Rng* rng) {
  std::vector<Point> points;
  points.reserve(static_cast<size_t>(k) * points_per_blob);
  for (int blob = 0; blob < k; ++blob) {
    double angle = 2.0 * M_PI * blob / k;
    double cx = center_radius * std::cos(angle);
    double cy = center_radius * std::sin(angle);
    for (int i = 0; i < points_per_blob; ++i) {
      points.push_back(
          {cx + stddev * rng->NextGaussian(), cy + stddev * rng->NextGaussian()});
    }
  }
  return points;
}

namespace {

double SquaredDistance(const Point& a, const Point& b) {
  double dx = a.x - b.x;
  double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

size_t NearestCentroid(const Point& p, const std::vector<Point>& centroids) {
  size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < centroids.size(); ++c) {
    double d = SquaredDistance(p, centroids[c]);
    if (d < best_dist) {
      best_dist = d;
      best = c;
    }
  }
  return best;
}

}  // namespace

std::vector<Point> ReferenceKMeans(const std::vector<Point>& points,
                                   std::vector<Point> centroids,
                                   int max_iterations, double tolerance) {
  const size_t k = centroids.size();
  for (int iter = 0; iter < max_iterations; ++iter) {
    std::vector<double> sum_x(k, 0), sum_y(k, 0);
    std::vector<int64_t> count(k, 0);
    for (const Point& p : points) {
      size_t c = NearestCentroid(p, centroids);
      sum_x[c] += p.x;
      sum_y[c] += p.y;
      ++count[c];
    }
    double max_move = 0;
    for (size_t c = 0; c < k; ++c) {
      if (count[c] == 0) continue;  // empty cluster keeps its centroid
      Point next{sum_x[c] / count[c], sum_y[c] / count[c]};
      max_move = std::max(max_move,
                          std::sqrt(SquaredDistance(next, centroids[c])));
      centroids[c] = next;
    }
    if (max_move < tolerance) break;
  }
  return centroids;
}

double ClusteringCost(const std::vector<Point>& points,
                      const std::vector<Point>& centroids) {
  double cost = 0;
  for (const Point& p : points) {
    cost += SquaredDistance(p, centroids[NearestCentroid(p, centroids)]);
  }
  return cost;
}

std::vector<Point> InitialCentroids(const std::vector<Point>& points, int k) {
  FLINKLESS_CHECK(static_cast<int>(points.size()) >= k,
                  "need at least k points");
  std::vector<Point> centroids;
  for (const Point& p : points) {
    bool duplicate = false;
    for (const Point& c : centroids) {
      if (c.x == p.x && c.y == p.y) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) centroids.push_back(p);
    if (static_cast<int>(centroids.size()) == k) break;
  }
  FLINKLESS_CHECK(static_cast<int>(centroids.size()) == k,
                  "fewer than k distinct points");
  return centroids;
}

Plan BuildKMeansPlan() {
  Plan plan;
  auto points = plan.Source("points");        // (point_id, x, y)
  auto centroids = plan.Source("state");      // (centroid_id, x, y)

  // Every point meets every centroid (k is small, so the broadcast is
  // cheap): (point_id, centroid_id, dist2, x, y).
  auto candidates = plan.Cross(
      points, centroids,
      [](const Record& p, const Record& c) {
        double dx = p[1].AsDouble() - c[1].AsDouble();
        double dy = p[2].AsDouble() - c[2].AsDouble();
        return MakeRecord(p[0].AsInt64(), c[0].AsInt64(), dx * dx + dy * dy,
                          p[1].AsDouble(), p[2].AsDouble());
      },
      "distance-to-centroids");

  // Keep the nearest centroid per point (ties break toward the smaller
  // centroid id for determinism).
  auto assignment = plan.ReduceByKey(
      candidates, {0},
      [](const Record& a, const Record& b) {
        double da = a[2].AsDouble(), db = b[2].AsDouble();
        if (da != db) return da < db ? a : b;
        return a[1].AsInt64() <= b[1].AsInt64() ? a : b;
      },
      "assign-points");

  // Per-centroid running sums: (centroid_id, sum_x, sum_y, count).
  auto contributions = plan.Map(
      assignment,
      [](const Record& r) {
        return MakeRecord(r[1].AsInt64(), r[3].AsDouble(), r[4].AsDouble(),
                          int64_t{1});
      },
      "centroid-contribution");
  auto sums = plan.ReduceByKey(
      contributions, {0},
      [](const Record& a, const Record& b) {
        return MakeRecord(a[0].AsInt64(), a[1].AsDouble() + b[1].AsDouble(),
                          a[2].AsDouble() + b[2].AsDouble(),
                          a[3].AsInt64() + b[3].AsInt64());
      },
      "recompute-centroids");

  // New centroid = mean of its points; centroids that attracted no point
  // keep their old position (cogroup against the previous state).
  auto next = plan.CoGroup(
      centroids, sums, {0}, {0},
      [](const Record& key, const std::vector<Record>& old_group,
         const std::vector<Record>& sum_group, std::vector<Record>* out) {
        if (!sum_group.empty()) {
          const Record& s = sum_group.front();
          double n = static_cast<double>(s[3].AsInt64());
          out->push_back(MakeRecord(key[0].AsInt64(), s[1].AsDouble() / n,
                                    s[2].AsDouble() / n));
        } else if (!old_group.empty()) {
          out->push_back(old_group.front());
        }
      },
      "keep-or-update");

  plan.Output(next, "next_state");
  return plan;
}

ReseedCentroidsCompensation::ReseedCentroidsCompensation(
    const std::vector<Point>* points, int num_centroids)
    : points_(points), num_centroids_(num_centroids) {
  FLINKLESS_CHECK(points_ != nullptr && !points_->empty(),
                  "reseed-centroids needs the input points");
}

Status ReseedCentroidsCompensation::Compensate(
    const iteration::IterationContext& ctx, iteration::IterationState* state,
    const std::vector<int>& lost) {
  (void)ctx;
  if (state->kind() != iteration::StateKind::kBulk) {
    return Status::InvalidArgument(
        "reseed-centroids compensates bulk iterations only");
  }
  auto* bulk = static_cast<iteration::BulkState*>(state);
  const int parts = bulk->num_partitions();
  std::set<int> lost_set(lost.begin(), lost.end());
  for (int p : lost_set) {
    std::vector<Record>& partition = bulk->data().partition(p);
    partition.clear();
    for (int64_t c = 0; c < num_centroids_; ++c) {
      if (PartitionOfVertex(c, parts) != p) continue;
      // Deterministic reseed: a pseudo-random but reproducible input point.
      const Point& seed =
          (*points_)[static_cast<size_t>(c * 7919 + 13) % points_->size()];
      partition.push_back(MakeRecord(c, seed.x, seed.y));
    }
  }
  return Status::OK();
}

Result<KMeansResult> RunKMeans(const std::vector<Point>& points,
                               const KMeansOptions& options,
                               iteration::JobEnv env,
                               iteration::FaultTolerancePolicy* policy) {
  if (options.k < 1 || static_cast<int>(points.size()) < options.k) {
    return Status::InvalidArgument("k must be in [1, num_points]");
  }
  Plan plan = BuildKMeansPlan();

  std::vector<Record> point_records;
  point_records.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    point_records.push_back(
        MakeRecord(static_cast<int64_t>(i), points[i].x, points[i].y));
  }
  PartitionedDataset point_ds = PartitionedDataset::HashPartitioned(
      std::move(point_records), {0}, options.num_partitions);
  dataflow::Bindings statics;
  statics["points"] = &point_ds;

  std::vector<Point> initial = InitialCentroids(points, options.k);
  std::vector<Record> centroid_records;
  for (int c = 0; c < options.k; ++c) {
    centroid_records.push_back(
        MakeRecord(static_cast<int64_t>(c), initial[c].x, initial[c].y));
  }
  PartitionedDataset initial_state = PartitionedDataset::HashPartitioned(
      std::move(centroid_records), {0}, options.num_partitions);

  iteration::BulkIterationConfig config;
  config.max_iterations = options.max_iterations;
  config.message_log = options.message_log;
  config.state_key = {0};
  const double tolerance = options.tolerance;
  config.convergence = [tolerance](const PartitionedDataset& prev,
                                   const PartitionedDataset& next,
                                   double* metric) {
    std::map<int64_t, Point> old_centroids;
    for (int p = 0; p < prev.num_partitions(); ++p) {
      for (const Record& r : prev.partition(p)) {
        old_centroids[r[0].AsInt64()] = {r[1].AsDouble(), r[2].AsDouble()};
      }
    }
    double max_move = 0;
    for (int p = 0; p < next.num_partitions(); ++p) {
      for (const Record& r : next.partition(p)) {
        auto it = old_centroids.find(r[0].AsInt64());
        if (it == old_centroids.end()) {
          max_move = std::numeric_limits<double>::infinity();
          continue;
        }
        double dx = r[1].AsDouble() - it->second.x;
        double dy = r[2].AsDouble() - it->second.y;
        max_move = std::max(max_move, std::sqrt(dx * dx + dy * dy));
      }
    }
    *metric = max_move;
    return max_move < tolerance;
  };

  dataflow::ExecOptions exec;
  exec.num_partitions = options.num_partitions;
  exec.num_threads = options.num_threads;
  exec.clock = env.clock;
  exec.costs = env.costs;

  iteration::BulkIterationDriver driver(&plan, statics, config, exec, env);
  FLINKLESS_ASSIGN_OR_RETURN(iteration::BulkIterationResult run,
                             driver.Run(std::move(initial_state), policy));

  KMeansResult result;
  result.centroids.assign(options.k, Point{});
  for (const Record& r : run.final_state.Collect()) {
    int64_t c = r[0].AsInt64();
    if (c < 0 || c >= options.k) {
      return Status::Internal("centroid id " + std::to_string(c) +
                              " out of range");
    }
    result.centroids[c] = {r[1].AsDouble(), r[2].AsDouble()};
  }
  result.cost = ClusteringCost(points, result.centroids);
  result.iterations = run.iterations;
  result.supersteps_executed = run.supersteps_executed;
  result.converged = run.converged;
  result.failures_recovered = run.failures_recovered;
  return result;
}

}  // namespace flinkless::algos
