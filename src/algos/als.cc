#include "algos/als.h"

#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "algos/datasets.h"
#include "common/hash.h"
#include "common/logging.h"
#include "dataflow/executor.h"

namespace flinkless::algos {

using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Plan;
using dataflow::Record;

namespace {

constexpr int64_t kUserKind = 0;
constexpr int64_t kItemKind = 1;

/// Solves A x = b for a symmetric positive-definite r x r matrix A
/// (row-major) via Cholesky decomposition. Returns false when A is not
/// positive definite (cannot happen with regularization > 0, but checked).
bool SolveSpd(std::vector<double> a, std::vector<double> b,
              std::vector<double>* x) {
  const size_t r = b.size();
  // In-place Cholesky: A = L Lᵀ, L stored in the lower triangle.
  for (size_t i = 0; i < r; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a[i * r + j];
      for (size_t k = 0; k < j; ++k) sum -= a[i * r + k] * a[j * r + k];
      if (i == j) {
        if (sum <= 0) return false;
        a[i * r + i] = std::sqrt(sum);
      } else {
        a[i * r + j] = sum / a[j * r + j];
      }
    }
  }
  // Forward substitution: L y = b.
  for (size_t i = 0; i < r; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= a[i * r + k] * b[k];
    b[i] = sum / a[i * r + i];
  }
  // Back substitution: Lᵀ x = y.
  x->assign(r, 0.0);
  for (size_t i = r; i-- > 0;) {
    double sum = b[i];
    for (size_t k = i + 1; k < r; ++k) sum -= a[k * r + i] * (*x)[k];
    (*x)[i] = sum / a[i * r + i];
  }
  return true;
}

/// The regularized least-squares solve shared by both half-steps: given
/// the counterpart rows and observed values of one entity, produce its new
/// factor row. Rows arrive as (entity, value, f_0..f_{r-1}) records.
Record SolveEntity(int64_t kind, const Record& key,
                   const std::vector<Record>& observations, int rank,
                   double regularization) {
  std::vector<double> a(static_cast<size_t>(rank) * rank, 0.0);
  std::vector<double> b(rank, 0.0);
  for (const Record& obs : observations) {
    double value = obs[1].AsDouble();
    for (int i = 0; i < rank; ++i) {
      double fi = obs[2 + i].AsDouble();
      b[i] += value * fi;
      for (int j = 0; j <= i; ++j) {
        a[i * rank + j] += fi * obs[2 + j].AsDouble();
      }
    }
  }
  // Symmetrize and regularize: A += λ·n·I (the weighted-λ ALS variant).
  double ridge = regularization * static_cast<double>(observations.size());
  for (int i = 0; i < rank; ++i) {
    for (int j = i + 1; j < rank; ++j) a[i * rank + j] = a[j * rank + i];
    a[i * rank + i] += ridge;
  }
  std::vector<double> row;
  bool ok = SolveSpd(std::move(a), std::move(b), &row);
  FLINKLESS_CHECK(ok, "ALS normal equations not positive definite");
  Record out = MakeRecord(kind, key[0].AsInt64());
  for (double f : row) out.emplace_back(f);
  return out;
}

}  // namespace

Plan BuildAlsPlan(int rank, double regularization) {
  Plan plan;
  auto state = plan.Source("state");      // (kind, id, f_0..f_{r-1})
  auto ratings = plan.Source("ratings");  // (user, item, value)

  // ---- half-step 1: users from the current item rows ----
  auto item_rows = plan.Filter(
      state,
      [](const Record& r) { return r[0].AsInt64() == kItemKind; },
      "item-rows");
  auto user_observations = plan.Join(
      ratings, item_rows, {1}, {1},
      [rank](const Record& rating, const Record& item) {
        Record out = MakeRecord(rating[0].AsInt64(), rating[2].AsDouble());
        for (int f = 0; f < rank; ++f) out.push_back(item[2 + f]);
        return out;
      },
      "gather-item-rows");
  auto new_users = plan.GroupReduceByKey(
      user_observations, {0},
      [rank, regularization](const Record& key,
                             const std::vector<Record>& group) {
        return SolveEntity(kUserKind, key, group, rank, regularization);
      },
      "solve-users");

  // ---- half-step 2: items from the freshly solved user rows ----
  auto item_observations = plan.Join(
      ratings, new_users, {0}, {1},
      [rank](const Record& rating, const Record& user) {
        Record out = MakeRecord(rating[1].AsInt64(), rating[2].AsDouble());
        for (int f = 0; f < rank; ++f) out.push_back(user[2 + f]);
        return out;
      },
      "gather-user-rows");
  auto new_items = plan.GroupReduceByKey(
      item_observations, {0},
      [rank, regularization](const Record& key,
                             const std::vector<Record>& group) {
        return SolveEntity(kItemKind, key, group, rank, regularization);
      },
      "solve-items");

  // Re-co-partition by the state key (kind, id) so the feedback edge hands
  // the driver a correctly partitioned state.
  auto combined = plan.Union(new_users, new_items, "factors");
  auto next = plan.ReduceByKey(
      combined, {0, 1}, [](const Record& a, const Record&) { return a; },
      "materialize-state");
  plan.Output(next, "next_state");
  return plan;
}

namespace {

std::map<std::pair<int64_t, int64_t>, std::vector<double>> RowsByEntity(
    const PartitionedDataset& state, int rank) {
  std::map<std::pair<int64_t, int64_t>, std::vector<double>> rows;
  for (int p = 0; p < state.num_partitions(); ++p) {
    for (const Record& r : state.partition(p)) {
      std::vector<double> row(rank);
      for (int f = 0; f < rank; ++f) row[f] = r[2 + f].AsDouble();
      rows[{r[0].AsInt64(), r[1].AsInt64()}] = std::move(row);
    }
  }
  return rows;
}

}  // namespace

std::vector<Rating> GenerateRatings(int64_t num_users, int64_t num_items,
                                    int rank, double density, double noise,
                                    Rng* rng) {
  FLINKLESS_CHECK(num_users > 0 && num_items > 0 && rank > 0,
                  "bad ratings-generator arguments");
  // Ground-truth factors with uniform [0,1) entries.
  std::vector<std::vector<double>> u(num_users, std::vector<double>(rank));
  std::vector<std::vector<double>> m(num_items, std::vector<double>(rank));
  for (auto& row : u) {
    for (double& f : row) f = rng->NextDouble();
  }
  for (auto& row : m) {
    for (double& f : row) f = rng->NextDouble();
  }
  auto truth = [&](int64_t user, int64_t item) {
    double dot = 0;
    for (int f = 0; f < rank; ++f) dot += u[user][f] * m[item][f];
    return dot + noise * rng->NextGaussian();
  };

  std::set<std::pair<int64_t, int64_t>> cells;
  // Every user and every item observed at least once.
  for (int64_t user = 0; user < num_users; ++user) {
    cells.emplace(user, user % num_items);
  }
  for (int64_t item = 0; item < num_items; ++item) {
    cells.emplace(item % num_users, item);
  }
  for (int64_t user = 0; user < num_users; ++user) {
    for (int64_t item = 0; item < num_items; ++item) {
      if (rng->NextBernoulli(density)) cells.emplace(user, item);
    }
  }
  std::vector<Rating> ratings;
  ratings.reserve(cells.size());
  for (auto [user, item] : cells) {
    ratings.push_back({user, item, truth(user, item)});
  }
  return ratings;
}

double RatingsRmse(const std::vector<Rating>& ratings,
                   const std::vector<std::vector<double>>& user_factors,
                   const std::vector<std::vector<double>>& item_factors) {
  if (ratings.empty()) return 0;
  double sum = 0;
  for (const Rating& r : ratings) {
    const auto& u = user_factors[r.user];
    const auto& m = item_factors[r.item];
    double dot = 0;
    for (size_t f = 0; f < u.size(); ++f) dot += u[f] * m[f];
    double err = dot - r.value;
    sum += err * err;
  }
  return std::sqrt(sum / static_cast<double>(ratings.size()));
}

std::vector<double> InitialFactorRow(int64_t entity_id, int rank,
                                     bool is_item) {
  std::vector<double> row(rank);
  for (int f = 0; f < rank; ++f) {
    uint64_t h = Mix64(static_cast<uint64_t>(entity_id) * 2654435761ULL +
                       static_cast<uint64_t>(f) * 40503ULL +
                       (is_item ? 0x9e3779b9ULL : 0));
    // Uniform in [0.1, 1.1): strictly positive keeps the first normal
    // equations well conditioned.
    row[f] = 0.1 + static_cast<double>(h >> 11) * 0x1.0p-53;
  }
  return row;
}

ReseedFactorsCompensation::ReseedFactorsCompensation(int64_t num_users,
                                                     int64_t num_items,
                                                     int rank)
    : num_users_(num_users), num_items_(num_items), rank_(rank) {}

Status ReseedFactorsCompensation::Compensate(
    const iteration::IterationContext& ctx, iteration::IterationState* state,
    const std::vector<int>& lost) {
  (void)ctx;
  if (state->kind() != iteration::StateKind::kBulk) {
    return Status::InvalidArgument(
        "reseed-factors compensates bulk iterations only");
  }
  auto* bulk = static_cast<iteration::BulkState*>(state);
  const int parts = bulk->num_partitions();
  std::set<int> lost_set(lost.begin(), lost.end());
  for (int p : lost_set) bulk->data().ClearPartition(p);

  auto reseed = [&](int64_t kind, int64_t count) {
    for (int64_t id = 0; id < count; ++id) {
      Record key = MakeRecord(kind, id);
      int p = PartitionedDataset::PartitionOf(key, {0, 1}, parts);
      if (lost_set.count(p) == 0) continue;
      Record row = MakeRecord(kind, id);
      for (double f : InitialFactorRow(id, rank_, kind == kItemKind)) {
        row.emplace_back(f);
      }
      bulk->data().partition(p).push_back(std::move(row));
    }
  };
  reseed(kUserKind, num_users_);
  reseed(kItemKind, num_items_);
  return Status::OK();
}

Result<AlsResult> RunAls(const std::vector<Rating>& ratings,
                         int64_t num_users, int64_t num_items,
                         const AlsOptions& options, iteration::JobEnv env,
                         iteration::FaultTolerancePolicy* policy) {
  if (num_users < 1 || num_items < 1 || ratings.empty()) {
    return Status::InvalidArgument("ALS needs users, items and ratings");
  }
  for (const Rating& r : ratings) {
    if (r.user < 0 || r.user >= num_users || r.item < 0 ||
        r.item >= num_items) {
      return Status::OutOfRange("rating references unknown user/item");
    }
  }

  Plan plan = BuildAlsPlan(options.rank, options.regularization);

  std::vector<Record> rating_records;
  rating_records.reserve(ratings.size());
  for (const Rating& r : ratings) {
    rating_records.push_back(MakeRecord(r.user, r.item, r.value));
  }
  PartitionedDataset rating_ds = PartitionedDataset::HashPartitioned(
      std::move(rating_records), {0}, options.num_partitions);
  dataflow::Bindings statics;
  statics["ratings"] = &rating_ds;

  std::vector<Record> initial_rows;
  auto seed_rows = [&](int64_t kind, int64_t count) {
    for (int64_t id = 0; id < count; ++id) {
      Record row = MakeRecord(kind, id);
      for (double f :
           InitialFactorRow(id, options.rank, kind == kItemKind)) {
        row.emplace_back(f);
      }
      initial_rows.push_back(std::move(row));
    }
  };
  seed_rows(kUserKind, num_users);
  seed_rows(kItemKind, num_items);
  PartitionedDataset initial = PartitionedDataset::HashPartitioned(
      std::move(initial_rows), {0, 1}, options.num_partitions);

  iteration::BulkIterationConfig config;
  config.max_iterations = options.max_iterations;
  config.message_log = options.message_log;
  config.state_key = {0, 1};
  const int rank = options.rank;
  const double tolerance = options.tolerance;
  config.convergence = [rank, tolerance](const PartitionedDataset& prev,
                                         const PartitionedDataset& next,
                                         double* metric) {
    auto old_rows = RowsByEntity(prev, rank);
    double max_move = 0;
    for (int p = 0; p < next.num_partitions(); ++p) {
      for (const Record& r : next.partition(p)) {
        auto it = old_rows.find({r[0].AsInt64(), r[1].AsInt64()});
        if (it == old_rows.end()) {
          max_move = std::numeric_limits<double>::infinity();
          continue;
        }
        for (int f = 0; f < rank; ++f) {
          max_move = std::max(max_move,
                              std::abs(r[2 + f].AsDouble() - it->second[f]));
        }
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
                             driver.Run(std::move(initial), policy));

  AlsResult result;
  result.user_factors.assign(num_users, std::vector<double>(rank, 0.0));
  result.item_factors.assign(num_items, std::vector<double>(rank, 0.0));
  for (const auto& [key, row] : RowsByEntity(run.final_state, rank)) {
    auto [kind, id] = key;
    if (kind == kUserKind && id >= 0 && id < num_users) {
      result.user_factors[id] = row;
    } else if (kind == kItemKind && id >= 0 && id < num_items) {
      result.item_factors[id] = row;
    } else {
      return Status::Internal("unexpected factor row in final state");
    }
  }
  result.rmse =
      RatingsRmse(ratings, result.user_factors, result.item_factors);
  result.iterations = run.iterations;
  result.supersteps_executed = run.supersteps_executed;
  result.converged = run.converged;
  result.failures_recovered = run.failures_recovered;
  return result;
}

AlsResult ReferenceAls(const std::vector<Rating>& ratings, int64_t num_users,
                       int64_t num_items, const AlsOptions& options) {
  const int rank = options.rank;
  std::vector<std::vector<double>> users(num_users);
  std::vector<std::vector<double>> items(num_items);
  for (int64_t u = 0; u < num_users; ++u) {
    users[u] = InitialFactorRow(u, rank, false);
  }
  for (int64_t i = 0; i < num_items; ++i) {
    items[i] = InitialFactorRow(i, rank, true);
  }

  std::vector<std::vector<const Rating*>> by_user(num_users);
  std::vector<std::vector<const Rating*>> by_item(num_items);
  for (const Rating& r : ratings) {
    by_user[r.user].push_back(&r);
    by_item[r.item].push_back(&r);
  }

  auto solve = [&](const std::vector<const Rating*>& observations,
                   const std::vector<std::vector<double>>& counterpart,
                   bool counterpart_is_item) {
    std::vector<double> a(static_cast<size_t>(rank) * rank, 0.0);
    std::vector<double> b(rank, 0.0);
    for (const Rating* r : observations) {
      const auto& row =
          counterpart[counterpart_is_item ? r->item : r->user];
      for (int i = 0; i < rank; ++i) {
        b[i] += r->value * row[i];
        for (int j = 0; j <= i; ++j) a[i * rank + j] += row[i] * row[j];
      }
    }
    double ridge =
        options.regularization * static_cast<double>(observations.size());
    for (int i = 0; i < rank; ++i) {
      for (int j = i + 1; j < rank; ++j) a[i * rank + j] = a[j * rank + i];
      a[i * rank + i] += ridge;
    }
    std::vector<double> row;
    bool ok = SolveSpd(std::move(a), std::move(b), &row);
    FLINKLESS_CHECK(ok, "reference ALS normal equations not PD");
    return row;
  };

  AlsResult result;
  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    double max_move = 0;
    for (int64_t u = 0; u < num_users; ++u) {
      auto next = solve(by_user[u], items, /*counterpart_is_item=*/true);
      for (int f = 0; f < rank; ++f) {
        max_move = std::max(max_move, std::abs(next[f] - users[u][f]));
      }
      users[u] = std::move(next);
    }
    for (int64_t i = 0; i < num_items; ++i) {
      auto next = solve(by_item[i], users, /*counterpart_is_item=*/false);
      for (int f = 0; f < rank; ++f) {
        max_move = std::max(max_move, std::abs(next[f] - items[i][f]));
      }
      items[i] = std::move(next);
    }
    if (max_move < options.tolerance) {
      result.converged = true;
      ++iter;
      break;
    }
  }
  result.user_factors = std::move(users);
  result.item_factors = std::move(items);
  result.rmse =
      RatingsRmse(ratings, result.user_factors, result.item_factors);
  result.iterations = iter;
  result.supersteps_executed = iter;
  return result;
}

}  // namespace flinkless::algos
