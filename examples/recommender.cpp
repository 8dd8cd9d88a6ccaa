// A small collaborative-filtering recommender built on the ALS dataflow:
// factorize a synthetic rating matrix, survive a mid-training failure via
// the reseed-factors compensation, and print top-N recommendations for a
// few users. Shows the ML side of optimistic recovery end to end.
//
//   ./examples/recommender
//   ./examples/recommender --users=200 --items=100 --rank=6 --fail=5:1

#include <algorithm>
#include <iostream>
#include <set>

#include "algos/als.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/policies.h"
#include "runtime/failure.h"
#include "runtime/metrics.h"

using namespace flinkless;

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kInfo);
  FlagParser flags;
  int64_t* users = flags.Int64("users", 120, "number of users");
  int64_t* items = flags.Int64("items", 60, "number of items");
  int64_t* rank = flags.Int64("rank", 4, "latent factor rank");
  int64_t* partitions = flags.Int64("partitions", 4, "degree of parallelism");
  int64_t* iterations = flags.Int64("iterations", 15, "ALS supersteps");
  double* density = flags.Double("density", 0.15, "observed cell fraction");
  int64_t* seed = flags.Int64("seed", 2026, "data generator seed");
  std::string* fail_spec =
      flags.String("fail", "4:0", "failure schedule iter:parts[;...]");
  std::string* strategy = flags.String(
      "strategy", "optimistic", "optimistic|rollback|restart|none");
  if (auto exit_code = flags.ParseMain(argc, argv)) return *exit_code;

  Rng rng(static_cast<uint64_t>(*seed));
  auto ratings = algos::GenerateRatings(*users, *items,
                                        static_cast<int>(*rank), *density,
                                        /*noise=*/0.05, &rng);
  std::cout << "ratings: " << ratings.size() << " observed cells over "
            << *users << " users x " << *items << " items\n";

  auto failures_or = runtime::FailureSchedule::Parse(*fail_spec);
  if (!failures_or.ok()) {
    std::cerr << failures_or.status() << "\n";
    return 1;
  }
  runtime::FailureSchedule failures = std::move(failures_or).ValueOrDie();

  algos::AlsOptions options;
  options.rank = static_cast<int>(*rank);
  options.num_partitions = static_cast<int>(*partitions);
  options.max_iterations = static_cast<int>(*iterations);

  algos::ReseedFactorsCompensation compensation(*users, *items, options.rank);
  runtime::StableStorage storage(nullptr, nullptr);
  std::unique_ptr<iteration::FaultTolerancePolicy> policy;
  if (*strategy == "optimistic") {
    policy = std::make_unique<core::OptimisticRecoveryPolicy>(&compensation);
  } else if (*strategy == "rollback") {
    policy = std::make_unique<core::CheckpointRollbackPolicy>(2);
  } else if (*strategy == "restart") {
    policy = std::make_unique<core::RestartPolicy>();
  } else if (*strategy == "none") {
    policy = std::make_unique<core::NoFaultTolerancePolicy>();
  } else {
    std::cerr << "unknown strategy '" << *strategy << "'\n";
    return 1;
  }

  runtime::MetricsRegistry metrics;
  iteration::JobEnv env;
  env.metrics = &metrics;
  env.failures = &failures;
  env.storage = &storage;
  env.job_id = "recommender";

  auto model = algos::RunAls(ratings, *users, *items, options, env,
                             policy.get());
  if (!model.ok()) {
    std::cerr << "training failed: " << model.status() << "\n";
    return 1;
  }
  std::cout << "trained in " << model->iterations << " supersteps ("
            << model->failures_recovered << " failures recovered), RMSE "
            << model->rmse << "\n\n";

  // Top-3 unrated items for the first few users.
  std::vector<std::set<int64_t>> rated(*users);
  for (const auto& r : ratings) rated[r.user].insert(r.item);
  TablePrinter table({"user", "top-1", "top-2", "top-3"});
  for (int64_t user = 0; user < std::min<int64_t>(5, *users); ++user) {
    std::vector<std::pair<double, int64_t>> scored;
    for (int64_t item = 0; item < *items; ++item) {
      if (rated[user].count(item) > 0) continue;
      double score = 0;
      for (int f = 0; f < options.rank; ++f) {
        score += model->user_factors[user][f] * model->item_factors[item][f];
      }
      scored.emplace_back(score, item);
    }
    std::sort(scored.rbegin(), scored.rend());
    auto cell = [&](size_t i) {
      if (i >= scored.size()) return std::string("-");
      return "item " + std::to_string(scored[i].second) + " (" +
             FormatDouble(scored[i].first, 3) + ")";
    };
    table.Row()
        .Cell("user " + std::to_string(user))
        .Cell(cell(0))
        .Cell(cell(1))
        .Cell(cell(2));
  }
  table.PrintAscii(std::cout);
  return 0;
}
