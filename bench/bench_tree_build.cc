// Tree-training benchmark for histogram split search (DESIGN.md §11):
//   1. CART and GBDT fit time against row count (split search is
//      O(features * bins) per node; only histogram fills scale with n),
//   2. binning amortization: a cold fit pays for BinnedMatrix::Build once,
//      every warm refit with new example weights reuses it,
//   3. a grid-search run on a histogram GBDT, confirming the tuner's
//      per-clone fits share one binning (tree.bins_reused > 0).
//
// Knobs: OMNIFAIR_BENCH_ROWS (default 30000 — the acceptance scale).

#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/grid_search.h"
#include "core/problem.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"

namespace omnifair {
namespace bench {
namespace {

struct EncodedData {
  Matrix X;
  std::vector<int> y;
};

/// First `n` rows of the encoded synthetic-Adult training matrix.
EncodedData Subset(const Matrix& X, const std::vector<int>& y, size_t n) {
  EncodedData out;
  out.X = Matrix(n, X.cols());
  out.y.assign(y.begin(), y.begin() + n);
  for (size_t i = 0; i < n; ++i) {
    std::copy(X.RowF(i), X.RowF(i) + X.cols(), out.X.RowF(i));
  }
  return out;
}

double TimeFit(Trainer& trainer, const EncodedData& data,
               const std::vector<double>& weights) {
  Stopwatch stopwatch;
  const auto model = trainer.Fit(data.X, data.y, weights);
  OF_CHECK(model != nullptr);
  return stopwatch.ElapsedSeconds();
}

long long BinsReused() {
  return MetricsRegistry::Global().GetCounter("tree.bins_reused")->Value();
}

}  // namespace
}  // namespace bench
}  // namespace omnifair

int main() {
  using namespace omnifair;
  using namespace omnifair::bench;

  InitTelemetryFromEnv();
  const size_t rows = EnvRows(30000);

  BenchReporter reporter("tree_build",
                         "Histogram tree training time and binning reuse");
  reporter.Config("rows", rows);

  SyntheticOptions data_options;
  data_options.num_rows = rows;
  data_options.seed = 11;
  const Dataset data = MakeAdultDataset(data_options);
  auto encoder_helper = MakeTrainer("lr");
  auto problem = FairnessProblem::Create(
      data, data, {MakeSpec(MainGroups("adult"), "sp", 0.05)},
      encoder_helper.get());
  OF_CHECK(problem.ok()) << problem.status();
  const Matrix& X = (*problem)->train_features();
  const std::vector<int>& y = (*problem)->train().labels();
  reporter.Config("features", X.cols());

  // --- 1. fit time against row count ------------------------------------
  PrintHeader("tree build: fit time against rows");
  std::printf("%-6s %8s %12s\n", "family", "rows", "fit_s");
  const std::vector<size_t> sizes = {X.rows() / 4, X.rows() / 2, X.rows()};
  for (size_t n : sizes) {
    if (n < 8) continue;
    const EncodedData subset = Subset(X, y, n);
    const std::vector<double> weights(n, 1.0);

    auto report = [&](const char* family, double seconds) {
      std::printf("%-6s %8zu %12.4f\n", family, n, seconds);
      reporter.AddRow("tree_build")
          .Label("family", family)
          .Value("rows", static_cast<double>(n))
          .Value("fit_seconds", seconds);
    };
    DecisionTreeOptions dt_options;
    dt_options.max_depth = 6;
    DecisionTreeTrainer dt_trainer(dt_options);
    report("dt", TimeFit(dt_trainer, subset, weights));
    GbdtOptions xgb_options;
    xgb_options.num_rounds = 8;
    GbdtTrainer xgb_trainer(xgb_options);
    report("xgb", TimeFit(xgb_trainer, subset, weights));
  }

  // --- 2. binning amortization: cold fit vs warm refits ------------------
  PrintHeader("binning amortization (one trainer, weights change per refit)");
  {
    const EncodedData full = Subset(X, y, X.rows());
    GbdtOptions options;
    options.num_rounds = 8;
    GbdtTrainer trainer(options);

    std::vector<double> weights(full.X.rows(), 1.0);
    const long long reused_before = BinsReused();
    const double cold_seconds = TimeFit(trainer, full, weights);
    // A λ refit: same X, different example weights — binning must be reused.
    for (size_t i = 0; i < weights.size(); ++i) {
      weights[i] = 1.0 + 0.25 * static_cast<double>(i % 5);
    }
    const double warm_seconds = TimeFit(trainer, full, weights);
    const long long reused = BinsReused() - reused_before;

    std::printf("cold fit %.4fs, warm refit %.4fs, bins reused %lld\n",
                cold_seconds, warm_seconds, reused);
    reporter.AddRow("binning_amortization")
        .Label("family", "xgb")
        .Value("rows", static_cast<double>(full.X.rows()))
        .Value("cold_seconds", cold_seconds)
        .Value("warm_seconds", warm_seconds)
        .Value("bins_reused", static_cast<double>(reused));
  }

  // --- 3. grid search on a GBDT shares one binning -----------------------
  PrintHeader("grid search reuse (per-clone fits share the BinningCache)");
  {
    GbdtOptions options;
    options.num_rounds = 4;
    GbdtTrainer trainer(options);
    auto grid_problem = FairnessProblem::Create(
        data, data, {MakeSpec(MainGroups("adult"), "sp", 0.05)}, &trainer);
    OF_CHECK(grid_problem.ok()) << grid_problem.status();

    GridSearchOptions grid_options;
    grid_options.points_per_dim = 5;
    grid_options.max_lambda = 0.4;
    grid_options.num_threads = 4;
    const GridSearchTuner tuner(grid_options);

    const long long reused_before = BinsReused();
    Stopwatch stopwatch;
    const MultiTuneResult result = tuner.Run(**grid_problem);
    const double grid_seconds = stopwatch.ElapsedSeconds();
    const long long reused = BinsReused() - reused_before;

    std::printf("grid: %d models in %.2fs, bins reused %lld (want > 0)\n",
                result.models_trained, grid_seconds, reused);
    reporter.AddRow("grid_reuse")
        .Label("family", "xgb")
        .Value("models_trained", static_cast<double>(result.models_trained))
        .Value("seconds", grid_seconds)
        .Value("bins_reused", static_cast<double>(reused));
  }

  return FinishBench(reporter);
}
