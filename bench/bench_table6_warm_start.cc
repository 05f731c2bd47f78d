// Reproduces Table 6: the warm-start optimization for LR. Algorithm 1
// retrains across nearby lambda values; initializing each fit from the
// previous solution cuts total Newton iterations. The paper reports
// 1.2x - 3.4x wall-clock speedups across the four datasets.

#include "bench/bench_common.h"

#include "ml/logistic_regression.h"

namespace omnifair {
namespace bench {
namespace {

void Run(BenchReporter& reporter) {
  const int seeds = EnvSeeds(3);
  reporter.Config("seeds", seeds);
  reporter.Config("metric", "sp");
  reporter.Config("epsilon", 0.03);
  PrintHeader("Table 6: warm-start speedup under LR (SP epsilon = 0.03)");
  std::printf("%-10s %16s %16s %10s %14s\n", "dataset", "no warm start(s)",
              "warm start(s)", "speedup", "iter speedup");

  for (const std::string& dataset : {"compas", "adult", "lsac", "bank"}) {
    double cold_seconds = 0.0;
    double warm_seconds = 0.0;
    long long cold_iterations = 0;
    long long warm_iterations = 0;
    for (int s = 0; s < seeds; ++s) {
      const Dataset data = MakeBenchDataset(dataset, 300 + s);
      const TrainValTestSplit split = SplitDefault(data, 400 + s);
      const FairnessSpec spec = MakeSpec(MainGroups(dataset), "sp", 0.03);

      for (const bool warm : {false, true}) {
        LogisticRegressionTrainer trainer;
        OmniFairOptions options;
        options.warm_start = warm;
        OmniFair omnifair(options);
        Stopwatch stopwatch;
        auto fair = omnifair.Train(split.train, split.val, &trainer, {spec});
        const double elapsed = stopwatch.ElapsedSeconds();
        if (!fair.ok()) continue;
        // One representative trajectory per dataset: the warm-start run of
        // the first seed (shows lambda progression alongside iteration cost).
        if (warm && s == 0 && !fair->tune_report.empty()) {
          reporter.AddTrajectory(dataset + " warm", fair->tune_report);
        }
        if (warm) {
          warm_seconds += elapsed;
          warm_iterations += trainer.total_iterations();
        } else {
          cold_seconds += elapsed;
          cold_iterations += trainer.total_iterations();
        }
      }
    }
    std::printf("%-10s %16.2f %16.2f %9.1fx %13.1fx\n", dataset.c_str(),
                cold_seconds / seeds, warm_seconds / seeds,
                warm_seconds > 0 ? cold_seconds / warm_seconds : 0.0,
                warm_iterations > 0
                    ? static_cast<double>(cold_iterations) /
                          static_cast<double>(warm_iterations)
                    : 0.0);
    reporter.AddRow("warm_start")
        .Label("dataset", dataset)
        .Value("cold_seconds", cold_seconds / seeds)
        .Value("warm_seconds", warm_seconds / seeds)
        .Value("speedup",
               warm_seconds > 0 ? cold_seconds / warm_seconds : 0.0)
        .Value("cold_iterations", static_cast<double>(cold_iterations))
        .Value("warm_iterations", static_cast<double>(warm_iterations));
  }
}

}  // namespace
}  // namespace bench
}  // namespace omnifair

int main() {
  omnifair::InitTelemetryFromEnv();
  omnifair::bench::BenchReporter reporter(
      "table6_warm_start",
      "Table 6: warm-start speedup under LR (SP epsilon = 0.03)");
  omnifair::bench::Run(reporter);
  return omnifair::bench::FinishBench(reporter);
}
