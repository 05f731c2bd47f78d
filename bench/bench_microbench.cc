// Google-benchmark microbenchmarks for the kernels every experiment leans
// on: example-weight computation (Eq. 12), fairness-part evaluation, and
// one Fit per model family. These quantify the claim that OmniFair's
// per-lambda overhead is dominated by the black-box Fit itself — the
// declarative layer adds microseconds.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <type_traits>

#include "bench/bench_common.h"
#include "core/problem.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "linalg/vector_ops.h"
#include "ml/binning.h"

namespace omnifair {
namespace bench {
namespace {

struct MicroFixture {
  Dataset data;
  TrainValTestSplit split;
  std::unique_ptr<Trainer> trainer;
  std::unique_ptr<FairnessProblem> problem;

  explicit MicroFixture(const std::string& trainer_name) {
    SyntheticOptions options;
    options.num_rows = 4000;
    options.seed = 7;
    data = MakeCompasDataset(options);
    split = SplitDefault(data, 3);
    trainer = MakeTrainer(trainer_name);
    auto created = FairnessProblem::Create(
        split.train, split.val,
        {MakeSpec(MainGroups("compas"), "sp", 0.03)}, trainer.get());
    problem = std::move(*created);
  }
};

void BM_Dot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> a(n);
  std::vector<double> b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = 0.25 + static_cast<double>(i % 31);
    b[i] = 1.5 - static_cast<double>(i % 17);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(a, b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Dot)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Axpy(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> a(n, 0.0);
  std::vector<double> b(n);
  for (size_t i = 0; i < n; ++i) b[i] = 1.0 + static_cast<double>(i % 13);
  for (auto _ : state) {
    Axpy(1e-9, b, &a);
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Axpy)->Arg(64)->Arg(1024)->Arg(16384);

// Float32-storage variants of the two arithmetic kernels: float feature
// data widened per lane against double coefficients (the mixed-precision
// path the float32 feature matrix uses).
void BM_DotF32(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> a(n);
  std::vector<double> b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = 0.25f + static_cast<float>(i % 31);
    b[i] = 1.5 - static_cast<double>(i % 17);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::DotF32(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_DotF32)->Arg(64)->Arg(1024)->Arg(16384);

void BM_AxpyF32(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> a(n, 0.0);
  std::vector<float> b(n);
  for (size_t i = 0; i < n; ++i) b[i] = 1.0f + static_cast<float>(i % 13);
  const simd::Kernels& kernels = simd::Active();
  for (auto _ : state) {
    kernels.axpy_f32(1e-9, b.data(), a.data(), n);
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_AxpyF32)->Arg(64)->Arg(1024)->Arg(16384);

// Batched sigmoid over a margin buffer — the kernel behind blocked predict.
// Applying it in place repeatedly keeps every pass a full exp workload
// (values settle into (0, 1), still on the polynomial's main path).
void BM_Sigmoid(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = -8.0 + 16.0 * static_cast<double>(i % 97) / 96.0;
  }
  for (auto _ : state) {
    SigmoidInPlace(v.data(), n);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Sigmoid)->Arg(64)->Arg(1024)->Arg(16384);

// The LR/MLP inner product: one dense row-major mat-vec into a reused
// buffer, over a raw buffer of element type T. The float instantiation is
// the feature-matrix layout Matrix stores; the double one is the storage
// width it replaced, kept as the bandwidth comparison.
template <typename T>
void MatVecBench(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t cols = static_cast<size_t>(state.range(1));
  std::vector<T> m(rows * cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m[r * cols + c] = static_cast<T>(
          static_cast<double>((r * 1315423911u + c * 2654435761u) % 1000) / 499.5 - 1.0);
    }
  }
  std::vector<double> x(cols);
  for (size_t c = 0; c < cols; ++c) x[c] = 0.5 - static_cast<double>(c % 7) / 7.0;
  std::vector<double> y(rows);
  const simd::Kernels& k = simd::Active();
  for (auto _ : state) {
    for (size_t r = 0; r < rows; ++r) {
      if constexpr (std::is_same_v<T, float>) {
        y[r] = k.dot_f32(m.data() + r * cols, x.data(), cols);
      } else {
        y[r] = k.dot(m.data() + r * cols, x.data(), cols);
      }
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows * cols));
}

void BM_MatVec(benchmark::State& state) { MatVecBench<double>(state); }
BENCHMARK(BM_MatVec)->Args({1024, 64})->Args({4096, 128});

void BM_MatVecF32(benchmark::State& state) { MatVecBench<float>(state); }
BENCHMARK(BM_MatVecF32)->Args({1024, 64})->Args({4096, 128});

// Per-node histogram accumulation (the tree-training hot loop): every row of
// a 16-feature binned matrix scattered into per-bin accumulators.
void BM_HistAccumulate(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t cols = 16;
  Matrix X(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      X.Set(r, c, static_cast<double>((r * 2654435761u + c * 40503u) % 977));
    }
  }
  auto binned = BinnedMatrix::Build(X, 64, 1);
  std::vector<size_t> samples(rows);
  for (size_t i = 0; i < rows; ++i) samples[i] = i;
  std::vector<double> grad(rows), hess(rows);
  for (size_t i = 0; i < rows; ++i) {
    grad[i] = -0.5 + static_cast<double>(i % 11) / 11.0;
    hess[i] = 0.1 + static_cast<double>(i % 5) / 5.0;
  }
  NodeHistogram hist;
  for (auto _ : state) {
    FillNodeHistogram(*binned, samples, grad.data(), hess.data(), 1, &hist);
    benchmark::DoNotOptimize(hist.first.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows * cols));
}
BENCHMARK(BM_HistAccumulate)->Arg(4096)->Arg(32768);

void BM_WeightComputation(benchmark::State& state) {
  MicroFixture fx("lr");
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.problem->weight_computer().Compute(0.05, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.split.train.NumRows()));
}
BENCHMARK(BM_WeightComputation);

void BM_FairnessPartEvaluation(benchmark::State& state) {
  MicroFixture fx("lr");
  auto model = fx.problem->FitWithLambdas({0.0}, nullptr);
  const std::vector<int> preds = fx.problem->PredictVal(*model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.problem->val_evaluator().FairnessPart(0, preds));
  }
}
BENCHMARK(BM_FairnessPartEvaluation);

void BM_FitModel(benchmark::State& state, const std::string& name) {
  MicroFixture fx(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.problem->FitWithLambdas({0.05}, nullptr));
  }
}
BENCHMARK_CAPTURE(BM_FitModel, lr, std::string("lr"));
BENCHMARK_CAPTURE(BM_FitModel, dt, std::string("dt"));
BENCHMARK_CAPTURE(BM_FitModel, xgb, std::string("xgb"));
BENCHMARK_CAPTURE(BM_FitModel, nn, std::string("nn"));

void BM_AuditModel(benchmark::State& state) {
  MicroFixture fx("lr");
  auto model = fx.problem->FitWithLambdas({0.0}, nullptr);
  const FairnessSpec spec = MakeSpec(MainGroups("compas"), "sp", 0.03);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Audit(*model, fx.problem->encoder(), fx.split.test, {spec}));
  }
}
BENCHMARK(BM_AuditModel);

/// Console output as usual, plus one BenchReporter row per benchmark so the
/// microbench participates in the machine-readable bench/out/ corpus.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCapturingReporter(BenchReporter& out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      out_.AddRow("microbench")
          .Label("name", run.benchmark_name())
          .Label("time_unit", benchmark::GetTimeUnitString(run.time_unit))
          .Value("real_time", run.GetAdjustedRealTime())
          .Value("cpu_time", run.GetAdjustedCPUTime())
          .Value("iterations", static_cast<double>(run.iterations));
    }
  }

 private:
  BenchReporter& out_;
};

/// Scalar-vs-active timing of one kernel.
struct KernelTiming {
  double scalar_ns = 0.0;  ///< median ns per call
  double active_ns = 0.0;  ///< median ns per call
  double speedup = 0.0;    ///< median of the per-trial scalar/active ratios
};

/// Times `scalar` and `active` in kKernelTrials alternating trials (the side
/// that goes first swaps every trial), each a batch of >= 2 ms. A burst of
/// load from other tenants then lands on both sides of one trial, and the
/// median ratio ignores the few trials it skews, where a single sample per
/// side would report the burst as a regression.
template <typename ScalarFn, typename ActiveFn>
KernelTiming TimeScalarVsActive(ScalarFn&& scalar, ActiveFn&& active) {
  constexpr int kKernelTrials = 21;
  using Clock = std::chrono::steady_clock;
  auto batch_ns = [](auto& fn, long reps) {
    const auto start = Clock::now();
    for (long r = 0; r < reps; ++r) fn();
    return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  };
  auto calibrate = [&](auto& fn) {
    fn();  // warm up: fault pages in, resolve the dispatch table
    long reps = 1;
    while (batch_ns(fn, reps) < 2e6 && reps < (1L << 24)) reps *= 2;
    return reps;
  };
  const long scalar_reps = calibrate(scalar);
  const long active_reps = calibrate(active);
  std::vector<double> scalar_ns, active_ns, ratios;
  for (int trial = 0; trial < kKernelTrials; ++trial) {
    double s = 0.0;
    double a = 0.0;
    if (trial % 2 == 0) {
      s = batch_ns(scalar, scalar_reps) / static_cast<double>(scalar_reps);
      a = batch_ns(active, active_reps) / static_cast<double>(active_reps);
    } else {
      a = batch_ns(active, active_reps) / static_cast<double>(active_reps);
      s = batch_ns(scalar, scalar_reps) / static_cast<double>(scalar_reps);
    }
    scalar_ns.push_back(s);
    active_ns.push_back(a);
    ratios.push_back(s / a);
  }
  auto median = [](std::vector<double> values) {
    std::nth_element(values.begin(), values.begin() + values.size() / 2,
                     values.end());
    return values[values.size() / 2];
  };
  return {median(scalar_ns), median(active_ns), median(ratios)};
}

/// One "kernel_speedup" row comparing the active backend against the scalar
/// table in-process. The *_speedup fields (which tools/bench_diff.py gates
/// on) are machine-relative ratios, so a committed snapshot from one box is
/// a meaningful baseline on another of the same ISA; they are emitted only
/// when a vector backend is active, so scalar-only machines diff vacuously
/// clean instead of flagging a phantom regression.
void ReportKernelSpeedups(BenchReporter& out) {
  const simd::Kernels& active = simd::Active();
  const simd::Kernels& scalar = simd::ScalarKernels();
  const bool vectorized = simd::ActiveBackend() != simd::Backend::kScalar;
  const size_t n = 4096;
  std::vector<double> a(n), b(n), acc(n, 0.0), v(n);
  std::vector<float> f(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = 0.25 + static_cast<double>(i % 31);
    b[i] = 1.5 - static_cast<double>(i % 17);
    v[i] = -6.0 + 12.0 * static_cast<double>(i % 97) / 96.0;
    f[i] = static_cast<float>(a[i]);
  }
  BenchReporter::Row& row = out.AddRow("kernel_speedup");
  row.Label("backend", simd::BackendName(simd::ActiveBackend()));
  row.Value("n", static_cast<double>(n));
  std::printf("\nkernel_speedup (n=%zu, backend=%s)\n", n,
              simd::BackendName(simd::ActiveBackend()));
  auto add = [&](const char* name, const KernelTiming& timing) {
    row.Value(std::string(name) + "_scalar_ns", timing.scalar_ns)
        .Value(std::string(name) + "_simd_ns", timing.active_ns);
    if (vectorized) row.Value(std::string(name) + "_speedup", timing.speedup);
    std::printf("  %-10s scalar %9.1f ns   active %9.1f ns   speedup %5.2fx\n",
                name, timing.scalar_ns, timing.active_ns, timing.speedup);
  };
  add("dot", TimeScalarVsActive(
                 [&] { benchmark::DoNotOptimize(scalar.dot(a.data(), b.data(), n)); },
                 [&] { benchmark::DoNotOptimize(active.dot(a.data(), b.data(), n)); }));
  add("axpy", TimeScalarVsActive(
                  [&] {
                    scalar.axpy(1e-9, b.data(), acc.data(), n);
                    benchmark::ClobberMemory();
                  },
                  [&] {
                    active.axpy(1e-9, b.data(), acc.data(), n);
                    benchmark::ClobberMemory();
                  }));
  add("sum", TimeScalarVsActive(
                 [&] { benchmark::DoNotOptimize(scalar.sum(a.data(), n)); },
                 [&] { benchmark::DoNotOptimize(active.sum(a.data(), n)); }));
  add("sigmoid", TimeScalarVsActive(
                     [&] {
                       scalar.sigmoid_inplace(v.data(), n);
                       benchmark::ClobberMemory();
                     },
                     [&] {
                       active.sigmoid_inplace(v.data(), n);
                       benchmark::ClobberMemory();
                     }));
  add("dot_f32",
      TimeScalarVsActive(
          [&] { benchmark::DoNotOptimize(scalar.dot_f32(f.data(), b.data(), n)); },
          [&] { benchmark::DoNotOptimize(active.dot_f32(f.data(), b.data(), n)); }));
}

}  // namespace
}  // namespace bench
}  // namespace omnifair

int main(int argc, char** argv) {
  omnifair::InitTelemetryFromEnv();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  omnifair::bench::BenchReporter reporter(
      "microbench", "Microbenchmarks: weight computation, FP evaluation, fits");
  reporter.Config("simd_backend",
                  std::string(omnifair::simd::BackendName(
                      omnifair::simd::ActiveBackend())));
  omnifair::bench::JsonCapturingReporter console(reporter);
  benchmark::RunSpecifiedBenchmarks(&console);
  benchmark::Shutdown();
  omnifair::bench::ReportKernelSpeedups(reporter);
  return omnifair::bench::FinishBench(reporter);
}
