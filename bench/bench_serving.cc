// Serving-path benchmark (DESIGN.md §15). Three sections:
//
//   bundle_load    - cold-load a 200-tree random forest from the versioned
//                    binary bundle (min-of-3): open + validate + MakeModel.
//   serving_closed - closed-loop BundleServer::Handle per model family at
//                    several batch sizes; reports QPS and p50/p99 latency
//                    from locally timed requests.
//   serving_open   - open-loop Submit storm against the bounded admission
//                    queue; reports offered/completed/shed and achieved QPS.
//
// Knobs: OMNIFAIR_BENCH_ROWS (dataset size), OMNIFAIR_BENCH_SEEDS (unused
// here; serving latency is deterministic given the model and batch plan).

#include "bench/bench_common.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "ml/bundle.h"
#include "ml/random_forest.h"
#include "serve/server.h"

namespace omnifair {
namespace bench {
namespace {

struct FittedModel {
  FeatureEncoder encoder;
  std::unique_ptr<Classifier> model;
};

FittedModel FitFamily(const std::string& trainer_name, const Dataset& data,
                      uint64_t seed) {
  FittedModel out;
  out.encoder.Fit(data);
  const Matrix X = out.encoder.Transform(data);
  out.model = MakeTrainer(trainer_name, seed)->Fit(X, data.labels());
  return out;
}

std::string BundlePath(const std::string& tag) {
  const std::filesystem::path dir(BenchReporter::OutputDirectory());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return (dir / ("bench_serving." + tag + ".ofb")).string();
}

/// Splits the full-dataset request into fixed-size batches (at most
/// `max_batches` so batch=1 does not enumerate the whole dataset).
std::vector<PredictRequest> SliceBatches(const PredictRequest& full,
                                         size_t batch_rows,
                                         size_t max_batches) {
  std::vector<PredictRequest> out;
  const size_t n = full.features.rows();
  for (size_t start = 0; start < n && out.size() < max_batches;
       start += batch_rows) {
    const size_t end = std::min(n, start + batch_rows);
    std::vector<size_t> index(end - start);
    std::iota(index.begin(), index.end(), start);
    PredictRequest request;
    request.features = full.features.SelectRows(index);
    if (!full.group_ids.empty()) {
      request.group_ids.assign(full.group_ids.begin() + start,
                               full.group_ids.begin() + end);
    }
    request.threshold = full.threshold;
    out.push_back(std::move(request));
  }
  return out;
}

double QuantileUs(std::vector<double>& latencies_us, double q) {
  if (latencies_us.empty()) return 0.0;
  std::sort(latencies_us.begin(), latencies_us.end());
  const size_t index = std::min(
      latencies_us.size() - 1,
      static_cast<size_t>(q * static_cast<double>(latencies_us.size())));
  return latencies_us[index];
}

/// Cold load of a 200-tree forest bundle, timed min-of-3 (min, not mean: the
/// fastest run has the least scheduler noise; every run sees a warm page
/// cache, so the time is open + validate cost only).
void RunBundleLoad(BenchReporter& reporter, const Dataset& data) {
  RandomForestOptions options;
  options.num_trees = 200;
  options.max_depth = 8;
  FeatureEncoder encoder;
  encoder.Fit(data);
  const Matrix X = encoder.Transform(data);
  Stopwatch fit_watch;
  const auto model = RandomForestTrainer(options).Fit(X, data.labels());
  const double fit_seconds = fit_watch.ElapsedSeconds();

  const std::string bundle_path = BundlePath("rf200");
  BundleMeta meta;
  meta.sensitive_attribute = "race";
  OF_CHECK(WriteBundle(*model, encoder, meta, bundle_path).ok());

  double bundle_seconds = 1e30;
  for (int run = 0; run < 3; ++run) {
    Stopwatch watch;
    auto bundle = ModelBundle::Open(bundle_path);
    OF_CHECK(bundle.ok());
    auto flat = (*bundle)->MakeModel();
    bundle_seconds = std::min(bundle_seconds, watch.ElapsedSeconds());
  }
  const auto bundle_bytes =
      static_cast<double>(std::filesystem::file_size(bundle_path));

  PrintHeader("Cold load: 200-tree RF bundle");
  std::printf("%-12s %14s %12s\n", "model", "bundle (s)", "bundle B");
  std::printf("%-12s %14.6f %12.0f\n", "rf200", bundle_seconds, bundle_bytes);

  reporter.AddRow("bundle_load")
      .Label("model", "rf200")
      .Value("fit_seconds", fit_seconds)
      .Value("bundle_load_seconds", bundle_seconds)
      .Value("bundle_bytes", bundle_bytes);
}

void RunClosedLoop(BenchReporter& reporter, const Dataset& data) {
  PrintHeader("Closed-loop serving (BundleServer::Handle)");
  std::printf("%-8s %10s %10s %12s %10s %10s\n", "family", "batch",
              "requests", "qps", "p50 (us)", "p99 (us)");

  for (const std::string& family : {"lr", "rf", "xgb", "nn"}) {
    FittedModel fitted = FitFamily(family, data, /*seed=*/31);
    const std::string path = BundlePath(family);
    BundleMeta meta;
    meta.sensitive_attribute = "race";
    OF_CHECK(WriteBundle(*fitted.model, fitted.encoder, meta, path).ok());
    auto bundle = ModelBundle::Open(path);
    OF_CHECK(bundle.ok());
    BundleServer server(*bundle);
    auto full = MakeRequest(**bundle, data, "race");
    OF_CHECK(full.ok());

    for (size_t batch_rows : {size_t{1}, size_t{16}, size_t{256}}) {
      const std::vector<PredictRequest> batches =
          SliceBatches(*full, batch_rows, /*max_batches=*/200);
      std::vector<double> latencies_us;
      long long rows_served = 0;
      Stopwatch watch;
      for (int pass = 0; pass < 3; ++pass) {
        for (const PredictRequest& request : batches) {
          Stopwatch request_watch;
          auto response = server.Handle(request);
          latencies_us.push_back(request_watch.ElapsedSeconds() * 1e6);
          OF_CHECK(response.ok());
          rows_served += static_cast<long long>(response->scores.size());
        }
      }
      const double elapsed = watch.ElapsedSeconds();
      const double qps =
          elapsed > 0.0 ? static_cast<double>(latencies_us.size()) / elapsed
                        : 0.0;
      const double p50 = QuantileUs(latencies_us, 0.50);
      const double p99 = QuantileUs(latencies_us, 0.99);
      OF_GAUGE_SET("serve.qps", qps);
      std::printf("%-8s %10zu %10zu %12.0f %10.1f %10.1f\n", family.c_str(),
                  batch_rows, latencies_us.size(), qps, p50, p99);
      reporter.AddRow("serving_closed")
          .Label("family", family)
          .Value("batch_rows", static_cast<double>(batch_rows))
          .Value("requests", static_cast<double>(latencies_us.size()))
          .Value("rows", static_cast<double>(rows_served))
          .Value("qps", qps)
          .Value("p50_us", p50)
          .Value("p99_us", p99);
    }
  }
}

void RunOpenLoop(BenchReporter& reporter, const Dataset& data) {
  PrintHeader("Open-loop Submit storm (bounded admission queue)");
  std::printf("%-8s %10s %10s %10s %10s %14s\n", "family", "in-flight",
              "offered", "done", "shed", "achieved qps");

  FittedModel fitted = FitFamily("xgb", data, /*seed=*/47);
  const std::string path = BundlePath("xgb_open");
  BundleMeta meta;
  meta.sensitive_attribute = "race";
  OF_CHECK(WriteBundle(*fitted.model, fitted.encoder, meta, path).ok());
  auto bundle = ModelBundle::Open(path);
  OF_CHECK(bundle.ok());
  auto full = MakeRequest(**bundle, data, "race");
  OF_CHECK(full.ok());
  const std::vector<PredictRequest> batches =
      SliceBatches(*full, /*batch_rows=*/64, /*max_batches=*/200);

  for (int max_in_flight : {4, 16}) {
    ServerOptions options;
    options.max_in_flight = max_in_flight;
    BundleServer server(*bundle, options);
    constexpr int kOffered = 200;
    int completed = 0;
    int shed = 0;
    long long rows_served = 0;
    std::vector<std::future<Result<PredictResponse>>> pending;
    Stopwatch watch;
    for (int i = 0; i < kOffered; ++i) {
      auto submitted = server.Submit(batches[i % batches.size()]);
      if (!submitted.ok()) {
        ++shed;
        continue;
      }
      pending.push_back(std::move(*submitted));
      // Drain periodically so the storm exercises admission instead of
      // shedding everything after the queue fills once.
      if (pending.size() >= static_cast<size_t>(max_in_flight)) {
        for (auto& f : pending) {
          auto response = f.get();
          OF_CHECK(response.ok());
          ++completed;
          rows_served += static_cast<long long>(response->scores.size());
        }
        pending.clear();
      }
    }
    for (auto& f : pending) {
      auto response = f.get();
      OF_CHECK(response.ok());
      ++completed;
      rows_served += static_cast<long long>(response->scores.size());
    }
    const double elapsed = watch.ElapsedSeconds();
    const double qps =
        elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0;
    std::printf("%-8s %10d %10d %10d %10d %14.0f\n", "xgb", max_in_flight,
                kOffered, completed, shed, qps);
    reporter.AddRow("serving_open")
        .Label("family", "xgb")
        .Value("max_in_flight", static_cast<double>(max_in_flight))
        .Value("offered", static_cast<double>(kOffered))
        .Value("completed", static_cast<double>(completed))
        .Value("rejected", static_cast<double>(shed))
        .Value("rows", static_cast<double>(rows_served))
        .Value("achieved_qps", qps);
  }
}

void Run(BenchReporter& reporter) {
  const Dataset data = MakeBenchDataset("compas", /*seed=*/901);
  reporter.Config("dataset", "compas");
  reporter.Config("rows", static_cast<double>(data.NumRows()));
  RunBundleLoad(reporter, data);
  RunClosedLoop(reporter, data);
  RunOpenLoop(reporter, data);
}

}  // namespace
}  // namespace bench
}  // namespace omnifair

int main() {
  omnifair::InitTelemetryFromEnv();
  omnifair::bench::BenchReporter reporter(
      "serving", "Bundle cold load and batched serving throughput");
  omnifair::bench::Run(reporter);
  return omnifair::bench::FinishBench(reporter);
}
