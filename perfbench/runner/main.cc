// End-to-end benchmark runner: one process per measured run, started by
// perfbench/run.py. Two subcommands:
//
//   perfbench_runner synth --workload W --seed S --out input.csv
//       Writes the workload's synthetic input CSV (not measured).
//
//   perfbench_runner run --workload W --seed S --csv input.csv --work DIR
//                        --seconds T --trace 0|1 --out result.json
//                        [--spans spans.jsonl]
//       Runs the user path on the CSV and writes raw samples as one JSON
//       document. With --trace 1 every call into a library layer is also
//       recorded as a span (see trace.h) and written to --spans.
//
// The workload table below is the single definition of the workloads; the
// Python wrapper only forwards names. Every library option not set here keeps
// its default.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/omnifair.h"
#include "core/spec.h"
#include "core/stream_tune.h"
#include "data/chunked_dataset.h"
#include "data/csv.h"
#include "data/datasets.h"
#include "data/split.h"
#include "data/stream_reader.h"
#include "runner/trace.h"
#include "linalg/simd.h"
#include "ml/bundle.h"
#include "ml/trainer_registry.h"
#include "serve/server.h"
#include "util/json_writer.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using omnifair::FairnessSpec;
using omnifair::Matrix;
using omnifair::MetricKind;
using omnifair::PredictRequest;
using omnifair::PredictResponse;

// ---------------------------------------------------------------------------
// Workloads and fixed load parameters.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  const char* dataset;       // synthetic generator
  size_t rows;               // rows written to the input CSV
  const char* label;         // label column
  const char* trainer;       // trainer registry name ("" for the stream path)
  const char* group_column;  // sensitive column: serve groups, ingest groups
  bool stream;               // out-of-core path instead of ReadCsv + Train
};

constexpr Workload kWorkloads[] = {
    {"adult_sp_lr", "adult", 50000, "income_gt_50k", "lr", "sex", false},
    {"compas_multi_xgb_hist", "compas", 100000, "two_year_recid", "xgb_hist",
     "sex", false},
    {"adult_stream_sp", "adult", 1000000, "income_gt_50k", "", "sex", true},
};

constexpr double kEpsilon = 0.05;
// Serving load: the closed and the open loop both send batches of this many
// rows; the open loop sends them at a fixed rate from one generator thread.
constexpr size_t kServeBatchRows = 128;
constexpr double kOpenLoopRatePerS = 1000.0;
// Repetitions of the set-up work (median reported).
constexpr int kSetupRepsInMemory = 5;
constexpr int kSetupRepsStream = 3;
constexpr int kPackReps = 3;
constexpr int kMaxColdStarts = 1000;
// Shares of --seconds given to each time-boxed phase.
constexpr double kFitShare = 0.6;
constexpr double kColdShare = 0.05;
constexpr double kClosedShare = 0.1;
constexpr double kOpenShare = 0.15;
constexpr int kClosedWindows = 10;
constexpr size_t kMaxHandleSamples = 1 << 16;

std::vector<FairnessSpec> SpecsFor(const Workload& w) {
  if (std::strcmp(w.dataset, "compas") == 0) {
    return {omnifair::MakeSpec(omnifair::GroupByAttribute("sex"),
                               MetricKind::kFalseDiscoveryRate, kEpsilon),
            omnifair::MakeSpec(omnifair::GroupByAttributeValues(
                                   "race", {"African-American", "Caucasian"}),
                               MetricKind::kFalseNegativeRate, kEpsilon)};
  }
  return {omnifair::MakeSpec(omnifair::GroupByAttribute("sex"),
                             MetricKind::kStatisticalParity, kEpsilon)};
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

struct Args {
  std::string command;
  std::string workload, csv, work, out, spans;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args->workload = value;
    else if (key == "--csv") args->csv = value;
    else if (key == "--work") args->work = value;
    else if (key == "--out") args->out = value;
    else if (key == "--spans") args->spans = value;
    else if (key == "--seed") args->seed = std::stoull(value);
    else if (key == "--seconds") args->seconds = std::stod(value);
    else if (key == "--trace") args->trace = value == "1";
    else return false;
  }
  return true;
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

bool SameBits(const std::vector<double>& a, const double* b, size_t n) {
  return a.size() == n &&
         (n == 0 || std::memcmp(a.data(), b, n * sizeof(double)) == 0);
}

/// Reads the file once through a small buffer so it sits in the page cache
/// before the first timed call (without growing this process's RSS).
void WarmPageCache(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> buffer(1 << 16);
  while (in.read(buffer.data(), static_cast<std::streamsize>(buffer.size())) ||
         in.gcount() > 0) {
  }
}

/// Everything one run measured; serialized as the run's JSON document.
struct RunRecord {
  std::vector<double> setup_s;
  std::vector<double> fit_s, fit_traced_s;
  std::vector<long long> fits, fits_traced;
  std::vector<double> accuracy, accuracy_traced;
  bool satisfied = false;
  double fairness_gap = 0.0;
  double test_fairness_gap = 0.0;
  double val_accuracy = 0.0;
  double encode_s = 0.0;
  long long bundle_bytes = 0;
  std::vector<double> cold_start_ms;
  std::vector<double> closed_rows_per_s;  ///< one entry per window
  std::vector<double> handle_us;
  std::vector<double> open_latency_us, open_late_us;
  long long open_rejected = 0;
  // The library's own profile of the last traced rep.
  omnifair::RunProfile profile_traced;
  omnifair::IngestStats ingest;  ///< of the last set-up rep
  long long attempted = 0;
  long long failed = 0;  ///< operations that failed or failed a check
  std::vector<std::string> failures;

  void Fail(const std::string& what, long long operations = 1) {
    failures.push_back(what);
    failed += operations;
  }
};

template <typename T>
void WriteArray(omnifair::JsonWriter& json, const char* key,
                const std::vector<T>& values) {
  json.Key(key);
  json.BeginArray();
  for (const T& v : values) {
    if constexpr (std::is_floating_point_v<T>) {
      json.Double(v);
    } else {
      json.Int(static_cast<long long>(v));
    }
  }
  json.EndArray();
}

void WriteProfile(omnifair::JsonWriter& json, const char* key,
                  const omnifair::RunProfile& p) {
  double trainer_fit_us = 0.0;
  for (const auto& stage : p.stages) {
    if (stage.name == "trainer_fit") trainer_fit_us = stage.wall_us;
  }
  json.Key(key);
  json.BeginObject();
  json.KV("total_wall_s", p.total_wall_us / 1e6);
  json.KV("trainer_fit_s", trainer_fit_us / 1e6);
  json.KV("trainer_fits", p.trainer_fits);
  json.KV("weight_cache_hits", p.weight_cache_hits);
  json.KV("weight_cache_misses", p.weight_cache_misses);
  json.KV("bins_reused", p.bins_reused);
  json.EndObject();
}

bool WriteRecord(const std::string& path, const Args& args,
                 const RunRecord& r) {
  std::ostringstream os;
  omnifair::JsonWriter json(os);
  json.BeginObject();
  json.KV("workload", args.workload);
  json.KV("seed", static_cast<long long>(args.seed));
  json.KV("trace", args.trace);
  json.KV("simd", omnifair::simd::BackendName(omnifair::simd::ActiveBackend()));
  json.KV("pool_threads", omnifair::ThreadPool::Global().NumThreads());
  json.KV("serve_batch_rows", kServeBatchRows);
  json.KV("open_rate_per_s", kOpenLoopRatePerS);
  json.KV("serves", !FindWorkload(args.workload)->stream);
  WriteArray(json, "setup_s", r.setup_s);
  WriteArray(json, "fit_s", r.fit_s);
  WriteArray(json, "fit_traced_s", r.fit_traced_s);
  WriteArray(json, "fits", r.fits);
  WriteArray(json, "fits_traced", r.fits_traced);
  WriteArray(json, "accuracy", r.accuracy);
  WriteArray(json, "accuracy_traced", r.accuracy_traced);
  json.KV("satisfied", r.satisfied);
  json.KV("fairness_gap", r.fairness_gap);
  json.KV("test_fairness_gap", r.test_fairness_gap);
  json.KV("val_accuracy", r.val_accuracy);
  json.KV("encode_s", r.encode_s);
  json.KV("bundle_bytes", r.bundle_bytes);
  WriteArray(json, "cold_start_ms", r.cold_start_ms);
  WriteArray(json, "closed_rows_per_s", r.closed_rows_per_s);
  WriteArray(json, "handle_us", r.handle_us);
  WriteArray(json, "open_latency_us", r.open_latency_us);
  WriteArray(json, "open_late_us", r.open_late_us);
  json.KV("open_rejected", r.open_rejected);
  WriteProfile(json, "profile_traced", r.profile_traced);
  json.Key("ingest");
  json.BeginObject();
  json.KV("rows", static_cast<long long>(r.ingest.rows));
  json.KV("parse_s", r.ingest.parse_seconds);
  json.KV("spill_s", r.ingest.spill_seconds);
  json.EndObject();
  json.KV("attempted", r.attempted);
  json.KV("failed", r.failed);
  json.Key("failures");
  json.BeginArray();
  for (const std::string& f : r.failures) json.String(f);
  json.EndArray();
  json.EndObject();
  std::ofstream out(path);
  out << os.str() << "\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Serving: cold start, closed loop, open loop (in-memory workloads).
// ---------------------------------------------------------------------------

/// Fixed-size request batches plus the scores each must come back with.
struct ServeSet {
  std::vector<PredictRequest> batches;
  std::vector<std::vector<double>> expected;
};

void AddBatches(const PredictRequest& full, const std::vector<double>& expected,
                ServeSet* set) {
  const size_t n = full.features.rows();
  for (size_t start = 0; start + kServeBatchRows <= n;
       start += kServeBatchRows) {
    std::vector<size_t> index(kServeBatchRows);
    std::iota(index.begin(), index.end(), start);
    PredictRequest request;
    request.features = full.features.SelectRows(index);
    if (!full.group_ids.empty()) {
      request.group_ids.assign(full.group_ids.begin() + start,
                               full.group_ids.begin() + start + kServeBatchRows);
    }
    set->batches.push_back(std::move(request));
    set->expected.emplace_back(expected.begin() + start,
                               expected.begin() + start + kServeBatchRows);
  }
}

/// Packs `model` into `bundle_path` kPackReps times. `model` must be the bare
/// (undecorated) model: WriteBundle dispatches on its concrete type.
bool PackBundle(const omnifair::Classifier& model,
                const omnifair::FeatureEncoder& encoder,
                const omnifair::BundleMeta& meta, const std::string& bundle_path,
                SpanBuffer* spans, RunRecord* r) {
  for (int rep = 0; rep < kPackReps; ++rep) {
    ++r->attempted;
    ScopedSpan span(spans, "ml.bundle_pack");
    const omnifair::Status status =
        omnifair::WriteBundle(model, encoder, meta, bundle_path);
    if (!status.ok()) {
      r->Fail("pack: " + status.ToString());
      return false;
    }
  }
  std::error_code ec;
  r->bundle_bytes =
      static_cast<long long>(std::filesystem::file_size(bundle_path, ec));
  return true;
}

/// Measures cold start, the closed loop and the open loop against the
/// bundle, checking every response against `set.expected`.
void MeasureServing(const std::string& bundle_path, const ServeSet& set,
                    const Args& args, SpanBuffer* spans, RunRecord* r) {
  if (set.batches.empty()) {
    r->Fail("serve: no request batches");
    return;
  }

  // Cold start: open + server construction + first request.
  const int64_t cold_start = NowNs();
  for (int rep = 0; rep < kMaxColdStarts &&
                    SecondsSince(cold_start) < kColdShare * args.seconds;
       ++rep) {
    ++r->attempted;
    ScopedSpan cold_span(spans, "serve.cold_start");
    const int64_t t0 = NowNs();
    auto bundle = [&] {
      ScopedSpan span(spans, "ml.bundle_open");
      return omnifair::ModelBundle::Open(bundle_path);
    }();
    if (!bundle.ok()) {
      r->Fail("bundle open: " + bundle.status().ToString());
      return;
    }
    auto server = [&] {
      ScopedSpan span(spans, "serve.server_init");
      return omnifair::BundleServer(*bundle);
    }();
    omnifair::Result<PredictResponse> first = [&] {
      ScopedSpan span(spans, "serve.handle",
                      static_cast<int64_t>(kServeBatchRows));
      return server.Handle(set.batches[0]);
    }();
    r->cold_start_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (!first.ok() ||
        !SameBits(set.expected[0], first->scores.data(), first->scores.size())) {
      r->Fail("cold start: first response differs from the model");
    }
  }

  auto opened = omnifair::ModelBundle::Open(bundle_path);
  if (!opened.ok()) {
    r->Fail("bundle open: " + opened.status().ToString());
    return;
  }
  omnifair::BundleServer server(*opened);

  // Closed loop: one client, next batch only after the previous returns.
  // Throughput is taken per window so one host stall spoils one window only;
  // per-call times go to a fixed buffer allocated (and touched) up front, so
  // the client's own memory does not depend on how many calls fit.
  r->handle_us.assign(kMaxHandleSamples, 0.0);
  size_t handle_samples = 0;
  long long mismatched = 0;
  size_t next = 0;
  const double window_s = kClosedShare * args.seconds / kClosedWindows;
  for (int window = 0; window < kClosedWindows; ++window) {
    long long rows = 0;
    const int64_t window_start = NowNs();
    while (SecondsSince(window_start) < window_s) {
      const size_t b = next++ % set.batches.size();
      ++r->attempted;
      const int64_t t0 = NowNs();
      omnifair::Result<PredictResponse> response = [&] {
        ScopedSpan span(spans, "serve.handle",
                        static_cast<int64_t>(kServeBatchRows));
        return server.Handle(set.batches[b]);
      }();
      r->handle_us[handle_samples++ % kMaxHandleSamples] =
          static_cast<double>(NowNs() - t0) / 1e3;
      if (!response.ok() || !SameBits(set.expected[b], response->scores.data(),
                                       response->scores.size())) {
        ++mismatched;
        continue;
      }
      rows += static_cast<long long>(response->scores.size());
    }
    r->closed_rows_per_s.push_back(static_cast<double>(rows) /
                                   SecondsSince(window_start));
  }
  r->handle_us.resize(std::min(handle_samples, kMaxHandleSamples));
  if (mismatched > 0) {
    r->Fail("closed loop: " + std::to_string(mismatched) +
                " responses failed or differ from the model",
            mismatched);
  }

  // Open loop: a generator thread submits on a fixed schedule; this thread
  // collects the futures in order. Latency runs from each request's due time.
  struct Pending {
    int64_t due_ns;
    size_t batch;
    std::future<omnifair::Result<PredictResponse>> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;  // guarded by mu
  bool generator_done = false;  // guarded by mu
  const int64_t period_ns = static_cast<int64_t>(1e9 / kOpenLoopRatePerS);
  const auto total = static_cast<size_t>(kOpenShare * args.seconds *
                                         kOpenLoopRatePerS);
  std::atomic<long long> rejected{0};
  const int64_t open_start = NowNs() + 1000000;  // first request 1 ms out
  std::thread generator([&] {
    for (size_t i = 0; i < total; ++i) {
      const size_t b = i % set.batches.size();
      PredictRequest request = set.batches[b];
      const int64_t due = open_start + static_cast<int64_t>(i) * period_ns;
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
      r->open_late_us.push_back(static_cast<double>(NowNs() - due) / 1e3);
      auto submitted = [&] {
        ScopedSpan span(spans, "serve.submit",
                        static_cast<int64_t>(kServeBatchRows));
        return server.Submit(std::move(request));
      }();
      if (!submitted.ok()) {
        rejected.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back({due, b, std::move(*submitted)});
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      generator_done = true;
    }
    cv.notify_one();
  });
  long long open_mismatched = 0;
  try {
    for (;;) {
      Pending pending;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || generator_done; });
        if (queue.empty()) break;
        pending = std::move(queue.front());
        queue.pop_front();
      }
      omnifair::Result<PredictResponse> response = pending.future.get();
      r->open_latency_us.push_back(
          static_cast<double>(NowNs() - pending.due_ns) / 1e3);
      if (!response.ok() ||
          !SameBits(set.expected[pending.batch], response->scores.data(),
                    response->scores.size())) {
        ++open_mismatched;
      }
    }
  } catch (const std::exception& e) {
    r->Fail(std::string("open loop: ") + e.what());
  }
  generator.join();  // the generator never waits on this thread
  r->attempted += static_cast<long long>(total);
  r->open_rejected = rejected.load();
  if (open_mismatched > 0) {
    r->Fail("open loop: " + std::to_string(open_mismatched) +
                " responses failed or differ from the model",
            open_mismatched);
  }
}

// ---------------------------------------------------------------------------
// In-memory path: ReadCsv + SplitDefault -> OmniFair::Train -> serve.
// ---------------------------------------------------------------------------

void RunInMemory(const Workload& w, const Args& args, SpanBuffer* spans,
                 RunRecord* r) {
  omnifair::CsvReadOptions read_options;
  read_options.label_column = w.label;

  std::optional<omnifair::TrainValTestSplit> split;
  for (int rep = 0; rep < kSetupRepsInMemory; ++rep) {
    ++r->attempted;
    if (spans) spans->set_run(rep);
    split.reset();
    const int64_t t0 = NowNs();
    omnifair::Result<omnifair::Dataset> data = [&] {
      ScopedSpan span(spans, "data.read_csv");
      return omnifair::ReadCsv(args.csv, read_options);
    }();
    if (!data.ok()) {
      r->Fail("read_csv: " + data.status().ToString());
      return;
    }
    {
      ScopedSpan span(spans, "data.split");
      split.emplace(omnifair::SplitDefault(*data, args.seed));
    }
    r->setup_s.push_back(SecondsSince(t0));
  }

  const std::vector<FairnessSpec> specs = SpecsFor(w);
  const omnifair::OmniFair omnifair;

  if (spans != nullptr) {
    // Feature encoding on its own (Train repeats it internally).
    const int64_t t0 = NowNs();
    ScopedSpan span(spans, "data.encode");
    omnifair::FeatureEncoder encoder;
    encoder.Fit(split->train, omnifair.options().encoder);
    const Matrix train = encoder.Transform(split->train);
    const Matrix val = encoder.Transform(split->val);
    r->encode_s = SecondsSince(t0);
  }

  // Fit phase: untraced reps (and, with --trace 1, traced reps alternating
  // with them) until the phase's time share is used, at least two reps.
  std::optional<omnifair::FairModel> fair;
  const int64_t fit_start = NowNs();
  for (int rep = 0;; ++rep) {
    const bool traced = spans != nullptr && rep % 2 == 1;
    if (rep >= 2 && SecondsSince(fit_start) >= kFitShare * args.seconds) break;
    ++r->attempted;
    if (spans) spans->set_run(rep);
    std::unique_ptr<omnifair::Trainer> trainer =
        omnifair::MakeTrainer(w.trainer, args.seed);
    if (traced) {
      trainer = std::make_unique<TracedTrainer>(std::move(trainer), spans);
    }
    const int64_t t0 = NowNs();
    omnifair::Result<omnifair::FairModel> trained = [&] {
      ScopedSpan span(traced ? spans : nullptr, "core.train");
      return omnifair.Train(split->train, split->val, trainer.get(), specs);
    }();
    const double seconds = SecondsSince(t0);
    if (!trained.ok()) {
      r->Fail("train: " + trained.status().ToString());
      return;
    }
    if (!trained->outcome.ok()) {
      r->Fail("train outcome: " + trained->outcome.ToString());
    }
    trained->model = Unwrap(std::move(trained->model));

    auto test = omnifair::Audit(*trained->model, trained->encoder, split->test, specs);
    auto val = omnifair::Audit(*trained->model, trained->encoder, split->val, specs);
    if (!test.ok() || !val.ok()) {
      r->Fail("audit failed");
      return;
    }
    if (trained->satisfied && !val->satisfied) {
      r->Fail("satisfied, but the validation audit gap " +
              std::to_string(val->max_disparity) + " exceeds epsilon");
    }
    (traced ? r->fit_traced_s : r->fit_s).push_back(seconds);
    (traced ? r->fits_traced : r->fits).push_back(trained->models_trained);
    (traced ? r->accuracy_traced : r->accuracy).push_back(test->accuracy);
    if (traced) r->profile_traced = trained->run_profile;
    r->satisfied = trained->satisfied;
    r->fairness_gap = val->max_disparity;
    r->test_fairness_gap = test->max_disparity;
    r->val_accuracy = trained->val_accuracy;
    fair = std::move(*trained);
  }
  if (spans) spans->set_run(0);

  // Serve the last model over the test split.
  omnifair::BundleMeta meta;
  meta.lambdas = fair->lambdas;
  meta.satisfied = fair->satisfied;
  meta.val_accuracy = fair->val_accuracy;
  meta.epsilon = kEpsilon;
  meta.sensitive_attribute = w.group_column;
  const std::string bundle_path = args.work + "/" + w.name + ".ofb";
  if (!PackBundle(*fair->model, fair->encoder, meta, bundle_path, spans, r)) {
    return;
  }
  // Requests are encoded once, up front, with the bundle's own encoder.
  auto bundle = omnifair::ModelBundle::Open(bundle_path);
  if (!bundle.ok()) {
    r->Fail("bundle open: " + bundle.status().ToString());
    return;
  }
  auto full = omnifair::MakeRequest(**bundle, split->test, w.group_column);
  if (!full.ok()) {
    r->Fail("make request: " + full.status().ToString());
    return;
  }
  ServeSet set;
  AddBatches(*full, fair->PredictProba(split->test), &set);
  MeasureServing(bundle_path, set, args, spans, r);
}

// ---------------------------------------------------------------------------
// Out-of-core path: StreamCsvToChunked + ChunkedDataset::Open ->
// StreamTuneLambda. It has no serving step.
// ---------------------------------------------------------------------------

void RunStream(const Workload& w, const Args& args, SpanBuffer* spans,
               RunRecord* r) {
  omnifair::StreamIngestOptions ingest_options;
  ingest_options.label_column = w.label;
  ingest_options.group_column = w.group_column;
  const std::string chunked_path = args.work + "/" + w.name + ".ofcd";

  std::optional<omnifair::ChunkedDataset> chunked;
  for (int rep = 0; rep < kSetupRepsStream; ++rep) {
    ++r->attempted;
    if (spans) spans->set_run(rep);
    chunked.reset();
    const int64_t t0 = NowNs();
    omnifair::Result<omnifair::IngestStats> stats = [&] {
      ScopedSpan span(spans, "data.ingest");
      return omnifair::StreamCsvToChunked(args.csv, chunked_path, ingest_options);
    }();
    if (!stats.ok()) {
      r->Fail("ingest: " + stats.status().ToString());
      return;
    }
    omnifair::Result<omnifair::ChunkedDataset> opened = [&] {
      ScopedSpan span(spans, "data.chunked_open");
      return omnifair::ChunkedDataset::Open(chunked_path);
    }();
    if (!opened.ok()) {
      r->Fail("chunked open: " + opened.status().ToString());
      return;
    }
    chunked.emplace(std::move(*opened));
    r->setup_s.push_back(SecondsSince(t0));
    r->ingest = *stats;
  }

  omnifair::StreamTuneOptions tune;
  tune.metric = MetricKind::kStatisticalParity;
  tune.epsilon = kEpsilon;

  const int64_t fit_start = NowNs();
  for (int rep = 0;; ++rep) {
    const bool traced = spans != nullptr && rep % 2 == 1;
    if (rep >= 2 && SecondsSince(fit_start) >= kFitShare * args.seconds) break;
    ++r->attempted;
    if (spans) spans->set_run(rep);
    const int64_t t0 = NowNs();
    omnifair::Result<omnifair::StreamTuneResult> tuned = [&] {
      ScopedSpan span(traced ? spans : nullptr, "core.stream_tune");
      return omnifair::StreamTuneLambda(*chunked, tune);
    }();
    const double seconds = SecondsSince(t0);
    if (!tuned.ok()) {
      r->Fail("stream tune: " + tuned.status().ToString());
      return;
    }
    if (tuned->satisfied && std::fabs(tuned->val_fairness_gap) > kEpsilon) {
      r->Fail("satisfied, but |val_fairness_gap| " +
              std::to_string(tuned->val_fairness_gap) + " exceeds epsilon");
    }
    (traced ? r->fit_traced_s : r->fit_s).push_back(seconds);
    (traced ? r->fits_traced : r->fits).push_back(tuned->models_trained);
    (traced ? r->accuracy_traced : r->accuracy).push_back(tuned->val_accuracy);
    r->satisfied = tuned->satisfied;
    r->fairness_gap = std::fabs(tuned->val_fairness_gap);
    r->val_accuracy = tuned->val_accuracy;
  }
  if (spans) spans->set_run(0);
}

int Synth(const Args& args) {
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr || args.out.empty()) return 2;
  omnifair::SyntheticOptions options;
  options.num_rows = w->rows;
  options.seed = args.seed;
  const omnifair::Dataset data = omnifair::MakeDatasetByName(w->dataset, options);
  const omnifair::Status status = omnifair::WriteCsv(data, args.out);
  if (!status.ok()) {
    std::fprintf(stderr, "synth: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

int Run(const Args& args) {
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr || args.csv.empty() || args.work.empty() || args.out.empty()) {
    return 2;
  }
  WarmPageCache(args.csv);
  SpanBuffer span_buffer;
  SpanBuffer* spans = args.trace ? &span_buffer : nullptr;
  RunRecord record;
  try {
    if (w->stream) {
      RunStream(*w, args, spans, &record);
    } else {
      RunInMemory(*w, args, spans, &record);
    }
  } catch (const std::exception& e) {
    record.Fail(std::string("exception: ") + e.what());
  }
  if (spans != nullptr && !args.spans.empty() &&
      !span_buffer.WriteJsonLines(args.spans)) {
    record.Fail("cannot write " + args.spans);
  }
  if (!WriteRecord(args.out, args, record)) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner synth|run --workload W --seed S ...\n");
    return 2;
  }
  if (args.command == "synth") return perfbench::Synth(args);
  if (args.command == "run") return perfbench::Run(args);
  std::fprintf(stderr, "unknown command %s\n", args.command.c_str());
  return 2;
}
