// omnifair_cli — train, audit, and deploy fairness-constrained models from
// the command line without writing any C++.
//
//   # Generate a synthetic benchmark dataset as CSV:
//   omnifair_cli synth --dataset compas --rows 8000 --out compas.csv
//
//   # Train under a declarative constraint and save the model bundle:
//   omnifair_cli train --data compas.csv --label two_year_recid \
//       --sensitive race --metric sp --epsilon 0.03 --model lr \
//       --out fair_model.ofb
//
//   # Profile a dataset's columns and group base rates:
//   omnifair_cli profile --data compas.csv --label two_year_recid \
//       --sensitive race
//
//   # Audit the bundle on fresh data (predict and serve read it too):
//   omnifair_cli audit --data holdout.csv --label two_year_recid \
//       --sensitive race --metric sp --epsilon 0.03 --bundle fair_model.ofb
//
// Metrics: sp, mr, fpr, fnr, for, fdr. Models: lr, dt, rf, xgb, nn, nb.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/omnifair.h"
#include "core/run_profile.h"
#include "core/stream_tune.h"
#include "data/chunked_dataset.h"
#include "data/csv.h"
#include "data/datasets.h"
#include "data/profile.h"
#include "data/split.h"
#include "data/stream_reader.h"
#include "data/synthetic_stream.h"
#include "ml/bundle.h"
#include "ml/trainer_registry.h"
#include "serve/server.h"
#include "util/stopwatch.h"
#include "util/string_utils.h"
#include "util/telemetry.h"

namespace omnifair {
namespace cli {
namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;
  /// Bare (non `--flag`) operands after the command, in order — used by the
  /// `bundle inspect <bundle>` form.
  std::vector<std::string> positional;

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = flags.find(key);
    return it != flags.end() ? it->second : fallback;
  }
  /// Numeric accessors: a present but malformed value (`0.o3`, `1e3` for an
  /// integer) is a usage error that exits 2 naming the flag, never a
  /// silently different number.
  double GetDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    double value = 0.0;
    if (!ParseDouble(it->second, &value)) BadNumber(key, it->second);
    return value;
  }
  long GetLong(const std::string& key, long fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const std::string& text = it->second;
    long value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size()) {
      BadNumber(key, text);
    }
    return value;
  }
  /// A positive int-sized integer flag: zero or a negative value is a usage
  /// error (exit 2), never silently replaced by the default.
  long GetPositive(const std::string& key, long fallback) const {
    const long value = GetLong(key, fallback);
    if (value <= 0 || value > std::numeric_limits<int>::max()) {
      std::fprintf(stderr, "error: --%s must be a positive integer, got %ld\n",
                   key.c_str(), value);
      std::exit(2);
    }
    return value;
  }
  [[noreturn]] static void BadNumber(const std::string& key,
                                     const std::string& value) {
    std::fprintf(stderr, "error: --%s '%s' is not a valid number\n",
                 key.c_str(), value.c_str());
    std::exit(2);
  }
  bool Has(const std::string& key) const { return flags.count(key) > 0; }
};

int Usage() {
  std::fprintf(stderr,
               "usage: omnifair_cli <command> [--flag value ...]\n"
               "commands:\n"
               "  synth --dataset {adult|compas|lsac|bank} [--rows N] [--seed S]\n"
               "        --out data.csv\n"
               "        [--stream [--block-rows N>0]]   (write a chunked .ofcd file\n"
               "        block-by-block: 10M+ rows without holding them in RAM)\n"
               "  train --data data.csv --label COLUMN --sensitive COLUMN\n"
               "        [--metric sp] [--epsilon 0.05] [--model lr] [--seed S]\n"
               "        [--stream [--block-rows N>0]]   (out-of-core: --data is a\n"
               "        .ofcd chunked file, or a CSV ingested to <data>.ofcd first;\n"
               "        lr + sp/mr/fpr/fnr)\n"
               "        [--batch-size N>0] [--epochs N>0]\n"
               "        [--lr-schedule constant|invsqrt]   (--stream SGD only)\n"
               "        [--positive-label VALUE] [--out model.ofb]   (not with --stream)\n"
               "        [--checkpoint ckpt.bin] [--checkpoint-interval SECONDS]\n"
               "        [--resume [ckpt.bin]]   (resume a killed tuning run)\n"
               "        [--profile-out profile.json]\n"
               "  explain  (train + per-stage run profile; same flags as train)\n"
               "  profile --data data.csv --label COLUMN [--sensitive COLUMN]\n"
               "  audit --data data.csv --label COLUMN --sensitive COLUMN\n"
               "        [--metric sp] [--epsilon 0.05] [--positive-label VALUE]\n"
               "        --bundle model.ofb\n"
               "  bundle inspect model.ofb\n"
               "  predict --data data.csv --label COLUMN --bundle model.ofb\n"
               "        [--threshold 0.5] [--out scores.txt]\n"
               "  serve --bundle model.ofb --data data.csv --label COLUMN\n"
               "        [--group COLUMN] [--batch 256] [--repeat 1]\n"
               "        [--threads N] [--queue 32] [--threshold 0.5]\n");
  return 2;
}

Result<Dataset> LoadCsvDataset(const Args& args) {
  CsvReadOptions options;
  options.label_column = args.Get("label", "label");
  options.positive_label_value = args.Get("positive-label");
  // Only force a column categorical when one was actually named (predict /
  // serve runs have no --sensitive flag).
  const std::string sensitive = args.Get("sensitive");
  if (!sensitive.empty()) options.force_categorical = {sensitive};
  const std::string group = args.Get("group");
  if (!group.empty()) options.force_categorical.push_back(group);
  return ReadCsv(args.Get("data"), options);
}

int RunSynth(const Args& args) {
  const std::string name = args.Get("dataset");
  const std::string out = args.Get("out");
  if (name.empty() || out.empty()) return Usage();
  if (args.Has("stream")) {
    synthetic::StreamGenerateOptions options;
    options.num_rows = static_cast<size_t>(args.GetLong("rows", 0));
    options.seed = static_cast<uint64_t>(args.GetLong("seed", 42));
    options.block_rows = static_cast<size_t>(
        args.GetPositive("block-rows", static_cast<long>(options.block_rows)));
    auto stats = synthetic::GenerateSyntheticStream(MakeSchemaByName(name), out,
                                                    options);
    if (!stats.ok()) {
      std::fprintf(stderr, "error: %s\n", stats.status().ToString().c_str());
      return 1;
    }
    std::printf("wrote %llu rows x %llu features in %llu blocks to %s\n",
                static_cast<unsigned long long>(stats->rows),
                static_cast<unsigned long long>(stats->num_features),
                static_cast<unsigned long long>(stats->blocks), out.c_str());
    return 0;
  }
  SyntheticOptions options;
  options.num_rows = static_cast<size_t>(args.GetLong("rows", 0));
  options.seed = static_cast<uint64_t>(args.GetLong("seed", 42));
  const Dataset dataset = MakeDatasetByName(name, options);
  const Status status = WriteCsv(dataset, out);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu rows x %zu columns to %s\n", dataset.NumRows(),
              dataset.NumColumns() + 1, out.c_str());
  return 0;
}

/// Writes the run profile JSON for --profile-out; shared by train/explain.
int WriteProfileOut(const FairModel& fair, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  out << fair.run_profile.ToJson() << "\n";
  if (!out.flush()) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote run profile   : %s\n", path.c_str());
  return 0;
}

/// Checks a user-supplied --model / --metric value against the names the
/// library accepts, so a typo is a usage error (exit 2) listing the choices
/// instead of an abort inside MakeTrainer / MakeMetricByName.
bool CheckName(const char* flag, const std::string& value,
               const std::vector<std::string>& accepted) {
  if (std::find(accepted.begin(), accepted.end(), value) != accepted.end()) {
    return true;
  }
  std::fprintf(stderr, "error: unknown --%s '%s' (accepted: %s)\n", flag,
               value.c_str(), Join(accepted, ", ").c_str());
  return false;
}

/// Index of a --group1/--group2 name in the chunked file's dictionary;
/// falls back to `fallback` when the flag is absent.
int ResolveGroupIndex(const std::vector<std::string>& names,
                      const std::string& flag, size_t fallback) {
  if (flag.empty()) return static_cast<int>(fallback);
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == flag) return static_cast<int>(i);
  }
  return -1;
}

/// Out-of-core `train --stream`: --data is a chunked .ofcd file (or a CSV
/// ingested to <data>.ofcd first), tuned by the streaming Algorithm 1 — one
/// block resident at a time, LR + prediction-independent metrics only.
int RunStreamTrain(const Args& args, bool explain) {
  if (!args.Has("data")) return Usage();
  const std::string model = args.Get("model", "lr");
  if (model != "lr") {
    std::fprintf(stderr, "error: --stream supports --model lr only\n");
    return 2;
  }
  // Streamed tuning writes no model file; refuse --out before ingest rather
  // than exit 0 with nothing written.
  if (args.Has("out")) {
    std::fprintf(stderr, "error: --out is not supported with --stream\n");
    return 2;
  }
  StreamTuneOptions tune;
  if (!MetricKindByName(args.Get("metric", "sp"), &tune.metric) ||
      MakeMetric(tune.metric)->DependsOnPredictions()) {
    std::fprintf(stderr,
                 "error: --stream supports prediction-independent metrics "
                 "only (sp|mr|fpr|fnr)\n");
    return 2;
  }
  tune.epsilon = args.GetDouble("epsilon", 0.05);
  tune.batch_size = static_cast<size_t>(
      args.GetPositive("batch-size", static_cast<long>(tune.batch_size)));
  tune.epochs = static_cast<int>(args.GetPositive("epochs", tune.epochs));
  StreamIngestOptions ingest;
  ingest.block_rows = static_cast<size_t>(
      args.GetPositive("block-rows", static_cast<long>(ingest.block_rows)));
  tune.shuffle_seed = static_cast<uint64_t>(args.GetLong("seed", 42));
  const std::string schedule = args.Get("lr-schedule", "constant");
  if (schedule == "invsqrt") {
    tune.lr_schedule = LrSchedule::kInvSqrt;
  } else if (schedule != "constant") {
    std::fprintf(stderr,
                 "error: unknown --lr-schedule '%s' (accepted: constant, "
                 "invsqrt)\n",
                 schedule.c_str());
    return 2;
  }

  const bool profiling =
      EffectiveTelemetryLevel() >= TelemetryLevel::kCounters;
  RunProfiler profiler;
  MetricsSnapshot metrics_before;
  long long cpu_start_ns = -1;
  if (profiling) {
    metrics_before = MetricsRegistry::Global().Snapshot();
    cpu_start_ns = ProcessCpuNowNs();
  }
  Stopwatch stopwatch;

  const std::string data = args.Get("data");
  std::string chunked_path = data;
  const bool is_chunked =
      data.size() >= 5 && data.compare(data.size() - 5, 5, ".ofcd") == 0;
  if (!is_chunked) {
    if (!args.Has("sensitive")) return Usage();
    chunked_path = data + ".ofcd";
    ingest.label_column = args.Get("label", "label");
    ingest.positive_label_value = args.Get("positive-label");
    ingest.group_column = args.Get("sensitive");
    RunStageTimer timer(profiling ? &profiler : nullptr, RunStage::kIngest);
    auto stats = StreamCsvToChunked(data, chunked_path, ingest);
    if (!stats.ok()) {
      std::fprintf(stderr, "error: %s\n", stats.status().ToString().c_str());
      return 1;
    }
    std::printf("ingested            : %llu rows, %llu blocks -> %s\n",
                static_cast<unsigned long long>(stats->rows),
                static_cast<unsigned long long>(stats->blocks),
                chunked_path.c_str());
  }

  Result<ChunkedDataset> chunked = ChunkedDataset::Open(chunked_path);
  if (!chunked.ok()) {
    std::fprintf(stderr, "error: %s\n", chunked.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string>& group_names = chunked->meta().group_names;
  const int g1 = ResolveGroupIndex(group_names, args.Get("group1"), 0);
  const int g2 = ResolveGroupIndex(group_names, args.Get("group2"), 1);
  if (g1 < 0 || g2 < 0) {
    std::fprintf(stderr, "error: --group1/--group2 not in the group dictionary\n");
    return 2;
  }
  tune.group1 = static_cast<size_t>(g1);
  tune.group2 = static_cast<size_t>(g2);

  Result<StreamTuneResult> tuned = [&]() -> Result<StreamTuneResult> {
    RunStageTimer timer(profiling ? &profiler : nullptr,
                        RunStage::kTrainerFit);
    return StreamTuneLambda(*chunked, tune);
  }();
  if (!tuned.ok()) {
    std::fprintf(stderr, "error: %s\n", tuned.status().ToString().c_str());
    return 1;
  }

  std::printf("rows (out-of-core)  : %llu in %zu blocks\n",
              static_cast<unsigned long long>(chunked->total_rows()),
              chunked->num_blocks());
  std::printf("constraint          : %s(%s) - %s(%s), epsilon %.4f\n",
              args.Get("metric", "sp").c_str(),
              group_names[tune.group1].c_str(), args.Get("metric", "sp").c_str(),
              group_names[tune.group2].c_str(), tune.epsilon);
  std::printf("satisfied (val)     : %s\n", tuned->satisfied ? "yes" : "no");
  std::printf("validation accuracy : %.2f%%\n", 100.0 * tuned->val_accuracy);
  std::printf("validation gap      : %.4f\n",
              std::abs(tuned->val_fairness_gap));
  std::printf("lambda              : %.6f\n", tuned->lambda);
  std::printf("model fits          : %d (%.2fs)\n", tuned->models_trained,
              stopwatch.ElapsedSeconds());
  if (explain && profiling) {
    const double total_wall_us = stopwatch.ElapsedSeconds() * 1e6;
    const long long cpu_now_ns = ProcessCpuNowNs();
    const double total_cpu_us =
        (cpu_start_ns >= 0 && cpu_now_ns >= 0)
            ? static_cast<double>(cpu_now_ns - cpu_start_ns) / 1e3
            : 0.0;
    const RunProfile profile = BuildRunProfile(
        profiler, metrics_before, MetricsRegistry::Global().Snapshot(),
        "stream_tune", 1, total_wall_us, total_cpu_us);
    std::printf("\n%s\n", profile.ToText().c_str());
  }
  return tuned->satisfied ? 0 : 3;
}

/// `explain` is train plus a per-stage profile dump: same flags, same exit
/// codes, with the RunProfile table printed after the training summary.
int RunTrain(const Args& args, bool explain) {
  if (!CheckName("model", args.Get("model", "lr"), TrainerNames()) ||
      !CheckName("metric", args.Get("metric", "sp"), MetricNames())) {
    return 2;
  }
  if (args.Has("stream")) return RunStreamTrain(args, explain);
  // In memory, every model trains on its own full-data solver; the SGD knobs
  // belong to the streaming tuner alone.
  for (const char* flag : {"batch-size", "epochs", "lr-schedule"}) {
    if (args.Has(flag)) {
      std::fprintf(stderr, "error: --%s is only supported with --stream\n",
                   flag);
      return 2;
    }
  }
  if (!args.Has("data") || !args.Has("sensitive")) return Usage();
  Result<Dataset> dataset = LoadCsvDataset(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const uint64_t seed = static_cast<uint64_t>(args.GetLong("seed", 42));
  const TrainValTestSplit split = SplitDefault(*dataset, seed);

  FairnessSpec spec = MakeSpec(GroupByAttribute(args.Get("sensitive")),
                               args.Get("metric", "sp"),
                               args.GetDouble("epsilon", 0.05));
  auto trainer = MakeTrainer(args.Get("model", "lr"), seed);
  OmniFairOptions options;
  options.checkpoint.path = args.Get("checkpoint");
  options.checkpoint.interval_s = args.GetDouble("checkpoint-interval", 0.0);
  if (args.Has("resume")) {
    // Bare --resume reuses the --checkpoint file; --resume FILE overrides.
    const std::string resume = args.Get("resume");
    options.checkpoint.resume_from =
        resume == "1" ? options.checkpoint.path : resume;
    if (options.checkpoint.resume_from.empty()) {
      std::fprintf(stderr,
                   "error: --resume needs --checkpoint PATH or --resume FILE\n");
      return 2;
    }
  }
  OmniFair omnifair(options);
  auto fair = omnifair.Train(split.train, split.val, trainer.get(), {spec});
  if (!fair.ok()) {
    std::fprintf(stderr, "error: %s\n", fair.status().ToString().c_str());
    return 1;
  }

  std::printf("constraints induced : %zu\n", fair->lambdas.size());
  std::printf("satisfied (val)     : %s\n", fair->satisfied ? "yes" : "no");
  std::printf("validation accuracy : %.2f%%\n", 100.0 * fair->val_accuracy);
  std::printf("model fits          : %d (%.2fs)\n", fair->models_trained,
              fair->train_seconds);
  if (explain) std::printf("\n%s\n", fair->run_profile.ToText().c_str());

  auto audit = Audit(*fair->model, fair->encoder, split.test, {spec});
  if (audit.ok()) {
    std::printf("test accuracy       : %.2f%%\n", 100.0 * audit->accuracy);
    std::printf("test ROC AUC        : %.3f\n", audit->roc_auc);
    for (size_t j = 0; j < audit->constraint_labels.size(); ++j) {
      std::printf("test disparity      : %-36s %.4f\n",
                  audit->constraint_labels[j].c_str(),
                  std::abs(audit->fairness_parts[j]));
    }
  }

  const std::string out = args.Get("out");
  if (!out.empty()) {
    BundleMeta meta;
    meta.lambdas = fair->lambdas;
    meta.satisfied = fair->satisfied;
    meta.val_accuracy = fair->val_accuracy;
    meta.metric = args.Get("metric", "sp");
    meta.sensitive_attribute = args.Get("sensitive");
    meta.epsilon = spec.epsilon;
    const Status status = WriteBundle(*fair->model, fair->encoder, meta, out);
    if (!status.ok()) {
      std::fprintf(stderr, "error saving model: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("saved model bundle  : %s\n", out.c_str());
  }
  const std::string profile_out = args.Get("profile-out");
  if (!profile_out.empty()) {
    const int status = WriteProfileOut(*fair, profile_out);
    if (status != 0) return status;
  }
  return fair->satisfied ? 0 : 3;  // 3 = trained but constraint infeasible
}

int RunProfile(const Args& args) {
  if (!args.Has("data")) return Usage();
  Result<Dataset> dataset = LoadCsvDataset(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const DatasetProfile profile = ProfileDataset(*dataset, args.Get("sensitive"));
  std::printf("%s", profile.ToString().c_str());
  return 0;
}

int RunAudit(const Args& args) {
  if (!args.Has("data") || !args.Has("sensitive") || !args.Has("bundle")) {
    return Usage();
  }
  if (!CheckName("metric", args.Get("metric", "sp"), MetricNames())) return 2;
  Result<Dataset> dataset = LoadCsvDataset(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  Result<std::shared_ptr<const ModelBundle>> bundle =
      ModelBundle::Open(args.Get("bundle"));
  if (!bundle.ok()) {
    std::fprintf(stderr, "error: %s\n", bundle.status().ToString().c_str());
    return 1;
  }
  const FairnessSpec spec = MakeSpec(GroupByAttribute(args.Get("sensitive")),
                                     args.Get("metric", "sp"),
                                     args.GetDouble("epsilon", 0.05));
  auto audit = Audit(*(*bundle)->MakeModel(), (*bundle)->encoder(), *dataset,
                     {spec});
  if (!audit.ok()) {
    std::fprintf(stderr, "error: %s\n", audit.status().ToString().c_str());
    return 1;
  }
  std::printf("rows audited: %zu\n%s", dataset->NumRows(),
              audit->ToString().c_str());
  return audit->satisfied ? 0 : 3;
}

/// `bundle inspect model.ofb`: header, section table and CRC status.
int RunBundle(const Args& args) {
  if (args.positional.size() != 2 || args.positional[0] != "inspect") {
    return Usage();
  }
  Result<BundleInspection> inspection = InspectBundle(args.positional[1]);
  if (!inspection.ok()) {
    std::fprintf(stderr, "error: %s\n", inspection.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", inspection->ToString().c_str());
  return inspection->crc_ok ? 0 : 1;
}

/// Single-encode batch scoring: parse the CSV once, encode once, predict.
/// (`audit` re-derives groups and constraint metrics; this path is for raw
/// deployment scoring.)
int RunPredict(const Args& args) {
  if (!args.Has("data") || !args.Has("bundle")) return Usage();
  Result<Dataset> dataset = LoadCsvDataset(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const double threshold = args.GetDouble("threshold", 0.5);
  Result<std::shared_ptr<const ModelBundle>> bundle =
      ModelBundle::Open(args.Get("bundle"));
  if (!bundle.ok()) {
    std::fprintf(stderr, "error: %s\n", bundle.status().ToString().c_str());
    return 1;
  }
  const Matrix X = (*bundle)->encoder().Transform(*dataset);
  const std::vector<double> scores = (*bundle)->MakeModel()->PredictProba(X);
  size_t positives = 0;
  double score_sum = 0.0;
  for (const double s : scores) {
    if (s >= threshold) ++positives;
    score_sum += s;
  }
  const std::string out = args.Get("out");
  if (!out.empty()) {
    std::ofstream file(out);
    if (!file) {
      std::fprintf(stderr, "error: cannot open %s\n", out.c_str());
      return 1;
    }
    char line[32];
    for (const double s : scores) {
      std::snprintf(line, sizeof(line), "%.17g\n", s);
      file << line;
    }
    if (!file.flush()) {
      std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("wrote scores        : %s\n", out.c_str());
  }
  std::printf("rows scored         : %zu\n", scores.size());
  std::printf("positive rate       : %.4f\n",
              scores.empty() ? 0.0
                             : static_cast<double>(positives) /
                                   static_cast<double>(scores.size()));
  std::printf("mean score          : %.4f\n",
              scores.empty() ? 0.0
                             : score_sum / static_cast<double>(scores.size()));
  return 0;
}

/// Closed-loop serving: load the bundle once, encode the CSV once, then push
/// fixed-size batches through a BundleServer and report throughput/latency.
int RunServe(const Args& args) {
  if (!args.Has("bundle") || !args.Has("data")) return Usage();
  Result<Dataset> dataset = LoadCsvDataset(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  Result<std::shared_ptr<const ModelBundle>> bundle =
      ModelBundle::Open(args.Get("bundle"));
  if (!bundle.ok()) {
    std::fprintf(stderr, "error: %s\n", bundle.status().ToString().c_str());
    return 1;
  }
  // Every numeric flag is read before the server starts its workers.
  ServerOptions options;
  options.num_threads = static_cast<int>(args.GetLong("threads", 1));
  options.max_in_flight = static_cast<int>(args.GetLong("queue", 32));
  const double threshold = args.GetDouble("threshold", 0.5);
  const size_t batch =
      std::max<size_t>(1, static_cast<size_t>(args.GetLong("batch", 256)));
  const long repeat = std::max(1L, args.GetLong("repeat", 1));
  BundleServer server(*bundle, options);

  Result<PredictRequest> full =
      MakeRequest(**bundle, *dataset, args.Get("group"), threshold);
  if (!full.ok()) {
    std::fprintf(stderr, "error: %s\n", full.status().ToString().c_str());
    return 1;
  }
  const size_t n = full->features.rows();

  // Pre-slice the encoded matrix into batch requests (encode cost stays out
  // of the serving loop).
  std::vector<PredictRequest> requests;
  for (size_t start = 0; start < n; start += batch) {
    const size_t end = std::min(n, start + batch);
    std::vector<size_t> rows(end - start);
    for (size_t i = start; i < end; ++i) rows[i - start] = i;
    PredictRequest request;
    request.threshold = full->threshold;
    request.features = full->features.SelectRows(rows);
    if (!full->group_ids.empty()) {
      request.group_ids.assign(full->group_ids.begin() + start,
                               full->group_ids.begin() + end);
    }
    requests.push_back(std::move(request));
  }

  std::vector<double> latencies_us;
  latencies_us.reserve(requests.size() * static_cast<size_t>(repeat));
  PredictResponse last;
  const auto wall_start = std::chrono::steady_clock::now();
  for (long r = 0; r < repeat; ++r) {
    for (const PredictRequest& request : requests) {
      const auto t0 = std::chrono::steady_clock::now();
      Result<PredictResponse> response = server.Handle(request);
      const auto t1 = std::chrono::steady_clock::now();
      if (!response.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     response.status().ToString().c_str());
        return 1;
      }
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      last = std::move(*response);
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  std::sort(latencies_us.begin(), latencies_us.end());
  auto quantile = [&](double q) {
    if (latencies_us.empty()) return 0.0;
    const size_t rank = std::min(
        latencies_us.size() - 1,
        static_cast<size_t>(q * static_cast<double>(latencies_us.size())));
    return latencies_us[rank];
  };
  const double total_rows = static_cast<double>(n) * static_cast<double>(repeat);
  const double qps =
      wall_s > 0.0 ? static_cast<double>(latencies_us.size()) / wall_s : 0.0;
  OF_GAUGE_SET("serve.qps", qps);

  std::printf("bundle              : %s (%s, %s)\n", args.Get("bundle").c_str(),
              (*bundle)->meta().family.c_str(),
              (*bundle)->mapped() ? "mmap" : "owned buffer");
  std::printf("rows served         : %.0f (%zu requests, batch %zu)\n",
              total_rows, latencies_us.size(), batch);
  std::printf("throughput          : %.0f rows/s, %.1f req/s\n",
              wall_s > 0.0 ? total_rows / wall_s : 0.0, qps);
  std::printf("latency p50/p99     : %.0f us / %.0f us\n", quantile(0.50),
              quantile(0.99));
  if (!last.groups.empty()) {
    for (const GroupStats& g : last.groups) {
      std::printf("group %-13d : %lld rows, positive rate %.4f\n", g.group_id,
                  g.rows, g.positive_rate);
    }
    std::printf("max group gap       : %.4f (last batch)\n", last.max_gap);
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      // Bare operand (subcommand or file path) — collected in order.
      args.positional.push_back(key);
      continue;
    }
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.flags[key.substr(2)] = argv[++i];
    } else {
      // Valueless switch (e.g. a bare --resume): stored as "1".
      args.flags[key.substr(2)] = "1";
    }
  }
  // `bundle` takes positional operands; every other command rejects them
  // (previously any bare token was a usage error — keep that contract).
  if (args.command != "bundle" && !args.positional.empty()) return Usage();
  if (args.command == "synth") return RunSynth(args);
  if (args.command == "profile") return RunProfile(args);
  if (args.command == "train") return RunTrain(args, /*explain=*/false);
  if (args.command == "explain") return RunTrain(args, /*explain=*/true);
  if (args.command == "audit") return RunAudit(args);
  if (args.command == "bundle") return RunBundle(args);
  if (args.command == "predict") return RunPredict(args);
  if (args.command == "serve") return RunServe(args);
  return Usage();
}

}  // namespace
}  // namespace cli
}  // namespace omnifair

int main(int argc, char** argv) {
  // Honor OMNIFAIR_TELEMETRY / OMNIFAIR_METRICS_OUT like the benches do.
  omnifair::InitTelemetryFromEnv();
  return omnifair::cli::Main(argc, argv);
}
