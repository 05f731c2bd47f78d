#include "core/omnifair.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "data/split.h"
#include "ml/metrics.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace omnifair {

std::vector<int> FairModel::Predict(const Dataset& dataset) const {
  OF_CHECK(model != nullptr);
  return model->Predict(encoder.Transform(dataset));
}

std::vector<double> FairModel::PredictProba(const Dataset& dataset) const {
  OF_CHECK(model != nullptr);
  return model->PredictProba(encoder.Transform(dataset));
}

OmniFair::OmniFair(OmniFairOptions options) : options_(std::move(options)) {}

Result<FairModel> OmniFair::Train(const Dataset& train, const Dataset& val,
                                  Trainer* trainer,
                                  const std::vector<FairnessSpec>& specs) const {
  // An explicit per-call telemetry level overrides the process-global one
  // for the duration of this Train (DESIGN.md §9). kOff is the documented
  // zero-overhead path: no counters, no spans, no TuneReport.
  std::optional<ScopedTelemetryLevel> scoped_level;
  if (options_.telemetry.level.has_value()) {
    scoped_level.emplace(*options_.telemetry.level);
  }
  OF_TRACE_SPAN("omnifair_train");
  OF_COUNTER_INC("omnifair.train_calls");

  const bool checkpointing = !options_.checkpoint.path.empty() ||
                             !options_.checkpoint.resume_from.empty();
  if (checkpointing && options_.warm_start) {
    return Status::InvalidArgument(
        "checkpoint/resume is not supported with warm_start: warm starts "
        "carry optimizer state across fits that a resumed process lacks");
  }

  // Profiling rides on the counters level: stage timers, bracketed registry
  // snapshots for cache/pool attribution, and the process CPU clock. kOff
  // keeps the documented zero-overhead path (no clocks, no snapshots).
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
  // Create charges itself to the kSetup/kEncode stages internally, so the
  // explain table separates feature-encoding cost from group induction.
  Result<std::unique_ptr<FairnessProblem>> problem = FairnessProblem::Create(
      train, val, specs, trainer, options_.encoder,
      profiling ? &profiler : nullptr);
  if (!problem.ok()) return problem.status();
  if (profiling) (*problem)->SetProfiler(&profiler);

  // The budget starts ticking here; every Fit* inside the tuners is charged
  // to it, and on expiry the search returns the best model reached so far.
  TrainBudget budget(options_.budget);
  (*problem)->set_budget(&budget);

  const bool warm = options_.warm_start && trainer->SupportsWarmStart();
  if (warm) {
    trainer->ResetWarmStart();
    trainer->SetWarmStart(true);
  }

  FairModel fair;
  const bool record_trajectory =
      EffectiveTelemetryLevel() >= TelemetryLevel::kCounters;
  if (record_trajectory) (*problem)->StartTuneReport(&fair.tune_report);

  // The top-level thread knob flows into the tuner options; the per-field
  // knob wins only when the top-level one is left at its serial default.
  HillClimbOptions hill_climb = options_.hill_climb;
  if (options_.num_threads > 1) hill_climb.tune.num_threads = options_.num_threads;
  if (checkpointing) hill_climb.tune.checkpoint = options_.checkpoint;

  if ((*problem)->NumConstraints() == 1) {
    fair.tune_report.algorithm = "lambda_tuner";
    const LambdaTuner tuner(hill_climb.tune);
    TuneResult tuned = tuner.TuneSingle(**problem);
    fair.model = std::move(tuned.model);
    fair.outcome = std::move(tuned.status);
    fair.lambdas = {tuned.lambda};
    fair.satisfied = tuned.satisfied;
    fair.val_accuracy = tuned.val_accuracy;
    fair.val_fairness_parts = std::move(tuned.val_fairness_parts);
    fair.models_trained = tuned.models_trained;
  } else {
    fair.tune_report.algorithm = "hill_climb";
    const HillClimber climber(hill_climb);
    MultiTuneResult tuned = climber.Run(**problem);
    fair.model = std::move(tuned.model);
    fair.outcome = std::move(tuned.status);
    fair.lambdas = std::move(tuned.lambdas);
    fair.satisfied = tuned.satisfied;
    fair.val_accuracy = tuned.val_accuracy;
    fair.val_fairness_parts = std::move(tuned.val_fairness_parts);
    fair.models_trained = tuned.models_trained;
  }
  (*problem)->StartTuneReport(nullptr);
  (*problem)->set_budget(nullptr);
  (*problem)->SetProfiler(nullptr);
  fair.tune_report.models_trained = fair.models_trained;

  if (profiling) {
    const double total_wall_us = stopwatch.ElapsedSeconds() * 1e6;
    const long long cpu_now_ns = ProcessCpuNowNs();
    const double total_cpu_us =
        (cpu_start_ns >= 0 && cpu_now_ns >= 0)
            ? static_cast<double>(cpu_now_ns - cpu_start_ns) / 1e3
            : 0.0;
    fair.run_profile = BuildRunProfile(
        profiler, metrics_before, MetricsRegistry::Global().Snapshot(),
        fair.tune_report.algorithm, hill_climb.tune.num_threads, total_wall_us,
        total_cpu_us);
  }

  if (warm) trainer->SetWarmStart(false);
  if (fair.model == nullptr) {
    // The trainer never produced a model; surface the firewall's status
    // rather than a FairModel that cannot predict.
    if (fair.outcome.ok()) return Status::Internal("trainer produced no model");
    return fair.outcome;
  }
  fair.encoder = (*problem)->encoder();
  fair.train_seconds = stopwatch.ElapsedSeconds();
  return fair;
}

Result<FairModel> OmniFair::TrainWithSplit(const Dataset& dataset, Trainer* trainer,
                                           const std::vector<FairnessSpec>& specs,
                                           uint64_t seed,
                                           AuditReport* test_report) const {
  const TrainValTestSplit split = SplitDefault(dataset, seed);
  Result<FairModel> fair = Train(split.train, split.val, trainer, specs);
  if (!fair.ok()) return fair;
  if (test_report != nullptr) {
    Result<AuditReport> audit =
        Audit(*fair->model, fair->encoder, split.test, specs);
    if (!audit.ok()) return audit.status();
    *test_report = std::move(*audit);
  }
  return fair;
}

Result<AuditReport> Audit(const Classifier& model, const FeatureEncoder& encoder,
                          const Dataset& dataset,
                          const std::vector<FairnessSpec>& specs) {
  Result<std::vector<ConstraintSpec>> constraints = InduceConstraints(specs, dataset);
  if (!constraints.ok()) return constraints.status();

  const Matrix X = encoder.Transform(dataset);
  const std::vector<double> scores = model.PredictProba(X);
  std::vector<int> predictions(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) predictions[i] = scores[i] >= 0.5 ? 1 : 0;

  AuditReport report;
  report.accuracy = Accuracy(dataset.labels(), predictions);
  report.roc_auc = RocAuc(dataset.labels(), scores);

  const ConstraintEvaluator evaluator(*constraints, dataset);
  report.fairness_parts = evaluator.FairnessParts(predictions);
  report.satisfied = true;
  for (size_t j = 0; j < evaluator.NumConstraints(); ++j) {
    const ConstraintSpec& constraint = evaluator.constraint(j);
    report.constraint_labels.push_back(constraint.metric->Name() + "(" +
                                       constraint.group1 + " vs " +
                                       constraint.group2 + ")");
    const double disparity = std::fabs(report.fairness_parts[j]);
    report.max_disparity = std::max(report.max_disparity, disparity);
    if (disparity > constraint.epsilon) report.satisfied = false;
  }

  // Per-(metric, group) dashboard rows: every spec's grouping evaluated
  // once, each non-empty group reported with its metric value and accuracy.
  for (const FairnessSpec& spec : specs) {
    Result<GroupMap> groups_result = EvaluateGrouping(spec.grouping, dataset);
    if (!groups_result.ok()) continue;  // firewalled; already logged
    const GroupMap& groups = *groups_result;
    for (const auto& [group_name, members] : groups) {
      if (members.empty()) continue;
      GroupAudit row;
      row.metric = spec.metric->Name();
      row.group = group_name;
      row.size = members.size();
      row.value = spec.metric->Evaluate(dataset, members, predictions);
      row.accuracy = CountConfusion(dataset.labels(), predictions, members).Accuracy();
      report.groups.push_back(std::move(row));
    }
  }
  return report;
}

std::string AuditReport::ToString() const {
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof(line),
                "overall: accuracy %.2f%%  ROC AUC %.3f  max disparity %.4f  %s\n",
                100.0 * accuracy, roc_auc, max_disparity,
                satisfied ? "(all constraints hold)" : "(CONSTRAINT VIOLATED)");
  os << line;
  os << "per-constraint disparities:\n";
  for (size_t j = 0; j < constraint_labels.size(); ++j) {
    std::snprintf(line, sizeof(line), "  %-44s %+0.4f\n",
                  constraint_labels[j].c_str(), fairness_parts[j]);
    os << line;
  }
  if (!groups.empty()) {
    os << "per-group breakdown:\n";
    std::snprintf(line, sizeof(line), "  %-8s %-24s %8s %10s %10s\n", "metric",
                  "group", "size", "value", "accuracy");
    os << line;
    for (const GroupAudit& row : groups) {
      std::snprintf(line, sizeof(line), "  %-8s %-24s %8zu %10.4f %9.2f%%\n",
                    row.metric.c_str(), row.group.c_str(), row.size, row.value,
                    100.0 * row.accuracy);
      os << line;
    }
  }
  return os.str();
}

}  // namespace omnifair
