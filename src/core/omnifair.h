#ifndef OMNIFAIR_CORE_OMNIFAIR_H_
#define OMNIFAIR_CORE_OMNIFAIR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/grid_search.h"
#include "core/hill_climbing.h"
#include "core/lambda_tuner.h"
#include "core/problem.h"
#include "core/run_profile.h"
#include "core/spec.h"
#include "core/tune_report.h"
#include "data/dataset.h"
#include "data/encoder.h"
#include "ml/classifier.h"
#include "util/status.h"
#include "util/telemetry.h"
#include "util/train_budget.h"

namespace omnifair {

/// Top-level configuration of the OmniFair system.
struct OmniFairOptions {
  HillClimbOptions hill_climb;  ///< includes the Algorithm 1 TuneOptions
  EncoderOptions encoder;
  /// Enable the warm-start optimization (§7.2.1, Table 6) when the trainer
  /// supports it (LR, NN).
  bool warm_start = false;
  /// Optional resource cap on the tuning search (wall-clock deadline and/or
  /// max trainer invocations). Defaults to unlimited. On expiry Train still
  /// returns the best model found, with FairModel::outcome set to
  /// DEADLINE_EXCEEDED (DESIGN.md §8).
  TrainBudgetOptions budget;
  /// Worker threads for the tuning search (DESIGN.md §10). 1 (the default)
  /// keeps every code path exactly serial. Values > 1 are copied into the
  /// embedded TuneOptions (hill_climb.tune.num_threads), running the
  /// λ-search probe fits and the per-iteration constraint evaluation
  /// concurrently on the shared process pool; the selected model and λ are
  /// identical to a serial run. Setting hill_climb.tune.num_threads
  /// directly works too; this top-level knob only overrides when > 1.
  /// (The pool itself is sized by OMNIFAIR_THREADS / the hardware, this
  /// caps how much of it one Train call uses.)
  int num_threads = 1;
  /// Observability knob (DESIGN.md §9). Unset inherits the process-global
  /// level (default: counters + TuneReport, no spans). Set it to
  /// TelemetryLevel::kOff for an explicit zero-overhead Train — no counters,
  /// no spans, and an empty FairModel::tune_report — or to kFullTrace to
  /// capture chrome://tracing spans for this call only.
  TelemetryOptions telemetry;
  /// Crash-safe checkpoint/resume for the tuning search (DESIGN.md §12):
  /// set `checkpoint.path` to persist resumable state and
  /// `checkpoint.resume_from` to continue a killed run; the resumed run's
  /// final model is bit-identical to an uninterrupted one. Copied into the
  /// embedded TuneOptions. Not supported together with warm_start (warm
  /// starts carry optimizer state across fits that a resumed process lacks)
  /// — Train fails with kInvalidArgument on that combination.
  CheckpointOptions checkpoint;
};

/// A fairness-constrained model plus everything needed to use and audit it.
struct FairModel {
  std::unique_ptr<Classifier> model;
  /// Encoder fitted on the training split; use it to encode test data.
  FeatureEncoder encoder;
  /// Final hyperparameter vector Lambda (one entry per induced constraint).
  std::vector<double> lambdas;
  /// Whether every induced constraint held on the validation split. When
  /// false the model is best-effort (the paper's NA(1) condition).
  bool satisfied = false;
  /// How the tuning search ended: kOk when it ran to completion,
  /// DEADLINE_EXCEEDED when the TrainBudget expired mid-search, INTERNAL
  /// when the trainer failed partway (exception firewall) but an earlier
  /// model could still be returned. The model is always usable; `outcome`
  /// tells you whether the search was cut short.
  Status outcome;
  double val_accuracy = 0.0;
  /// FP_j on validation per constraint (signed).
  std::vector<double> val_fairness_parts;
  int models_trained = 0;
  double train_seconds = 0.0;
  /// Full tuning trajectory: one TunePoint per trainer invocation, with the
  /// validation accuracy / fairness parts the tuner saw at each Lambda (the
  /// paper's Figure 2 data, recorded for free on every Train call). Empty
  /// when telemetry is off (DESIGN.md §9).
  TuneReport tune_report;
  /// Where the run spent its time: per-stage wall/CPU totals (setup, trainer
  /// fits, weight computation, predictions, constraint evaluation,
  /// checkpointing), fit counts, cache hit rates, and pool utilization
  /// (DESIGN.md §13). Rendered by `omnifair_cli explain` / --profile-out.
  /// Empty when telemetry is off.
  RunProfile run_profile;

  /// Hard predictions for a raw (un-encoded) dataset.
  std::vector<int> Predict(const Dataset& dataset) const;
  /// P(y=1) scores for a raw dataset.
  std::vector<double> PredictProba(const Dataset& dataset) const;
};

/// Per-group entry in an audit: one row of the fairness dashboard.
struct GroupAudit {
  std::string metric;
  std::string group;
  size_t size = 0;
  /// f(h, g) for this metric and group.
  double value = 0.0;
  /// Plain accuracy within the group.
  double accuracy = 0.0;
};

/// Result of auditing a model against fairness specs on some dataset.
struct AuditReport {
  double accuracy = 0.0;
  double roc_auc = 0.5;
  /// Signed FP_j per induced constraint.
  std::vector<double> fairness_parts;
  /// Human-readable "metric(g1 vs g2)" labels aligned with fairness_parts.
  std::vector<std::string> constraint_labels;
  /// max_j |FP_j|.
  double max_disparity = 0.0;
  /// Whether every |FP_j| <= epsilon_j.
  bool satisfied = false;
  /// Per-(metric, group) breakdown: one entry per distinct group of each
  /// spec, with the group's metric value and accuracy.
  std::vector<GroupAudit> groups;

  /// Renders the report as a fixed-width text dashboard.
  std::string ToString() const;
};

/// The OmniFair system: give it data, a black-box trainer and declarative
/// fairness specifications; get back an accuracy-maximal model satisfying
/// the constraints on the validation split.
///
/// Single induced constraint -> Algorithm 1 (LambdaTuner); multiple induced
/// constraints -> Algorithm 2 (HillClimber). No modification of the trainer
/// is ever required (model-agnostic by construction).
class OmniFair {
 public:
  explicit OmniFair(OmniFairOptions options = {});

  /// Trains a fair model. Returns kInvalidArgument for malformed specs;
  /// infeasibility is reported via FairModel::satisfied = false (callers
  /// may still use the best-effort model). Never throws: exceptions from
  /// the trainer or the grouping callables are converted to Status at the
  /// API boundary (DESIGN.md §8). When the trainer fails before any model
  /// exists the call returns kInternal; when it fails later, or the
  /// configured TrainBudget expires, the best model reached is returned
  /// with FairModel::outcome annotating the interruption.
  Result<FairModel> Train(const Dataset& train, const Dataset& val, Trainer* trainer,
                          const std::vector<FairnessSpec>& specs) const;

  /// Convenience: splits `dataset` 60/20/20 itself, trains on train+val and
  /// also audits on the held-out test split (returned via `test_report`).
  Result<FairModel> TrainWithSplit(const Dataset& dataset, Trainer* trainer,
                                   const std::vector<FairnessSpec>& specs,
                                   uint64_t seed, AuditReport* test_report) const;

  const OmniFairOptions& options() const { return options_; }

 private:
  OmniFairOptions options_;
};

/// Audits `model` on `dataset` (raw, un-encoded) against the specs:
/// accuracy, ROC AUC and every induced pairwise disparity.
Result<AuditReport> Audit(const Classifier& model, const FeatureEncoder& encoder,
                          const Dataset& dataset,
                          const std::vector<FairnessSpec>& specs);

}  // namespace omnifair

#endif  // OMNIFAIR_CORE_OMNIFAIR_H_
