#ifndef OMNIFAIR_CORE_STREAM_TUNE_H_
#define OMNIFAIR_CORE_STREAM_TUNE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "core/fairness_metric.h"
#include "data/chunked_dataset.h"
#include "util/status.h"

namespace omnifair {

// ---------------------------------------------------------------------------
// Out-of-core Algorithm 1 (DESIGN.md §16).
//
// Tunes a single lambda for a logistic-regression model over a chunked
// dataset, streaming one block at a time: every trainer fit is weighted
// mini-batch SGD over the train blocks, every candidate is scored by a
// streamed pass over the validation blocks. Peak resident memory is one
// decoded block regardless of dataset size. The search is the one
// LambdaTuner drives (ExponentialBracket / Bisect in lambda_tuner.h), and
// weights and validation values both come from LabelCoefficientsOf.
//
// Restricted to prediction-independent metrics (SP / MR / FPR / FNR): their
// Eq. 12 coefficients depend only on (group, label) and per-group label
// counts, so the per-row weight collapses to a 2-entry-per-group lookup
// table built in one counting pass — FOR / FDR (whose coefficients depend on
// h(x)) return kUnsupported.
// ---------------------------------------------------------------------------

/// Learning-rate schedule of the streaming tuner's mini-batch SGD.
enum class LrSchedule {
  /// step = learning_rate for every batch.
  kConstant,
  /// step = learning_rate / sqrt(t) where t is the global 1-based batch
  /// counter — the classic Robbins-Monro decay that keeps late batches from
  /// undoing converged coefficients on multi-epoch runs.
  kInvSqrt,
};

/// Knobs of the streaming tuner: Algorithm 1 search parameters plus the
/// mini-batch SGD hyperparameters of the inner fits.
struct StreamTuneOptions {
  /// Prediction-independent metric (SP / MR / FPR / FNR).
  MetricKind metric = MetricKind::kStatisticalParity;
  /// The constrained group pair, as indices into the chunked file's
  /// group_names dictionary.
  size_t group1 = 0;
  size_t group2 = 1;
  /// Constraint threshold: |f(g1) - f(g2)| <= epsilon on validation.
  double epsilon = 0.05;

  // Algorithm 1 search: the same fields of TuneOptions, fed to the shared
  // ExponentialBracket (at most max_doublings fits) and Bisect (to tau).
  double tau = 1e-3;
  double initial_step = 1.0;
  int max_doublings = 24;

  /// Deterministic block-level split: block i is validation iff
  /// i % val_block_period == val_block_period - 1.
  size_t val_block_period = 5;

  // Inner weighted mini-batch SGD on the LR objective of
  // LogisticRegressionTrainer (DESIGN.md §16 says why it is not Newton).
  size_t batch_size = 4096;
  int epochs = 3;
  double learning_rate = 1.0;
  double l2 = 1e-4;
  LrSchedule lr_schedule = LrSchedule::kConstant;
  uint64_t shuffle_seed = 17;
  int max_divergence_retries = 3;
};

/// Per-(group, label) Eq. 12 weight table:
///   w_i = max(0, 1 + n_train * lambda * s[group_i][label_i]).
/// s is +c(g1, y) for rows in group1, -c(g2, y) for rows in group2, 0
/// elsewhere, with c the metric's coefficient computed from the train-split
/// group/label counts by LabelCoefficientsOf, the formulas behind
/// FairnessMetric::Coefficients.
struct StreamCoefficientTable {
  std::vector<std::array<double, 2>> s;  ///< [group][label]
  uint64_t n_train = 0;
};

/// One counting pass over the train blocks; exposed so tests can check
/// weight parity against the in-memory WeightComputer.
Result<StreamCoefficientTable> BuildStreamCoefficientTable(
    const ChunkedDataset& data, const StreamTuneOptions& options);

/// Outcome of a streaming tune (mirrors TuneResult for the LR-on-disk case).
struct StreamTuneResult {
  /// Learned parameters: theta[0..nf-1] feature weights, theta[nf] bias.
  std::vector<double> theta;
  double lambda = 0.0;
  bool satisfied = false;
  double val_accuracy = 0.0;
  /// f(g1) - f(g2) on the validation blocks for the returned model.
  double val_fairness_gap = 0.0;
  int models_trained = 0;
};

/// Runs the out-of-core Algorithm 1 with the in-memory tuner's edge rules:
/// no bracket within max_doublings returns the lambda = 0 model unsatisfied,
/// and a bisection that never lands in the band returns the model at the
/// bracket's resolved end, unsatisfied. Deterministic for fixed options
/// (the SGD visits blocks in a seeded shuffled order and accumulates
/// serially, so results are bit-identical at any thread count).
Result<StreamTuneResult> StreamTuneLambda(const ChunkedDataset& data,
                                          const StreamTuneOptions& options);

}  // namespace omnifair

#endif  // OMNIFAIR_CORE_STREAM_TUNE_H_
