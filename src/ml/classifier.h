#ifndef OMNIFAIR_ML_CLASSIFIER_H_
#define OMNIFAIR_ML_CLASSIFIER_H_

#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace omnifair {

/// A trained binary classifier h_theta. Immutable once produced by a Trainer.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// P(y = 1 | x) for each row of X.
  virtual std::vector<double> PredictProba(const Matrix& X) const = 0;

  /// Hard 0/1 predictions; the default thresholds PredictProba at 0.5.
  virtual std::vector<int> Predict(const Matrix& X) const;

  /// Adds P(y = 1 | x) for rows [row_begin, row_end) of X into
  /// proba[row_begin..row_end). The default computes PredictProba over all of
  /// X and adds the slice; models with cheap per-row prediction override it
  /// to skip the temporary (the random forest accumulates every tree straight
  /// into the caller's buffer).
  virtual void AccumulateProba(const Matrix& X, size_t row_begin,
                               size_t row_end, std::vector<double>& proba) const;

  /// Model family name ("logistic_regression", "random_forest", ...).
  virtual std::string Name() const = 0;
};

/// An ML training algorithm "A" in the paper's notation: a black box that
/// maximizes (weighted) accuracy. This is the only interface OmniFair needs
/// from a model family — the per-example `weights` argument is exactly the
/// `sample_weight` hook the paper relies on in scikit-learn (§1, point 2).
///
/// Weights must be non-negative (OmniFair clips the Lagrangian weights at
/// zero before calling Fit; see core/weights.h). Trainers are stateful only
/// for warm starts: calling Fit repeatedly with warm start enabled reuses the
/// previous solution as initialization (paper §7.2.1, Table 6).
class Trainer {
 public:
  virtual ~Trainer() = default;

  /// Trains on (X, y) with per-example weights (same length as y).
  virtual std::unique_ptr<Classifier> Fit(const Matrix& X,
                                          const std::vector<int>& y,
                                          const std::vector<double>& weights) = 0;

  /// Convenience: unit weights.
  std::unique_ptr<Classifier> Fit(const Matrix& X, const std::vector<int>& y);

  virtual std::string Name() const = 0;

  /// A fresh trainer of the same family with the same hyperparameters and no
  /// warm-start state, safe to drive from another thread. Returns nullptr
  /// when the family does not support cloning; parallel tuners then fall
  /// back to the serial path.
  virtual std::unique_ptr<Trainer> Clone() const { return nullptr; }

  /// Whether this trainer can reuse the previous fit as initialization.
  virtual bool SupportsWarmStart() const { return false; }
  /// Enables/disables warm starting (no-op when unsupported).
  virtual void SetWarmStart(bool /*enabled*/) {}
  /// Drops any retained warm-start state.
  virtual void ResetWarmStart() {}
};

}  // namespace omnifair

#endif  // OMNIFAIR_ML_CLASSIFIER_H_
