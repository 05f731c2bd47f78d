#ifndef OMNIFAIR_ML_MLP_H_
#define OMNIFAIR_ML_MLP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"

namespace omnifair {

/// Hyperparameters for the multilayer perceptron.
struct MlpOptions {
  int hidden_units = 16;
  int max_epochs = 150;
  double learning_rate = 0.05;  // Adam step size
  double l2 = 1e-4;
  /// Convergence threshold on relative loss improvement per epoch.
  double tolerance = 1e-6;
  uint64_t seed = 23;
  /// Divergence recovery (DESIGN.md §8): on a non-finite epoch loss the
  /// parameters roll back to the last finite checkpoint, the Adam moments
  /// reset and the learning rate halves, at most this many times before the
  /// checkpoint model is returned as-is.
  int max_divergence_retries = 3;
};

/// A trained one-hidden-layer MLP: p = sigmoid(w2 . relu(W1 x + b1) + b2).
/// The weights are double; W1 is a flat row-major hidden x inputs array
/// (hidden unit j's weights at W1[j * inputs, (j + 1) * inputs)).
class MlpModel : public Classifier {
 public:
  MlpModel(size_t inputs, std::vector<double> W1, std::vector<double> b1,
           std::vector<double> w2, double b2);

  std::vector<double> PredictProba(const Matrix& X) const override;
  std::string Name() const override { return "mlp"; }

  size_t inputs() const { return inputs_; }
  size_t hidden_units() const { return b1_.size(); }
  const std::vector<double>& W1() const { return W1_; }
  const std::vector<double>& b1() const { return b1_; }
  const std::vector<double>& w2() const { return w2_; }
  double b2() const { return b2_; }

 private:
  size_t inputs_;
  std::vector<double> W1_;  // hidden x inputs, row-major
  std::vector<double> b1_;  // hidden
  std::vector<double> w2_;  // hidden
  double b2_;
};

/// Weighted neural network trained with full-batch Adam on the weighted
/// cross-entropy — the "NN" column of the paper's Table 5. Supports warm
/// starts like the LR trainer (the paper notes the warm-start optimization
/// "is also applicable to NN").
class MlpTrainer : public Trainer {
 public:
  explicit MlpTrainer(MlpOptions options = {});

  std::unique_ptr<Classifier> Fit(const Matrix& X, const std::vector<int>& y,
                                  const std::vector<double>& weights) override;
  using Trainer::Fit;

  std::string Name() const override { return "mlp"; }
  std::unique_ptr<Trainer> Clone() const override {
    return std::make_unique<MlpTrainer>(options_);
  }
  bool SupportsWarmStart() const override { return true; }
  void SetWarmStart(bool enabled) override { warm_start_ = enabled; }
  void ResetWarmStart() override { warm_params_.clear(); }

 private:
  MlpOptions options_;
  bool warm_start_ = false;
  std::vector<double> warm_params_;  // flat parameter vector
};

}  // namespace omnifair

#endif  // OMNIFAIR_ML_MLP_H_
