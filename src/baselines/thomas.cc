#include "baselines/thomas.h"

#include <cmath>

#include "baselines/cmaes.h"
#include "core/problem.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "util/stopwatch.h"

namespace omnifair {

ThomasSeldonian::ThomasSeldonian(Options options) : options_(options) {}

bool ThomasSeldonian::SupportsMetric(const FairnessMetric& metric) const {
  // Any metric expressible through predictions works in the penalized
  // objective, including prediction-parameterized ones (evaluated exactly,
  // since CMA-ES never needs gradients).
  return true;
}

Result<BaselineResult> ThomasSeldonian::Train(const Dataset& train, const Dataset& val,
                                              Trainer* /*trainer*/,
                                              const FairnessSpec& spec) {
  Stopwatch stopwatch;
  // The problem object supplies encoding and constraint evaluation; the
  // trainer inside is only used as a placeholder and never invoked.
  LogisticRegressionTrainer placeholder;
  Result<std::unique_ptr<FairnessProblem>> problem =
      FairnessProblem::Create(train, val, {spec}, &placeholder);
  if (!problem.ok()) return problem.status();

  const Matrix& X = (*problem)->train_features();
  const std::vector<int>& y = (*problem)->train().labels();
  const size_t d = X.cols();
  const size_t n = X.rows();

  // Candidate objective: -accuracy + rho * sum_j max(0, |FP_j| - margin *
  // eps_j), measured on the training split with a safety margin on epsilon.
  std::vector<int> predictions(n);
  long long evaluations = 0;
  auto make_objective = [&](double margin) {
    return [&, margin](const std::vector<double>& theta) {
      for (size_t i = 0; i < n; ++i) {
        const float* row = X.RowF(i);
        double z = theta[d];
        for (size_t c = 0; c < d; ++c) z += row[c] * theta[c];
        predictions[i] = z >= 0.0 ? 1 : 0;
      }
      ++evaluations;
      double value = -Accuracy(y, predictions);
      const std::vector<double> fps =
          (*problem)->train_evaluator().FairnessParts(predictions);
      for (size_t j = 0; j < fps.size(); ++j) {
        const double slack = std::fabs(fps[j]) - margin * (*problem)->Epsilon(j);
        if (slack > 0.0) value += options_.penalty * slack;
      }
      return value;
    };
  };

  BaselineResult result;
  result.encoder = (*problem)->encoder();
  // Seldonian loop: optimize with a train-side safety margin, then run the
  // safety test on held-out data; if it fails, retighten and retry (the
  // candidate-selection / safety-test split of the framework).
  double margin = options_.margin;
  for (int attempt = 0; attempt < 3; ++attempt) {
    CmaesOptions cmaes_options;
    cmaes_options.max_iterations = options_.cmaes_iterations;
    cmaes_options.seed = options_.seed + static_cast<uint64_t>(attempt);
    Cmaes cmaes(cmaes_options);
    const CmaesResult solution =
        cmaes.Minimize(make_objective(margin), std::vector<double>(d + 1, 0.0));
    std::vector<double> coefficients(solution.best_x.begin(),
                                     solution.best_x.end() - 1);
    const double intercept = solution.best_x.back();
    auto model = std::make_unique<LogisticRegressionModel>(std::move(coefficients),
                                                           intercept);
    const std::vector<int> val_preds = (*problem)->PredictVal(*model);
    const bool satisfied =
        (*problem)->val_evaluator().MaxViolation(val_preds) <= 1e-12;
    const double accuracy = (*problem)->ValAccuracy(val_preds);
    if (satisfied || result.model == nullptr) {
      result.model = std::move(model);
      result.satisfied = satisfied;
      result.val_accuracy = accuracy;
      result.val_fairness_parts = (*problem)->val_evaluator().FairnessParts(val_preds);
    }
    if (satisfied) break;
    margin *= 0.5;  // tighten the candidate-selection epsilon and retry
  }
  // One CMA-ES candidate evaluation ~ one "model" in spirit; report the
  // count so efficiency benches can contrast with retraining-based methods.
  result.models_trained = static_cast<int>(evaluations);
  result.train_seconds = stopwatch.ElapsedSeconds();
  return result;
}

}  // namespace omnifair
