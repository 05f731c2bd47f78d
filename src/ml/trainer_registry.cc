#include "ml/trainer_registry.h"

#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "util/logging.h"

namespace omnifair {

std::unique_ptr<Trainer> MakeTrainer(const std::string& name, uint64_t seed) {
  if (name == "lr") {
    return std::make_unique<LogisticRegressionTrainer>();
  }
  if (name == "dt" || name == "dt_hist") {
    DecisionTreeOptions options;
    options.seed = seed;
    return std::make_unique<DecisionTreeTrainer>(options);
  }
  if (name == "rf" || name == "rf_hist") {
    RandomForestOptions options;
    options.seed = seed;
    return std::make_unique<RandomForestTrainer>(options);
  }
  if (name == "xgb" || name == "xgb_hist") {
    GbdtOptions options;
    return std::make_unique<GbdtTrainer>(options);
  }
  if (name == "nb") {
    return std::make_unique<NaiveBayesTrainer>();
  }
  if (name == "nn") {
    MlpOptions options;
    options.seed = seed;
    return std::make_unique<MlpTrainer>(options);
  }
  OF_CHECK(false) << "unknown trainer name: " << name;
  return nullptr;
}

std::vector<std::string> TrainerNames() {
  return {"lr", "dt", "rf", "xgb", "nn", "nb", "dt_hist", "rf_hist", "xgb_hist"};
}

std::vector<std::string> PaperModelNames() { return {"lr", "rf", "xgb", "nn"}; }

}  // namespace omnifair
