#ifndef OMNIFAIR_ML_TRAINER_REGISTRY_H_
#define OMNIFAIR_ML_TRAINER_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"

namespace omnifair {

/// Creates a trainer by short name, with per-experiment seed:
///   "lr"  -> LogisticRegressionTrainer
///   "dt"  -> DecisionTreeTrainer
///   "rf"  -> RandomForestTrainer
///   "xgb" -> GbdtTrainer
///   "nn"  -> MlpTrainer
///   "nb"  -> NaiveBayesTrainer
/// "dt_hist", "rf_hist", and "xgb_hist" are aliases of "dt", "rf", and
/// "xgb": they once selected histogram split search, which is now the only
/// split search (DESIGN.md §11), and stay so existing scripts keep working.
/// Aborts on unknown names (programmer error); callers holding user input
/// check it against TrainerNames() first.
std::unique_ptr<Trainer> MakeTrainer(const std::string& name, uint64_t seed = 42);

/// Optional hyperparameter overrides applied on top of a family's defaults.
/// Zero values mean "keep the default". batch_size/epochs/lr_schedule only
/// affect the SGD families (lr, nn); other families ignore them.
struct TrainerOverrides {
  size_t batch_size = 0;  ///< > 0 switches lr/nn to mini-batch SGD
  int epochs = 0;         ///< mini-batch epochs (0 = family default)
  LrSchedule lr_schedule = LrSchedule::kConstant;
};

std::unique_ptr<Trainer> MakeTrainer(const std::string& name, uint64_t seed,
                                     const TrainerOverrides& overrides);

/// Every name MakeTrainer accepts, aliases included.
std::vector<std::string> TrainerNames();

/// The four model families of the paper's Table 5 header: lr, rf, xgb, nn.
std::vector<std::string> PaperModelNames();

}  // namespace omnifair

#endif  // OMNIFAIR_ML_TRAINER_REGISTRY_H_
