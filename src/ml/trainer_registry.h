#ifndef OMNIFAIR_ML_TRAINER_REGISTRY_H_
#define OMNIFAIR_ML_TRAINER_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"

namespace omnifair {

/// Creates a trainer by short name with its family's default options. The
/// per-experiment seed drives the randomized families (dt, rf, nn); lr, xgb
/// and nb are deterministic and ignore it. There are no per-call overrides:
/// callers that need other hyperparameters construct the trainer directly
/// from its options struct.
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

/// Every name MakeTrainer accepts, aliases included.
std::vector<std::string> TrainerNames();

/// The four model families of the paper's Table 5 header: lr, rf, xgb, nn.
std::vector<std::string> PaperModelNames();

}  // namespace omnifair

#endif  // OMNIFAIR_ML_TRAINER_REGISTRY_H_
