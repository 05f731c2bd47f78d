#ifndef OMNIFAIR_CORE_LAMBDA_TUNER_H_
#define OMNIFAIR_CORE_LAMBDA_TUNER_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/problem.h"
#include "ml/classifier.h"
#include "util/status.h"

namespace omnifair {

// ---------------------------------------------------------------------------
// Algorithm 1's search, written once. Both the in-memory LambdaTuner and the
// out-of-core StreamTuneLambda drive it: a probe fits at
// base + direction * magnitude and says where the fairness part landed.
// ---------------------------------------------------------------------------

/// Lemma 2 sign normalisation: FP increases with lambda, so a positive
/// violation fp0 calls for smaller lambda (-1) and a negative one for
/// larger lambda (+1).
double LemmaDirection(double fp0);

/// The crossing predicate: `fp` entered the band |fp| <= epsilon, or crossed
/// to the other side of it from fp0 (discrete model jumps can overshoot).
/// Equivalent to the paper's sign-normalised FP >= -epsilon test under
/// monotonicity, and still right when the FOR/FDR linear search reverses
/// the effective direction.
bool ResolvesViolation(double fp, double fp0, double epsilon);

/// What one probe fit reported.
enum class ProbeOutcome {
  kResolved,  ///< ResolvesViolation holds at this magnitude
  kViolated,  ///< still on the violating side
  kStop,      ///< no fit (trainer failure, budget, I/O): end the search now
};

/// Fits at base + direction * magnitude and reports the outcome.
using LambdaProbe = std::function<ProbeOutcome(double magnitude)>;

/// Magnitudes bracketing the crossing: `lo` violates, `hi` resolves.
struct LambdaBracket {
  double lo = 0.0;
  double hi = 0.0;
  bool bounded = false;
};

/// Exponential search (Algorithm 1 lines 21-27): probes initial_step,
/// 2 * initial_step, ... for at most `max_doublings` fits, stopping at the
/// first resolved magnitude (bounded) or at a kStop (unbounded).
LambdaBracket ExponentialBracket(double initial_step, int max_doublings,
                                 const LambdaProbe& probe);

/// Binary search (lines 11-19): probes midpoints of a bounded bracket until
/// hi - lo < tau or the probe stops.
void Bisect(double tau, LambdaBracket* bracket, const LambdaProbe& probe);

/// The one keep-the-most-accurate-in-band rule: a candidate replaces the
/// kept one only with strictly greater validation accuracy, so the first of
/// equally accurate candidates wins.
template <typename Candidate>
struct InBandBest {
  Candidate candidate{};
  double accuracy = -1.0;  ///< -1 until a candidate is kept
  bool has = false;

  void Consider(Candidate c, double candidate_accuracy) {
    if (has && !(candidate_accuracy > accuracy)) return;
    candidate = std::move(c);
    accuracy = candidate_accuracy;
    has = true;
  }
};

/// Knobs of Algorithm 1. Defaults follow the paper (tau ~ 1e-4..1e-3,
/// delta ~ 1e-3..2e-2); slightly coarser defaults keep retraining counts
/// reasonable across the benchmark suite and are configurable per run.
struct TuneOptions {
  /// Binary-search resolution on lambda (paper's tau, line 11).
  double tau = 1e-3;
  /// Linear-search step for prediction-parameterized metrics (paper's
  /// delta, line 10).
  double delta = 0.02;
  /// Initial exponential-search bound (paper initializes lambda_u = 1).
  double initial_step = 1.0;
  /// Cap on doublings in the exponential search.
  int max_doublings = 24;
  /// Cap on linear-search steps.
  int max_linear_steps = 400;
  /// Future-work extension (paper §8): fraction of the training split used
  /// for the fits of the *bounding* stage (exponential/linear search);
  /// 1.0 disables. The binary-search refinement always trains on the full
  /// split, so final quality is unaffected — only the cheap bracketing
  /// fits are subsampled.
  double bounding_subsample = 1.0;
  uint64_t subsample_seed = 5;
  /// Worker threads for the linear-search bracket probes (the two direction
  /// walks of the prediction-parameterized branch are independent within a
  /// step and fit concurrently on trainer clones). 1 keeps the exact serial
  /// path; the exponential and binary stages are sequentially dependent and
  /// always run serially. The chosen model and lambda match the serial
  /// search; the only divergence is that the step on which one direction
  /// resolves still pays the other direction's already-started fit (at most
  /// one extra model per coordinate tune, recorded in the TuneReport).
  int num_threads = 1;
  /// Crash-safe checkpoint/resume for this run (DESIGN.md §12). Not
  /// supported together with warm-start trainers.
  CheckpointOptions checkpoint;
};

/// Outcome of one Algorithm 1 run (or one hill-climbing coordinate step).
struct TuneResult {
  /// Best model found. On infeasibility this is the closest model reached
  /// (best-effort), with satisfied=false. Null only when the trainer failed
  /// (exception firewall) before any model could be produced — `status`
  /// carries the cause then.
  std::unique_ptr<Classifier> model;
  /// kOk when the search ran to completion. DEADLINE_EXCEEDED when the
  /// TrainBudget expired mid-search (model is the best found so far);
  /// INTERNAL when the trainer threw or returned null (model is the best
  /// earlier candidate, possibly null).
  Status status;
  /// Final value of the tuned lambda coordinate.
  double lambda = 0.0;
  /// Whether the target constraint is satisfied on the validation split.
  bool satisfied = false;
  double val_accuracy = 0.0;
  /// FP_j on validation for every constraint, for the returned model.
  std::vector<double> val_fairness_parts;
  /// Trainer invocations consumed by this call.
  int models_trained = 0;
};

/// Algorithm 1: tunes a single lambda hyperparameter so that one fairness
/// constraint holds on the validation split while maximizing validation
/// accuracy. Relies on the monotonicity of FP(theta) in lambda (Lemma 2):
/// exponential search brackets the crossing, binary search pins it to tau.
/// For prediction-parameterized metrics (FOR/FDR) the bracketing uses the
/// incremental linear search of §5.2, carrying the previous model's
/// predictions to approximate w_i(lambda, h_theta).
class LambdaTuner {
 public:
  explicit LambdaTuner(TuneOptions options = {});

  /// Full Algorithm 1 for a single-constraint problem (starts at lambda=0).
  TuneResult TuneSingle(FairnessProblem& problem) const;

  /// Coordinate step used by Algorithm 2: tunes (*lambdas)[j], holding the
  /// other coordinates at their current values, starting the search from
  /// the current (*lambdas)[j]. `initial_model` (optional) is the model
  /// trained at the current lambdas, saving one fit; it also seeds the
  /// weight-model predictions for prediction-parameterized metrics.
  /// On return (*lambdas)[j] holds the chosen value.
  TuneResult TuneCoordinate(FairnessProblem& problem, size_t j,
                            std::vector<double>* lambdas,
                            const Classifier* initial_model) const;

  const TuneOptions& options() const { return options_; }

 private:
  TuneOptions options_;
};

}  // namespace omnifair

#endif  // OMNIFAIR_CORE_LAMBDA_TUNER_H_
