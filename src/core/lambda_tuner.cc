#include "core/lambda_tuner.h"

#include <cmath>
#include <utility>

#include "core/run_profile.h"
#include "ml/serialization.h"
#include "util/logging.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace omnifair {
namespace {

/// A satisfying model kept by InBandBest.
struct TunedModel {
  std::unique_ptr<Classifier> model;
  double lambda = 0.0;
  std::vector<double> val_fairness_parts;
};
using BestCandidate = InBandBest<TunedModel>;

}  // namespace

double LemmaDirection(double fp0) { return fp0 > 0.0 ? -1.0 : 1.0; }

bool ResolvesViolation(double fp, double fp0, double epsilon) {
  if (std::fabs(fp) <= epsilon) return true;
  return fp0 > 0.0 ? fp < 0.0 : fp > 0.0;
}

LambdaBracket ExponentialBracket(double initial_step, int max_doublings,
                                 const LambdaProbe& probe) {
  LambdaBracket bracket;
  double magnitude = initial_step;
  for (int doubling = 0; doubling < max_doublings; ++doubling) {
    const ProbeOutcome outcome = probe(magnitude);
    if (outcome == ProbeOutcome::kStop) break;
    if (outcome == ProbeOutcome::kResolved) {
      bracket.hi = magnitude;
      bracket.bounded = true;
      break;
    }
    bracket.lo = magnitude;
    magnitude = 2.0 * magnitude;
  }
  return bracket;
}

void Bisect(double tau, LambdaBracket* bracket, const LambdaProbe& probe) {
  while (bracket->hi - bracket->lo >= tau) {
    const double mid = 0.5 * (bracket->lo + bracket->hi);
    const ProbeOutcome outcome = probe(mid);
    if (outcome == ProbeOutcome::kStop) return;
    if (outcome == ProbeOutcome::kResolved) {
      bracket->hi = mid;
    } else {
      bracket->lo = mid;
    }
  }
}

LambdaTuner::LambdaTuner(TuneOptions options) : options_(options) {}

TuneResult LambdaTuner::TuneSingle(FairnessProblem& problem) const {
  OF_CHECK_EQ(problem.NumConstraints(), 1u)
      << "TuneSingle expects a single-constraint problem; use HillClimber";
  Result<std::unique_ptr<CheckpointManager>> checkpoint =
      AttachCheckpoint(problem, options_.checkpoint, "lambda_tuner");
  if (!checkpoint.ok()) {
    TuneResult result;
    result.status = checkpoint.status();
    return result;
  }
  std::vector<double> lambdas = {0.0};
  TuneResult result =
      TuneCoordinate(problem, 0, &lambdas, /*initial_model=*/nullptr);
  FinishCheckpoint(problem, checkpoint->get());
  return result;
}

TuneResult LambdaTuner::TuneCoordinate(FairnessProblem& problem, size_t j,
                                       std::vector<double>* lambdas,
                                       const Classifier* initial_model) const {
  OF_CHECK(lambdas != nullptr);
  OF_CHECK_EQ(lambdas->size(), problem.NumConstraints());
  OF_CHECK_LT(j, lambdas->size());
  OF_TRACE_SPAN("tune_coordinate");
  OF_COUNTER_INC("tuner.coordinate_tunes");
  const double epsilon = problem.Epsilon(j);
  const int models_before = problem.models_trained();
  const bool prediction_dependent = problem.DependsOnPredictions();

  // Trajectory annotation: stamps the most recent TunePoint with validation
  // metrics. One extra FairnessParts sweep per fit, paid only when recording.
  auto annotate = [&](const std::vector<int>& preds) {
    if (!problem.RecordingTuneReport()) return;
    problem.AnnotateLastTunePoint(problem.ValAccuracy(preds),
                                  problem.val_evaluator().FairnessParts(preds));
  };

  // Search-interruption state: `aborted` when the trainer failed behind the
  // exception firewall, `expired` when the TrainBudget ran out or a
  // (simulated) crash fired after a checkpoint write. Either way the tune
  // stops early and returns the best model reached so far, with
  // `search_status` carrying the cause.
  Status search_status;
  bool aborted = false;
  bool expired = false;
  auto fit_failed = [&](const std::unique_ptr<Classifier>& model) {
    if (model != nullptr) return false;
    aborted = true;
    search_status = problem.last_fit_status();
    return true;
  };
  auto budget_expired = [&]() {
    if (expired) return true;
    if (!problem.Interrupted()) return false;
    expired = true;
    search_status = problem.InterruptStatus();
    return true;
  };

  // Stage 1 (Algorithm 1 lines 1-3): model at the current Lambda. When
  // called from TuneSingle this is the unconstrained lambda=0 model.
  std::unique_ptr<Classifier> theta0;
  const Classifier* theta0_ptr = initial_model;
  if (theta0_ptr == nullptr) {
    problem.SetTuneStage("initial");
    theta0 = problem.FitWithLambdas(*lambdas, /*weight_model=*/nullptr);
    if (fit_failed(theta0)) {
      TuneResult result;
      result.status = search_status;
      result.lambda = (*lambdas)[j];
      result.models_trained = problem.models_trained() - models_before;
      return result;
    }
    theta0_ptr = theta0.get();
  }
  std::vector<int> val_preds = problem.PredictVal(*theta0_ptr);
  if (theta0 != nullptr) annotate(val_preds);
  const double fp0 = problem.val_evaluator().FairnessPart(j, val_preds);

  auto finish = [&](BestCandidate best, bool satisfied) {
    TuneResult result;
    result.status = search_status;
    result.satisfied = satisfied;
    result.model = std::move(best.candidate.model);
    result.lambda = best.candidate.lambda;
    result.val_accuracy = best.accuracy;
    result.val_fairness_parts = std::move(best.candidate.val_fairness_parts);
    result.models_trained = problem.models_trained() - models_before;
    (*lambdas)[j] = result.lambda;
    return result;
  };

  if (std::fabs(fp0) <= epsilon) {
    // Already satisfied at the current lambda: by Lemma 2 this has maximum
    // accuracy among satisfying settings along this coordinate.
    BestCandidate best;
    std::unique_ptr<Classifier> model = std::move(theta0);
    if (model == nullptr) {
      // Caller owns initial_model; refit so the result owns its model.
      problem.SetTuneStage("initial");
      model = problem.FitWithLambdas(*lambdas, theta0_ptr);
      if (fit_failed(model)) return finish(std::move(best), /*satisfied=*/false);
      val_preds = problem.PredictVal(*model);
      annotate(val_preds);
    }
    best.Consider({std::move(model), (*lambdas)[j],
                   problem.val_evaluator().FairnessParts(val_preds)},
                  problem.ValAccuracy(val_preds));
    return finish(std::move(best), /*satisfied=*/true);
  }

  // Stage 2 (lines 4-5): the violation has a sign; Lemma 2 gives the
  // direction and ResolvesViolation the crossing test.
  auto resolved = [&](double fp) { return ResolvesViolation(fp, fp0, epsilon); };
  const double lemma_direction = LemmaDirection(fp0);
  const double base = (*lambdas)[j];

  BestCandidate best;
  auto evaluate_and_consider = [&](std::unique_ptr<Classifier> model,
                                   double lambda_value, double* fp_out) {
    std::vector<int> preds = problem.PredictVal(*model);
    annotate(preds);
    const double fp = problem.val_evaluator().FairnessPart(j, preds);
    *fp_out = fp;
    if (std::fabs(fp) <= epsilon) {
      best.Consider({std::move(model), lambda_value,
                     problem.val_evaluator().FairnessParts(preds)},
                    problem.ValAccuracy(preds));
      return std::unique_ptr<Classifier>();  // consumed
    }
    return model;  // not a candidate; hand back for reuse
  };

  double direction = lemma_direction;
  LambdaBracket bracket;
  // theta_l: model at the violating lower bound; its train-split predictions
  // approximate the weights for FOR/FDR (paper Algorithm 1 line 16).
  std::unique_ptr<Classifier> theta_l;
  const Classifier* weight_model = theta0_ptr;

  // Bounding-stage fits may run on a training subsample (future-work
  // scalability extension); subsampled models only steer the bracket and
  // are never returned as candidates.
  const bool subsampled_bounding = options_.bounding_subsample < 1.0;
  auto bounding_fit = [&](const std::vector<double>& lambdas_value,
                          const Classifier* weight_model_value) {
    return problem.FitWithLambdasSubsampled(lambdas_value, weight_model_value,
                                            options_.bounding_subsample,
                                            options_.subsample_seed);
  };

  std::vector<double> trial = *lambdas;
  if (!prediction_dependent) {
    // Stage 2.1 (lines 21-27): exponential search. Weights are exact given
    // lambda, so Lemma 2's direction is reliable.
    problem.SetTuneStage("exponential");
    bracket = ExponentialBracket(
        options_.initial_step, options_.max_doublings, [&](double magnitude) {
          if (budget_expired()) return ProbeOutcome::kStop;
          OF_TRACE_SPAN("lambda_step");
          OF_COUNTER_INC("tuner.lambda_steps");
          trial[j] = base + direction * magnitude;
          std::unique_ptr<Classifier> theta_u = bounding_fit(trial, nullptr);
          if (fit_failed(theta_u)) return ProbeOutcome::kStop;
          double fp = 0.0;
          if (subsampled_bounding) {
            const std::vector<int> preds = problem.PredictVal(*theta_u);
            annotate(preds);
            fp = problem.val_evaluator().FairnessPart(j, preds);
          } else {
            evaluate_and_consider(std::move(theta_u), trial[j], &fp);
          }
          return resolved(fp) ? ProbeOutcome::kResolved : ProbeOutcome::kViolated;
        });
  } else {
    // Stage 2.2 (lines 29-37): linear search with incremental weight
    // re-estimation from the previous model. Because the frozen-coefficient
    // approximation can reverse the metric's response direction (the
    // denominator |h=c| reacts to lambda too), we walk BOTH directions in
    // lock-step and keep whichever side resolves first.
    struct Side {
      double sign;
      double magnitude = 0.0;
      std::unique_ptr<Classifier> theta_l;  // last violating model
      const Classifier* weight_model;
    };
    Side sides[2] = {{lemma_direction, 0.0, nullptr, theta0_ptr},
                     {-lemma_direction, 0.0, nullptr, theta0_ptr}};
    // Concurrent probes need per-worker trainer clones and full-split fits
    // (the subsample cache is single-threaded); otherwise stay serial.
    std::unique_ptr<Trainer> probe_clones[2];
    if (options_.num_threads > 1 && !subsampled_bounding) {
      probe_clones[0] = problem.trainer()->Clone();
      probe_clones[1] = problem.trainer()->Clone();
    }
    const bool parallel_probes =
        probe_clones[0] != nullptr && probe_clones[1] != nullptr;
    problem.SetTuneStage("linear");
    for (int step = 0; step < options_.max_linear_steps && !bracket.bounded;
         ++step) {
      if (budget_expired()) break;
      OF_TRACE_SPAN("lambda_step");
      OF_COUNTER_INC("tuner.lambda_steps");
      if (parallel_probes) {
        // Fit both directions concurrently, then replay the serial
        // resolution logic strictly in side order so the search takes the
        // same bracket the serial walk would.
        struct Probe {
          std::vector<double> trial;
          std::vector<int> weight_preds;
          double next_magnitude = 0.0;
          bool replayed = false;
          bool replay_failed = false;
          FairnessProblem::ParallelFitOutcome outcome;
        };
        Probe probes[2];
        for (int s = 0; s < 2; ++s) {
          probes[s].next_magnitude = sides[s].magnitude + options_.delta;
          probes[s].trial = trial;
          probes[s].trial[j] = base + sides[s].sign * probes[s].next_magnitude;
        }
        // On resume, checkpointed steps come from the log in side order
        // (the log holds whole pairs: MaybeWrite only runs between steps).
        // Live sides fit concurrently on the clones.
        CheckpointManager* cp = problem.checkpoint();
        std::vector<size_t> live;
        for (size_t s = 0; s < 2; ++s) {
          if (cp != nullptr && cp->HasPendingReplay()) {
            probes[s].replayed = true;
            probes[s].outcome =
                problem.ReplayFitOn(probes[s].trial, &probes[s].replay_failed);
          } else {
            probes[s].weight_preds =
                problem.PredictTrain(*sides[s].weight_model);
            live.push_back(s);
          }
        }
        auto live_fit = [&](size_t s) {
          probes[s].outcome = problem.FitWithLambdasOn(
              *probe_clones[s], probes[s].trial, &probes[s].weight_preds);
        };
        if (live.size() == 2) {
          ThreadPool::Global().ParallelFor(2, live_fit, 2);
        } else {
          for (size_t s : live) live_fit(s);
        }
        for (int s = 0; s < 2; ++s) {
          Side& side = sides[s];
          Probe& probe = probes[s];
          if (probe.replay_failed) {
            // Broken replay (diverged options / damaged blob): no fit
            // happened, so no TunePoint — stop with the typed cause.
            aborted = true;
            search_status = probe.outcome.status;
            continue;
          }
          const bool fit_ok = probe.outcome.model != nullptr;
          problem.AppendTunePoint(probe.trial, fit_ok, probe.outcome.seconds);
          if (cp != nullptr && !probe.replayed) {
            RunStageTimer checkpoint_timer(problem.profiler(),
                                           RunStage::kCheckpoint);
            std::vector<uint8_t> blob;
            if (fit_ok) {
              Result<std::vector<uint8_t>> serialized =
                  SerializeModelBinary(*probe.outcome.model);
              if (serialized.ok()) blob = std::move(*serialized);
            }
            cp->RecordFitBlob(probe.trial, fit_ok, probe.outcome.status,
                              probe.outcome.seconds, std::move(blob));
          }
          // Once this step aborted or resolved, the remaining side's fit is
          // already paid — record it, but keep the search state untouched.
          if (aborted || bracket.bounded) continue;
          if (!fit_ok) {
            aborted = true;
            search_status = probe.outcome.status;
            continue;
          }
          double fp = 0.0;
          std::unique_ptr<Classifier> kept = evaluate_and_consider(
              std::move(probe.outcome.model), probe.trial[j], &fp);
          if (resolved(fp)) {
            direction = side.sign;
            bracket = {side.magnitude, probe.next_magnitude, true};
            theta_l = std::move(side.theta_l);
            weight_model = theta_l != nullptr ? theta_l.get() : theta0_ptr;
            continue;
          }
          side.magnitude = probe.next_magnitude;
          if (kept != nullptr) {
            side.theta_l = std::move(kept);
            side.weight_model = side.theta_l.get();
          }
        }
        if (cp != nullptr) {
          RunStageTimer checkpoint_timer(problem.profiler(),
                                         RunStage::kCheckpoint);
          cp->MaybeWrite();
        }
        if (aborted) break;
        continue;
      }
      for (Side& side : sides) {
        const double next_magnitude = side.magnitude + options_.delta;
        trial[j] = base + side.sign * next_magnitude;
        std::unique_ptr<Classifier> theta_u = bounding_fit(trial, side.weight_model);
        if (fit_failed(theta_u)) break;
        double fp = 0.0;
        std::unique_ptr<Classifier> kept;
        if (subsampled_bounding) {
          const std::vector<int> preds = problem.PredictVal(*theta_u);
          annotate(preds);
          fp = problem.val_evaluator().FairnessPart(j, preds);
          kept = std::move(theta_u);
        } else {
          kept = evaluate_and_consider(std::move(theta_u), trial[j], &fp);
        }
        if (resolved(fp)) {
          direction = side.sign;
          bracket = {side.magnitude, next_magnitude, true};
          theta_l = std::move(side.theta_l);
          weight_model = theta_l != nullptr ? theta_l.get() : theta0_ptr;
          break;
        }
        side.magnitude = next_magnitude;
        if (kept != nullptr) {
          side.theta_l = std::move(kept);
          side.weight_model = side.theta_l.get();
        }
      }
      if (aborted) break;
    }
  }

  // Fills `best` with a usable model when the search ends without an in-band
  // candidate. The owned base-lambda model is reused when it answers the
  // request (no extra fit); otherwise one mandatory fallback fit runs — the
  // single fit exempt from the budget — unless the trainer itself is failing,
  // in which case the base model is the best we can do.
  auto use_theta0 = [&]() {
    // val_preds still holds theta0's predictions.
    best.Consider({std::move(theta0), base,
                   problem.val_evaluator().FairnessParts(val_preds)},
                  problem.ValAccuracy(val_preds));
  };
  auto ensure_model = [&](double lambda_value) {
    if (best.has) return;
    if (theta0 != nullptr && lambda_value == base) {
      use_theta0();
      return;
    }
    if (!aborted) {
      trial[j] = lambda_value;
      problem.SetTuneStage("fallback");
      std::unique_ptr<Classifier> fallback =
          problem.FitWithLambdas(trial, weight_model);
      if (!fit_failed(fallback)) {
        std::vector<int> preds = problem.PredictVal(*fallback);
        annotate(preds);
        best.Consider({std::move(fallback), lambda_value,
                       problem.val_evaluator().FairnessParts(preds)},
                      problem.ValAccuracy(preds));
        return;
      }
    }
    if (theta0 != nullptr) use_theta0();
  };

  if (aborted || expired) {
    // Trainer failure or budget expiry during bracketing: return the best
    // in-band model seen, else a model at the starting lambda.
    const bool satisfied = best.has;
    ensure_model(base);
    return finish(std::move(best), satisfied);
  }

  if (!bracket.bounded) {
    // No lambda within budget resolves the constraint: infeasible (NA(1)).
    ensure_model(base);
    return finish(std::move(best), /*satisfied=*/false);
  }

  // Stage 3 (lines 11-19): binary search down to tau. The smallest
  // satisfying magnitude has the least accuracy impact (Lemma 2, Eq. 16),
  // and `best` keeps the satisfying model with the highest validation
  // accuracy seen anywhere in the search.
  problem.SetTuneStage("binary");
  Bisect(options_.tau, &bracket, [&](double magnitude) {
    if (budget_expired()) return ProbeOutcome::kStop;
    OF_TRACE_SPAN("lambda_step");
    OF_COUNTER_INC("tuner.lambda_steps");
    trial[j] = base + direction * magnitude;
    std::unique_ptr<Classifier> theta_m = problem.FitWithLambdas(trial, weight_model);
    if (fit_failed(theta_m)) return ProbeOutcome::kStop;
    double fp = 0.0;
    std::unique_ptr<Classifier> kept =
        evaluate_and_consider(std::move(theta_m), trial[j], &fp);
    if (resolved(fp)) return ProbeOutcome::kResolved;
    if (prediction_dependent && kept != nullptr) {
      theta_l = std::move(kept);
      weight_model = theta_l.get();
    }
    return ProbeOutcome::kViolated;
  });

  const bool satisfied = best.has;
  if (!satisfied) {
    // The band was crossed without landing inside it (discrete model jumps
    // can overshoot |FP| <= epsilon entirely). Report the resolved-side
    // endpoint as best effort.
    ensure_model(base + direction * bracket.hi);
  }
  return finish(std::move(best), satisfied);
}

}  // namespace omnifair
