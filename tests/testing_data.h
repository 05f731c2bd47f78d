#ifndef OMNIFAIR_TESTS_TESTING_DATA_H_
#define OMNIFAIR_TESTS_TESTING_DATA_H_

#include <vector>

#include "linalg/matrix.h"
#include "ml/classifier.h"
#include "ml/metrics.h"
#include "util/random.h"

namespace omnifair {
namespace testing_data {

struct Blobs {
  Matrix X;
  std::vector<int> y;
  std::vector<double> unit_weights;
};

/// Two Gaussian blobs in 2D around (-sep, -sep) and (+sep, +sep).
inline Blobs MakeBlobs(size_t n, double separation, uint64_t seed) {
  Rng rng(seed);
  Blobs blobs;
  blobs.X = Matrix(n, 2);
  blobs.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const int label = rng.NextBernoulli(0.5) ? 1 : 0;
    const double center = label == 1 ? separation : -separation;
    blobs.X.Set(i, 0, rng.NextGaussian(center, 1.0));
    blobs.X.Set(i, 1, rng.NextGaussian(center, 1.0));
    blobs.y[i] = label;
  }
  blobs.unit_weights.assign(n, 1.0);
  return blobs;
}

/// XOR-style data (not linearly separable): label = sign(x0) != sign(x1).
inline Blobs MakeXor(size_t n, uint64_t seed) {
  Rng rng(seed);
  Blobs blobs;
  blobs.X = Matrix(n, 2);
  blobs.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double x0 = rng.NextUniform(-1.0, 1.0);
    const double x1 = rng.NextUniform(-1.0, 1.0);
    blobs.X.Set(i, 0, x0);
    blobs.X.Set(i, 1, x1);
    blobs.y[i] = (x0 > 0.0) != (x1 > 0.0) ? 1 : 0;
  }
  blobs.unit_weights.assign(n, 1.0);
  return blobs;
}

inline double TrainAccuracy(const Classifier& model, const Blobs& blobs) {
  return Accuracy(blobs.y, model.Predict(blobs.X));
}

}  // namespace testing_data
}  // namespace omnifair

#endif  // OMNIFAIR_TESTS_TESTING_DATA_H_
