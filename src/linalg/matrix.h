#ifndef OMNIFAIR_LINALG_MATRIX_H_
#define OMNIFAIR_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace omnifair {

/// Dense row-major matrix of float32 elements. This is the feature-matrix
/// currency of the library: datasets encode to a Matrix, ML trainers consume
/// a Matrix. Deliberately minimal — the ML algorithms in this repo only need
/// row access, matrix-vector products and element arithmetic.
///
/// Only the stored feature values are float32: writes narrow each value once,
/// reads widen it exactly, and model parameters, gradients and accumulators
/// stay double everywhere (the product kernels widen per lane). Float storage
/// halves the footprint and memory bandwidth of the encoded features, which
/// every λ refit of the tuners streams through.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows),
        cols_(cols),
        data_(CheckedSize(rows, cols), static_cast<float>(fill)) {}

  /// Builds from nested initializer lists; all rows must agree in length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  /// Element read, widened to double.
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  /// Element write (narrows to float).
  void Set(size_t r, size_t c, double value) {
    data_[r * cols_ + c] = static_cast<float>(value);
  }

  /// Pointer to the start of row r (contiguous, cols() elements).
  float* RowF(size_t r) { return data_.data() + r * cols_; }
  const float* RowF(size_t r) const { return data_.data() + r * cols_; }

  /// Copies row r into a double vector.
  std::vector<double> RowVector(size_t r) const;

  /// Copies column c into a double vector.
  std::vector<double> ColVector(size_t c) const;

  /// New matrix holding the given subset of rows, in order.
  Matrix SelectRows(const std::vector<size_t>& indices) const;

  /// Appends a row (values narrowed); the first appended row fixes cols()
  /// for empty matrices.
  void AppendRow(const std::vector<double>& row);

  /// y = this * x ; x.size() must equal cols().
  std::vector<double> MatVec(const std::vector<double>& x) const;

  /// In-place products for hot loops (no per-call allocation). The vector
  /// form resizes the output; the raw-pointer form requires y to hold
  /// rows() doubles.
  void MatVecInto(const std::vector<double>& x, std::vector<double>* y) const;
  void MatVecInto(const double* x, double* y) const;

  /// Untyped view of the element payload (for fingerprinting / identity
  /// checks).
  const void* RawData() const { return data_.data(); }
  size_t RawBytes() const { return data_.size() * sizeof(float); }

 private:
  /// rows * cols with an overflow check — a shape whose element count does
  /// not fit size_t fails loudly instead of wrapping (same treatment as the
  /// grid-size overflow guard in core/grid_search.cc).
  static size_t CheckedSize(size_t rows, size_t cols);

  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

}  // namespace omnifair

#endif  // OMNIFAIR_LINALG_MATRIX_H_
