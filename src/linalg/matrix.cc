#include "linalg/matrix.h"

#include <algorithm>

#include "linalg/simd.h"
#include "util/logging.h"

namespace omnifair {

size_t Matrix::CheckedSize(size_t rows, size_t cols) {
  size_t total = 0;
  OF_CHECK(!__builtin_mul_overflow(rows, cols, &total))
      << "matrix shape " << rows << " x " << cols
      << " overflows size_t element count";
  return total;
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(0) {
  for (const auto& row : rows) {
    if (cols_ == 0) cols_ = row.size();
    OF_CHECK_EQ(row.size(), cols_) << "ragged initializer rows";
    for (double v : row) data_.push_back(static_cast<float>(v));
  }
}

std::vector<double> Matrix::RowVector(size_t r) const {
  OF_CHECK_LT(r, rows_);
  const float* row = RowF(r);
  return std::vector<double>(row, row + cols_);
}

std::vector<double> Matrix::ColVector(size_t c) const {
  OF_CHECK_LT(c, cols_);
  std::vector<double> col(rows_);
  for (size_t r = 0; r < rows_; ++r) col[r] = (*this)(r, c);
  return col;
}

Matrix Matrix::SelectRows(const std::vector<size_t>& indices) const {
  Matrix out(indices.size(), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    OF_CHECK_LT(indices[i], rows_);
    const float* src = RowF(indices[i]);
    std::copy(src, src + cols_, out.RowF(i));
  }
  return out;
}

void Matrix::AppendRow(const std::vector<double>& row) {
  if (rows_ == 0 && cols_ == 0) cols_ = row.size();
  OF_CHECK_EQ(row.size(), cols_) << "row width mismatch";
  // Growing by one row must also stay inside size_t.
  CheckedSize(rows_ + 1, cols_);
  data_.reserve(data_.size() + cols_);
  for (double v : row) data_.push_back(static_cast<float>(v));
  ++rows_;
}

std::vector<double> Matrix::MatVec(const std::vector<double>& x) const {
  std::vector<double> y;
  MatVecInto(x, &y);
  return y;
}

void Matrix::MatVecInto(const std::vector<double>& x,
                        std::vector<double>* y) const {
  OF_CHECK_EQ(x.size(), cols_);
  y->resize(rows_);
  MatVecInto(x.data(), y->data());
}

void Matrix::MatVecInto(const double* x, double* y) const {
  const simd::Kernels& k = simd::Active();
  for (size_t r = 0; r < rows_; ++r) y[r] = k.dot_f32(RowF(r), x, cols_);
}

}  // namespace omnifair
