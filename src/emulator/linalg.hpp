// Dense linear algebra for the Gaussian-process emulator.
//
// Sized for calibration workloads: design matrices of ~100 points, output
// series of ~100-400 days. Cholesky-based solves; no external BLAS.
#pragma once

#include <cstddef>
#include <vector>

namespace epi {

using Vec = std::vector<double>;

/// Row-major dense matrix.
class Mat {
 public:
  Mat() = default;
  Mat(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Contiguous storage of row r (cols() doubles).
  double* row_data(std::size_t r) { return data_.data() + r * cols_; }
  const double* row_data(std::size_t r) const {
    return data_.data() + r * cols_;
  }

  Vec row(std::size_t r) const;
  Vec col(std::size_t c) const;
  void set_row(std::size_t r, const Vec& values);

  Mat transposed() const;

  const std::vector<double>& data() const { return data_; }

  static Mat identity(std::size_t n);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Mat matmul(const Mat& a, const Mat& b);
Vec matvec(const Mat& a, const Vec& x);
double dot(const Vec& a, const Vec& b);
Vec vec_add(const Vec& a, const Vec& b);
Vec vec_sub(const Vec& a, const Vec& b);
Vec vec_scale(const Vec& a, double s);

// Cholesky kernels. They work on the factor's transpose U = Lᵀ, kept in
// the upper triangle of a row-major Mat, so row j of U is column j of L
// and every inner loop reads contiguous memory.
//
// Bitwise contract: the kernels are reordered for speed, never
// re-associated. Each entry is computed by exactly the floating-point
// operations, in exactly the order, of the textbook row-oriented loops:
// L(i,j) = (K(i,j) - sum over m = 0..j-1 of L(i,m) L(j,m)) / L(j,j), the
// products subtracted in m order; y[i] of a forward substitution receives
// its subtractions in j order. Only the order in which *independent*
// entries are computed changes (several rows of a column at a time, two
// per SSE2 register, whose lane-wise multiply and subtract are the scalar
// IEEE operations), so results are bit for bit those of the reference
// loops that tests/test_emulator.cpp keeps as oracles.

/// Cholesky factor L (lower-triangular, K = L Lᵀ) of K's lower triangle.
/// Throws NumericError naming the first non-positive pivot. A tiny jitter
/// can be added by the caller.
Mat cholesky(const Mat& k);

/// In-place factorization on the transposed layout: on entry row j of `a`
/// holds column j of K's lower triangle, K(i, j) for i = j..n-1, in its
/// upper part; on exit the upper triangle is U = Lᵀ. The strict lower
/// triangle is neither read nor written. Computed column of L by column,
/// several rows at a time.
void cholesky_upper_in_place(Mat& a);

/// Solves L y = b in place over `y` (b on entry), L given as U = Lᵀ. The
/// column-oriented (axpy) form: once y[j] is final it is subtracted from
/// every later entry.
void forward_substitute_upper(const Mat& u, Vec& y);

/// Solves Lᵀ x = y in place over `x` (y on entry), L given as U = Lᵀ.
void back_substitute_upper(const Mat& u, Vec& x);

/// Solves L y = b (forward substitution), L lower-triangular.
Vec solve_lower(const Mat& l, const Vec& b);

/// Solves Lᵀ x = y (back substitution), L lower-triangular.
Vec solve_lower_transpose(const Mat& l, const Vec& y);

/// Solves K x = b given the Cholesky factor of K.
Vec cholesky_solve(const Mat& l, const Vec& b);

/// log(det(K)) from its Cholesky factor (L or U = Lᵀ: the diagonal).
double log_det_from_cholesky(const Mat& l);

/// Top `count` eigenpairs of a symmetric PSD matrix via power iteration
/// with deflation. Eigenvectors are returned as matrix columns, unit norm;
/// eigenvalues in decreasing order.
struct EigenPairs {
  Vec values;
  Mat vectors;  // n x count, column k = k-th eigenvector
};
EigenPairs top_eigenpairs(const Mat& symmetric, std::size_t count,
                          std::size_t iterations = 500);

}  // namespace epi
