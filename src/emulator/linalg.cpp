#include "emulator/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "util/error.hpp"

namespace epi {

Vec Mat::row(std::size_t r) const {
  EPI_REQUIRE(r < rows_, "row out of range");
  return Vec(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
             data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_));
}

Vec Mat::col(std::size_t c) const {
  EPI_REQUIRE(c < cols_, "column out of range");
  Vec out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = at(r, c);
  return out;
}

void Mat::set_row(std::size_t r, const Vec& values) {
  EPI_REQUIRE(r < rows_ && values.size() == cols_, "set_row shape mismatch");
  for (std::size_t c = 0; c < cols_; ++c) at(r, c) = values[c];
}

Mat Mat::transposed() const {
  Mat out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out.at(c, r) = at(r, c);
  }
  return out;
}

Mat Mat::identity(std::size_t n) {
  Mat out(n, n);
  for (std::size_t i = 0; i < n; ++i) out.at(i, i) = 1.0;
  return out;
}

Mat matmul(const Mat& a, const Mat& b) {
  EPI_REQUIRE(a.cols() == b.rows(), "matmul shape mismatch: "
                                        << a.rows() << "x" << a.cols() << " * "
                                        << b.rows() << "x" << b.cols());
  Mat out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a.at(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        out.at(i, j) += aik * b.at(k, j);
      }
    }
  }
  return out;
}

Vec matvec(const Mat& a, const Vec& x) {
  EPI_REQUIRE(a.cols() == x.size(), "matvec shape mismatch");
  Vec out(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) sum += a.at(i, j) * x[j];
    out[i] = sum;
  }
  return out;
}

double dot(const Vec& a, const Vec& b) {
  EPI_REQUIRE(a.size() == b.size(), "dot shape mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

Vec vec_add(const Vec& a, const Vec& b) {
  EPI_REQUIRE(a.size() == b.size(), "vec_add shape mismatch");
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vec vec_sub(const Vec& a, const Vec& b) {
  EPI_REQUIRE(a.size() == b.size(), "vec_sub shape mismatch");
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vec vec_scale(const Vec& a, double s) {
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

namespace {

// Two doubles per SSE2 register (a GCC/Clang vector extension, part of
// the baseline x86-64 ISA, so no compiler flag). Lane-wise arithmetic is
// the scalar IEEE arithmetic, so packing two independent entries into one
// register changes no bits.
using Pair = double __attribute__((vector_size(16)));

Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_pair(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

/// y[k] -= x[k] * s for k < count.
void subtract_scaled(double* y, const double* x, double s, std::size_t count) {
  std::size_t k = 0;
  for (; k + 2 <= count; k += 2) {
    store_pair(y + k, load_pair(y + k) - load_pair(x + k) * s);
  }
  for (; k < count; ++k) y[k] -= x[k] * s;
}

/// y[k] /= d for k < count.
void divide(double* y, double d, std::size_t count) {
  std::size_t k = 0;
  for (; k + 2 <= count; k += 2) store_pair(y + k, load_pair(y + k) / d);
  for (; k < count; ++k) y[k] /= d;
}

/// Lᵀ of a lower-triangular L, with a zero strict lower triangle.
Mat upper_from_lower(const Mat& l) {
  const std::size_t n = l.rows();
  Mat u(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) u.at(j, i) = l.at(i, j);
  }
  return u;
}

}  // namespace

Mat cholesky(const Mat& k) {
  EPI_REQUIRE(k.rows() == k.cols(), "cholesky needs a square matrix");
  Mat u = upper_from_lower(k);
  cholesky_upper_in_place(u);
  return u.transposed();
}

void cholesky_upper_in_place(Mat& a) {
  EPI_REQUIRE(a.rows() == a.cols(), "cholesky needs a square matrix");
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    // Row j of U holds column j of K's lower triangle; entry i (i >= j)
    // becomes K(i,j) - sum over m < j of U(m,i) U(m,j), the rows of U read
    // in m order. Eight entries (four register pairs) advance together,
    // so their dependency chains overlap.
    double* uj = a.row_data(j);
    std::size_t i = j;
    for (; i + 8 <= n; i += 8) {
      Pair s0 = load_pair(uj + i), s1 = load_pair(uj + i + 2);
      Pair s2 = load_pair(uj + i + 4), s3 = load_pair(uj + i + 6);
      for (std::size_t m = 0; m < j; ++m) {
        const double* um = a.row_data(m);
        const double x = um[j];
        s0 -= load_pair(um + i) * x;
        s1 -= load_pair(um + i + 2) * x;
        s2 -= load_pair(um + i + 4) * x;
        s3 -= load_pair(um + i + 6) * x;
      }
      store_pair(uj + i, s0);
      store_pair(uj + i + 2, s1);
      store_pair(uj + i + 4, s2);
      store_pair(uj + i + 6, s3);
    }
    for (; i + 2 <= n; i += 2) {
      Pair s = load_pair(uj + i);
      for (std::size_t m = 0; m < j; ++m) {
        const double* um = a.row_data(m);
        s -= load_pair(um + i) * um[j];
      }
      store_pair(uj + i, s);
    }
    for (; i < n; ++i) {
      double s = uj[i];
      for (std::size_t m = 0; m < j; ++m) {
        const double* um = a.row_data(m);
        s -= um[i] * um[j];
      }
      uj[i] = s;
    }
    if (uj[j] <= 0.0) {
      throw NumericError("cholesky: matrix not positive definite at pivot " +
                         std::to_string(j));
    }
    const double pivot = std::sqrt(uj[j]);
    uj[j] = pivot;
    divide(uj + j + 1, pivot, n - j - 1);
  }
}

void forward_substitute_upper(const Mat& u, Vec& y) {
  EPI_REQUIRE(u.rows() == y.size() && u.cols() == y.size(),
              "forward substitution shape mismatch");
  const std::size_t n = y.size();
  for (std::size_t j = 0; j < n; ++j) {
    const double* row = u.row_data(j);
    const double yj = y[j] / row[j];
    y[j] = yj;
    subtract_scaled(y.data() + j + 1, row + j + 1, yj, n - j - 1);
  }
}

void back_substitute_upper(const Mat& u, Vec& x) {
  EPI_REQUIRE(u.rows() == x.size() && u.cols() == x.size(),
              "back substitution shape mismatch");
  const std::size_t n = x.size();
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    const double* row = u.row_data(i);
    double sum = x[i];
    for (std::size_t j = i + 1; j < n; ++j) sum -= row[j] * x[j];
    x[i] = sum / row[i];
  }
}

Vec solve_lower(const Mat& l, const Vec& b) {
  EPI_REQUIRE(l.rows() == l.cols(), "solve_lower needs a square factor");
  Vec y = b;
  forward_substitute_upper(upper_from_lower(l), y);
  return y;
}

Vec solve_lower_transpose(const Mat& l, const Vec& y) {
  EPI_REQUIRE(l.rows() == l.cols(), "solve_lower_transpose needs a square factor");
  Vec x = y;
  back_substitute_upper(upper_from_lower(l), x);
  return x;
}

Vec cholesky_solve(const Mat& l, const Vec& b) {
  EPI_REQUIRE(l.rows() == l.cols(), "cholesky_solve needs a square factor");
  const Mat u = upper_from_lower(l);
  Vec x = b;
  forward_substitute_upper(u, x);
  back_substitute_upper(u, x);
  return x;
}

double log_det_from_cholesky(const Mat& l) {
  double sum = 0.0;
  for (std::size_t i = 0; i < l.rows(); ++i) sum += std::log(l.at(i, i));
  return 2.0 * sum;
}

EigenPairs top_eigenpairs(const Mat& symmetric, std::size_t count,
                          std::size_t iterations) {
  EPI_REQUIRE(symmetric.rows() == symmetric.cols(),
              "eigenpairs need a square matrix");
  const std::size_t n = symmetric.rows();
  count = std::min(count, n);
  Mat deflated = symmetric;
  EigenPairs result;
  result.vectors = Mat(n, count);
  for (std::size_t k = 0; k < count; ++k) {
    // Deterministic start vector, orthogonalized against found vectors.
    Vec v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = 1.0 + 0.01 * static_cast<double>((i * 37 + k * 17) % 101);
    }
    double eigenvalue = 0.0;
    for (std::size_t it = 0; it < iterations; ++it) {
      Vec w = matvec(deflated, v);
      const double norm = std::sqrt(dot(w, w));
      if (norm < 1e-300) {
        w.assign(n, 0.0);
        eigenvalue = 0.0;
        v = w;
        break;
      }
      v = vec_scale(w, 1.0 / norm);
      eigenvalue = norm;
    }
    result.values.push_back(eigenvalue);
    for (std::size_t i = 0; i < n; ++i) result.vectors.at(i, k) = v[i];
    // Deflate: A <- A - lambda v v^T.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        deflated.at(i, j) -= eigenvalue * v[i] * v[j];
      }
    }
  }
  return result;
}

}  // namespace epi
