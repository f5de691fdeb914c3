#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "emulator/gp.hpp"
#include "emulator/gpmsa.hpp"
#include "emulator/linalg.hpp"
#include "util/error.hpp"

namespace epi {
namespace {

// ------------------------------------------------- reference kernels ----
//
// The textbook row-oriented loops the production kernels are reordered
// from. The contract (linalg.hpp) is bitwise equality with these, so the
// oracle tests below compare with EXPECT_EQ, never a tolerance.

Mat reference_cholesky(const Mat& k) {
  const std::size_t n = k.rows();
  Mat l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = k.at(i, j);
      for (std::size_t m = 0; m < j; ++m) sum -= l.at(i, m) * l.at(j, m);
      if (i == j) {
        if (sum <= 0.0) {
          throw NumericError("cholesky: matrix not positive definite at pivot " +
                             std::to_string(i));
        }
        l.at(i, i) = std::sqrt(sum);
      } else {
        l.at(i, j) = sum / l.at(j, j);
      }
    }
  }
  return l;
}

Vec reference_solve_lower(const Mat& l, const Vec& b) {
  const std::size_t n = b.size();
  Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t j = 0; j < i; ++j) sum -= l.at(i, j) * y[j];
    y[i] = sum / l.at(i, i);
  }
  return y;
}

Vec reference_solve_lower_transpose(const Mat& l, const Vec& y) {
  const std::size_t n = y.size();
  Vec x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = y[i];
    for (std::size_t j = i + 1; j < n; ++j) sum -= l.at(j, i) * x[j];
    x[i] = sum / l.at(i, i);
  }
  return x;
}

/// The allocating GP of the textbook form: full symmetric covariance,
/// per-entry gp_correlation on copied rows, reference factor and solves.
struct ReferenceGp {
  ReferenceGp(const Mat& inputs, const Vec& outputs, const GpHyperparams& p)
      : inputs(inputs), params(p) {
    const std::size_t n = inputs.rows();
    Mat k(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      const Vec xi = inputs.row(i);
      for (std::size_t j = 0; j <= i; ++j) {
        const double c = gp_correlation(xi, inputs.row(j), p.rho) / p.lambda_w;
        k.at(i, j) = c;
        k.at(j, i) = c;
      }
      k.at(i, i) += 1.0 / p.lambda_nugget + 1e-10;
    }
    chol = reference_cholesky(k);
    alpha = reference_solve_lower_transpose(chol,
                                            reference_solve_lower(chol, outputs));
    log_marginal = -0.5 * dot(outputs, alpha) -
                   0.5 * log_det_from_cholesky(chol) -
                   0.5 * static_cast<double>(n) *
                       std::log(2.0 * 3.14159265358979323846);
  }

  GaussianProcess::Prediction predict(const Vec& x) const {
    Vec k_star(inputs.rows());
    for (std::size_t i = 0; i < inputs.rows(); ++i) {
      k_star[i] = gp_correlation(x, inputs.row(i), params.rho) / params.lambda_w;
    }
    GaussianProcess::Prediction p;
    p.mean = dot(k_star, alpha);
    const Vec v = reference_solve_lower(chol, k_star);
    const double prior_var = 1.0 / params.lambda_w + 1.0 / params.lambda_nugget;
    p.variance = std::max(1e-12, prior_var - dot(v, v));
    return p;
  }

  Mat inputs;
  GpHyperparams params;
  Mat chol;
  Vec alpha;
  double log_marginal = 0.0;
};

/// A seeded SPD matrix: squared-exponential Gram matrix of random points
/// plus a random positive diagonal, with entries spread over magnitudes so
/// rounding differences could not hide.
Mat random_spd(std::size_t n, Rng& rng) {
  Mat points(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < 3; ++d) points.at(i, d) = rng.uniform();
  }
  Mat k(n, n);
  const double scale = std::exp(rng.uniform(-3.0, 3.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double d2 = 0.0;
      for (std::size_t d = 0; d < 3; ++d) {
        const double diff = points.at(i, d) - points.at(j, d);
        d2 += diff * diff;
      }
      k.at(i, j) = k.at(j, i) = scale * std::exp(-4.0 * d2);
    }
    k.at(i, i) += scale * rng.uniform(1e-3, 1.0);
  }
  return k;
}

Vec random_vec(std::size_t n, Rng& rng) {
  Vec v(n);
  for (double& x : v) x = rng.normal(0.0, 3.0);
  return v;
}

void expect_bitwise_equal(const Mat& got, const Mat& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.data().size(); ++i) {
    ASSERT_EQ(got.data()[i], want.data()[i]) << "entry " << i;
  }
}

void expect_bitwise_equal(const Vec& got, const Vec& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "entry " << i;
  }
}

TEST(LinalgOracle, CholeskyAndSolvesAreBitwiseTheReference) {
  // Every size from 1 to 130, so sizes that are and are not multiples of
  // the factorization's row-block width are all covered.
  Rng rng(2021);
  for (std::size_t n = 1; n <= 130; ++n) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const Mat k = random_spd(n, rng);
    const Mat want = reference_cholesky(k);
    const Mat l = cholesky(k);
    expect_bitwise_equal(l, want);

    // The in-place kernel on the transposed layout: K's upper triangle in,
    // U = Lᵀ out, the strict lower triangle left alone.
    Mat u = k;
    cholesky_upper_in_place(u);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(u.at(j, i), i >= j ? want.at(i, j) : k.at(j, i));
      }
    }

    const Vec b = random_vec(n, rng);
    const Vec y = reference_solve_lower(want, b);
    expect_bitwise_equal(solve_lower(l, b), y);
    Vec y_in_place = b;
    forward_substitute_upper(u, y_in_place);
    expect_bitwise_equal(y_in_place, y);
    const Vec x = reference_solve_lower_transpose(want, y);
    expect_bitwise_equal(solve_lower_transpose(l, y), x);
    Vec x_in_place = y;
    back_substitute_upper(u, x_in_place);
    expect_bitwise_equal(x_in_place, x);
    expect_bitwise_equal(cholesky_solve(l, b), x);
  }
}

TEST(LinalgOracle, NonPdNamesTheReferencePivot) {
  Rng rng(2022);
  for (std::size_t n : {1u, 2u, 5u, 9u, 64u, 101u}) {
    for (std::size_t pivot : {std::size_t{0}, n / 2, n - 1}) {
      Mat k = random_spd(n, rng);
      k.at(pivot, pivot) = -k.at(pivot, pivot);
      std::string want;
      try {
        reference_cholesky(k);
      } catch (const NumericError& e) {
        want = e.what();
      }
      ASSERT_EQ(want, "cholesky: matrix not positive definite at pivot " +
                          std::to_string(pivot));
      try {
        cholesky(k);
        FAIL() << "n = " << n << ": non-PD input was factorized";
      } catch (const NumericError& e) {
        EXPECT_EQ(std::string(e.what()), want);
      }
    }
  }
}

TEST(GpOracle, FitAndPredictAreBitwiseTheReference) {
  Rng rng(2023);
  for (std::size_t n : {1u, 3u, 4u, 17u, 60u, 101u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    Mat x(n, 4);
    Vec y(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < 4; ++d) x.at(i, d) = rng.uniform();
      y[i] = rng.normal(0.0, 1.0);
    }
    GpHyperparams params;
    params.rho = {rng.uniform(0.05, 0.98), rng.uniform(0.05, 0.98),
                  rng.uniform(0.05, 0.98), rng.uniform(0.05, 0.98)};
    params.lambda_w = std::exp(rng.uniform(-1.5, 1.5));
    params.lambda_nugget = std::exp(rng.uniform(3.0, 9.0));
    const ReferenceGp want(x, y, params);
    const GaussianProcess gp(x, y, params);
    EXPECT_EQ(gp.log_marginal_likelihood(), want.log_marginal);
    Vec scratch;
    for (int trial = 0; trial < 8; ++trial) {
      const Vec at = {rng.uniform(), rng.uniform(), rng.uniform(),
                      rng.uniform()};
      const auto expected = want.predict(at);
      const auto got = gp.predict(at);
      EXPECT_EQ(got.mean, expected.mean);
      EXPECT_EQ(got.variance, expected.variance);
      const auto reused = gp.predict(at, scratch);
      EXPECT_EQ(reused.mean, expected.mean);
      EXPECT_EQ(reused.variance, expected.variance);
    }
  }
}

TEST(GpOracle, SplitSearchPicksTheInterleavedLoopsChoice) {
  // The seed form of the search: draw, score and compare one trial at a
  // time. fit_gp_hyperparams now draws every candidate first; the choice
  // must not change.
  Rng data_rng(2024);
  Mat x(30, 2);
  Vec y(30);
  for (std::size_t i = 0; i < 30; ++i) {
    x.at(i, 0) = data_rng.uniform();
    x.at(i, 1) = data_rng.uniform();
    y[i] = std::sin(5.0 * x.at(i, 0)) + 0.3 * x.at(i, 1);
  }
  Rng interleaved_rng(7);
  GpHyperparams want;
  double best_score = -1e300;
  for (std::size_t trial = 0; trial < kGpSearchTrials; ++trial) {
    GpHyperparams candidate;
    candidate.rho.resize(2);
    for (double& r : candidate.rho) r = interleaved_rng.uniform(0.05, 0.98);
    candidate.lambda_w = std::exp(interleaved_rng.uniform(-1.5, 1.5));
    candidate.lambda_nugget = std::exp(interleaved_rng.uniform(3.0, 9.0));
    double score;
    try {
      score = ReferenceGp(x, y, candidate).log_marginal + candidate.log_prior();
    } catch (const NumericError&) {
      continue;
    }
    if (score > best_score) {
      best_score = score;
      want = candidate;
    }
  }
  Rng rng(7);
  const GpHyperparams got = fit_gp_hyperparams(x, y, rng);
  EXPECT_EQ(got.rho, want.rho);
  EXPECT_EQ(got.lambda_w, want.lambda_w);
  EXPECT_EQ(got.lambda_nugget, want.lambda_nugget);
}

// -------------------------------------------------------------- linalg ----

TEST(Linalg, MatmulKnownProduct) {
  Mat a(2, 3);
  a.set_row(0, {1, 2, 3});
  a.set_row(1, {4, 5, 6});
  Mat b(3, 2);
  b.set_row(0, {7, 8});
  b.set_row(1, {9, 10});
  b.set_row(2, {11, 12});
  const Mat c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(Linalg, MatmulShapeMismatchThrows) {
  EXPECT_THROW(matmul(Mat(2, 3), Mat(2, 3)), Error);
}

TEST(Linalg, TransposeRoundTrip) {
  Mat a(2, 3);
  a.set_row(0, {1, 2, 3});
  a.set_row(1, {4, 5, 6});
  const Mat at = a.transposed();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_DOUBLE_EQ(at.at(2, 1), 6.0);
  const Mat back = at.transposed();
  EXPECT_DOUBLE_EQ(back.at(1, 2), 6.0);
}

TEST(Linalg, CholeskyReconstructs) {
  // K = L0 L0^T for a known lower-triangular L0.
  Mat k(3, 3);
  k.set_row(0, {4, 2, 2});
  k.set_row(1, {2, 5, 3});
  k.set_row(2, {2, 3, 6});
  const Mat l = cholesky(k);
  const Mat reconstructed = matmul(l, l.transposed());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(reconstructed.at(i, j), k.at(i, j), 1e-12);
    }
  }
}

TEST(Linalg, CholeskyRejectsNonPd) {
  Mat k(2, 2);
  k.set_row(0, {1, 2});
  k.set_row(1, {2, 1});  // eigenvalues 3, -1
  EXPECT_THROW(cholesky(k), NumericError);
}

TEST(Linalg, CholeskySolveMatchesDirect) {
  Mat k(3, 3);
  k.set_row(0, {4, 1, 0});
  k.set_row(1, {1, 3, 1});
  k.set_row(2, {0, 1, 2});
  const Vec b = {1, 2, 3};
  const Vec x = cholesky_solve(cholesky(k), b);
  const Vec kx = matvec(k, x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(kx[i], b[i], 1e-10);
}

TEST(Linalg, LogDetMatchesKnownValue) {
  Mat k(2, 2);
  k.set_row(0, {2, 0});
  k.set_row(1, {0, 8});
  EXPECT_NEAR(log_det_from_cholesky(cholesky(k)), std::log(16.0), 1e-12);
}

TEST(Linalg, TopEigenpairsDiagonal) {
  Mat a(3, 3);
  a.at(0, 0) = 5.0;
  a.at(1, 1) = 3.0;
  a.at(2, 2) = 1.0;
  const EigenPairs eig = top_eigenpairs(a, 2);
  ASSERT_EQ(eig.values.size(), 2u);
  EXPECT_NEAR(eig.values[0], 5.0, 1e-6);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-6);
  EXPECT_NEAR(std::abs(eig.vectors.at(0, 0)), 1.0, 1e-6);
  EXPECT_NEAR(std::abs(eig.vectors.at(1, 1)), 1.0, 1e-6);
}

TEST(Linalg, EigenvectorsOrthonormal) {
  Mat a(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      a.at(i, j) = 1.0 / (1.0 + static_cast<double>(i + j));  // Hilbert-ish, PSD
    }
  }
  const EigenPairs eig = top_eigenpairs(a, 3);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(dot(eig.vectors.col(k), eig.vectors.col(k)), 1.0, 1e-6);
    for (std::size_t m = k + 1; m < 3; ++m) {
      EXPECT_NEAR(dot(eig.vectors.col(k), eig.vectors.col(m)), 0.0, 1e-5);
    }
  }
}

// ------------------------------------------------------------------ GP ----

TEST(Gp, CorrelationIsOneAtZeroDistance) {
  const Vec rho = {0.5, 0.8};
  EXPECT_DOUBLE_EQ(gp_correlation({0.3, 0.7}, {0.3, 0.7}, rho), 1.0);
}

TEST(Gp, CorrelationDecaysWithDistance) {
  const Vec rho = {0.5};
  const double near = gp_correlation({0.1}, {0.2}, rho);
  const double far = gp_correlation({0.1}, {0.9}, rho);
  EXPECT_GT(near, far);
  // Paper form: rho^{4 d^2}, so d = 0.5 gives exactly rho.
  EXPECT_NEAR(gp_correlation({0.0}, {0.5}, rho), 0.5, 1e-12);
}

TEST(Gp, InterpolatesTrainingDataWithTinyNugget) {
  Mat x(5, 1);
  Vec y(5);
  for (std::size_t i = 0; i < 5; ++i) {
    x.at(i, 0) = static_cast<double>(i) / 4.0;
    y[i] = std::sin(3.0 * x.at(i, 0));
  }
  GpHyperparams params;
  params.rho = {0.5};
  params.lambda_w = 1.0;
  params.lambda_nugget = 1e8;
  const GaussianProcess gp(x, y, params);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto p = gp.predict({x.at(i, 0)});
    EXPECT_NEAR(p.mean, y[i], 1e-3);
  }
}

TEST(Gp, PredictionVarianceGrowsAwayFromData) {
  Mat x(3, 1);
  x.at(0, 0) = 0.1;
  x.at(1, 0) = 0.2;
  x.at(2, 0) = 0.3;
  const Vec y = {1.0, 2.0, 1.5};
  GpHyperparams params;
  params.rho = {0.3};
  params.lambda_w = 1.0;
  params.lambda_nugget = 1e6;
  const GaussianProcess gp(x, y, params);
  EXPECT_LT(gp.predict({0.2}).variance, gp.predict({0.95}).variance);
}

TEST(Gp, HyperparamSearchFindsReasonableFit) {
  Rng rng(61);
  Mat x(20, 1);
  Vec y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    x.at(i, 0) = static_cast<double>(i) / 19.0;
    y[i] = std::cos(4.0 * x.at(i, 0));
  }
  const GpHyperparams params = fit_gp_hyperparams(x, y, rng);
  const GaussianProcess gp(x, y, params);
  // Interior prediction should track the smooth function.
  EXPECT_NEAR(gp.predict({0.5}).mean, std::cos(2.0), 0.15);
}

TEST(Gp, RejectsBadShapesAndParams) {
  Mat x(3, 1);
  GpHyperparams params;
  params.rho = {0.5, 0.5};  // wrong dimension
  EXPECT_THROW(GaussianProcess(x, Vec(3, 0.0), params), Error);
  params.rho = {0.5};
  params.lambda_w = -1.0;
  EXPECT_THROW(GaussianProcess(x, Vec(3, 0.0), params), Error);
}

// --------------------------------------------------------------- GPMSA ----

// A cheap synthetic "simulator": logistic curve whose rate and plateau are
// the two parameters; outputs a 60-day log-cumulative curve.
Vec toy_simulator(double rate, double plateau) {
  Vec out(60);
  for (std::size_t t = 0; t < 60; ++t) {
    const double x =
        plateau / (1.0 + std::exp(-rate * (static_cast<double>(t) - 30.0)));
    out[t] = std::log(1.0 + x);
  }
  return out;
}

Mat toy_design(std::size_t n, Rng& rng) {
  Mat design(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    design.at(i, 0) = rng.uniform();
    design.at(i, 1) = rng.uniform();
  }
  return design;
}

Mat toy_outputs(const Mat& design) {
  Mat outputs(design.rows(), 60);
  for (std::size_t i = 0; i < design.rows(); ++i) {
    outputs.set_row(i, toy_simulator(0.05 + 0.3 * design.at(i, 0),
                                     500.0 + 4500.0 * design.at(i, 1)));
  }
  return outputs;
}

TEST(Gpmsa, EmulatorReproducesTrainingCurves) {
  Rng rng(62);
  const Mat design = toy_design(40, rng);
  const Mat outputs = toy_outputs(design);
  MultivariateEmulator emulator(design, outputs, 5, rng);
  EXPECT_EQ(emulator.output_length(), 60u);
  EXPECT_EQ(emulator.basis_count(), 5u);
  EXPECT_GT(emulator.variance_captured(), 0.95);
  // Training-point prediction close to truth.
  double worst = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    const auto pred = emulator.predict(design.row(i));
    const Vec truth = outputs.row(i);
    for (std::size_t t = 0; t < 60; ++t) {
      worst = std::max(worst, std::abs(pred.mean[t] - truth[t]));
    }
  }
  EXPECT_LT(worst, 0.5);  // log scale: within ~65% everywhere, usually much closer
}

TEST(Gpmsa, EmulatorGeneralizesToHeldOutPoints) {
  Rng rng(63);
  const Mat design = toy_design(50, rng);
  const Mat outputs = toy_outputs(design);
  MultivariateEmulator emulator(design, outputs, 5, rng);
  double rmse_sum = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    const Vec theta = {rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)};
    const Vec truth = toy_simulator(0.05 + 0.3 * theta[0],
                                    500.0 + 4500.0 * theta[1]);
    const auto pred = emulator.predict(theta);
    double err = 0.0;
    for (std::size_t t = 0; t < 60; ++t) {
      err += (pred.mean[t] - truth[t]) * (pred.mean[t] - truth[t]);
    }
    rmse_sum += std::sqrt(err / 60.0);
  }
  EXPECT_LT(rmse_sum / 10.0, 0.25);
}

TEST(Gpmsa, DiscrepancyBasisShape) {
  const Mat d = discrepancy_basis(100, 15.0, 10.0, 7);
  EXPECT_EQ(d.rows(), 100u);
  EXPECT_EQ(d.cols(), 7u);
  // Every kernel peaks somewhere strictly inside and is positive.
  for (std::size_t k = 0; k < 7; ++k) {
    double peak = 0.0;
    for (std::size_t t = 0; t < 100; ++t) {
      EXPECT_GT(d.at(t, k), 0.0);
      peak = std::max(peak, d.at(t, k));
    }
    EXPECT_NEAR(peak, 1.0, 0.01);
  }
}

TEST(Gpmsa, CalibrationModelPrefersTruth) {
  Rng rng(64);
  const Mat design = toy_design(40, rng);
  const Mat outputs = toy_outputs(design);
  MultivariateEmulator emulator(design, outputs, 5, rng);
  const Vec truth_theta = {0.6, 0.4};
  Vec observed = toy_simulator(0.05 + 0.3 * truth_theta[0],
                               500.0 + 4500.0 * truth_theta[1]);
  // Small observation noise.
  for (double& x : observed) x += rng.normal(0.0, 0.02);
  const GpmsaCalibrationModel model(emulator, observed);
  const double at_truth = model.log_posterior(truth_theta, 10.0, 400.0);
  const double far_away = model.log_posterior({0.05, 0.95}, 10.0, 400.0);
  EXPECT_GT(at_truth, far_away);
}

TEST(Gpmsa, LogPosteriorRejectsOutOfSupport) {
  Rng rng(65);
  const Mat design = toy_design(20, rng);
  const Mat outputs = toy_outputs(design);
  MultivariateEmulator emulator(design, outputs, 3, rng);
  const GpmsaCalibrationModel model(emulator, outputs.row(0));
  EXPECT_LT(model.log_posterior({-0.1, 0.5}, 1.0, 1.0), -1e200);
  EXPECT_LT(model.log_posterior({0.5, 0.5}, -1.0, 1.0), -1e200);
}

TEST(Gpmsa, PredictiveBandCoversObserved) {
  Rng rng(66);
  const Mat design = toy_design(40, rng);
  const Mat outputs = toy_outputs(design);
  MultivariateEmulator emulator(design, outputs, 5, rng);
  const Vec observed = toy_simulator(0.2, 2000.0);
  const GpmsaCalibrationModel model(emulator, observed);
  // Bands at a generous noise level must cover the observation (Fig 16's
  // goodness-of-fit criterion).
  const auto band = model.predictive_band({0.5, 0.33}, 1.0, 25.0);
  std::size_t inside = 0;
  for (std::size_t t = 0; t < observed.size(); ++t) {
    if (observed[t] >= band.mean[t] - 1.96 * band.sd[t] &&
        observed[t] <= band.mean[t] + 1.96 * band.sd[t]) {
      ++inside;
    }
  }
  EXPECT_GT(static_cast<double>(inside) / observed.size(), 0.8);
}

/// The seed log_posterior: full T x T covariance copied from D D^T,
/// reference factor and solves, one allocation per intermediate.
double reference_log_posterior(const MultivariateEmulator& emulator,
                               const Vec& observed, const Mat& replicate_cov,
                               const Vec& theta, double lambda_delta,
                               double lambda_eps) {
  for (double x : theta) {
    if (x < 0.0 || x > 1.0) return -1e300;
  }
  if (lambda_delta <= 0.0 || lambda_eps <= 0.0) return -1e300;
  const auto eta = emulator.predict(theta);
  const std::size_t t = observed.size();
  const Mat d = discrepancy_basis(t);
  Mat cov = matmul(d, d.transposed());
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t j = 0; j < t; ++j) {
      cov.at(i, j) /= lambda_delta;
      if (replicate_cov.rows() != 0) cov.at(i, j) += replicate_cov.at(i, j);
    }
    cov.at(i, i) += eta.variance[i] + 1.0 / lambda_eps + 1e-9;
  }
  Vec residual(t);
  for (std::size_t i = 0; i < t; ++i) residual[i] = observed[i] - eta.mean[i];
  double log_lik;
  try {
    const Mat l = reference_cholesky(cov);
    const Vec alpha = reference_solve_lower_transpose(
        l, reference_solve_lower(l, residual));
    log_lik = -0.5 * dot(residual, alpha) - 0.5 * log_det_from_cholesky(l);
  } catch (const NumericError&) {
    return -1e300;
  }
  const double lp_delta =
      (6.0 - 1.0) * std::log(lambda_delta) - 0.3 * lambda_delta;
  const double lp_eps = (3.0 - 1.0) * std::log(lambda_eps) - 0.05 * lambda_eps;
  return log_lik + lp_delta + lp_eps;
}

TEST(GpmsaOracle, LogPosteriorIsBitwiseTheReferenceFormula) {
  Rng rng(2025);
  const Mat design = toy_design(40, rng);
  const Mat outputs = toy_outputs(design);
  MultivariateEmulator emulator(design, outputs, 5, rng);
  Vec observed = toy_simulator(0.2, 2500.0);
  for (double& x : observed) x += rng.normal(0.0, 0.05);
  // A replicate covariance with off-diagonal structure, as the cycle
  // estimates it: a damped rank-3 outer-product sum plus a diagonal.
  Mat replicate(60, 60);
  for (int r = 0; r < 3; ++r) {
    const Vec v = random_vec(60, rng);
    for (std::size_t i = 0; i < 60; ++i) {
      for (std::size_t j = 0; j < 60; ++j) {
        replicate.at(i, j) += 1e-3 * v[i] * v[j] * (i == j ? 1.0 : 0.7);
      }
    }
  }
  for (const Mat& rep : {Mat{}, replicate}) {
    SCOPED_TRACE(rep.rows() == 0 ? "no replicate covariance"
                                 : "with replicate covariance");
    const GpmsaCalibrationModel model(emulator, observed, rep);
    GpmsaCalibrationModel::Workspace workspace;  // reused across calls
    for (int trial = 0; trial < 12; ++trial) {
      // Include out-of-support thetas and precisions.
      const Vec theta = {rng.uniform(-0.1, 1.1), rng.uniform(-0.1, 1.1)};
      const double lambda_delta = trial == 3 ? -1.0 : std::exp(rng.uniform(0.0, 4.0));
      const double lambda_eps = std::exp(rng.uniform(1.0, 6.0));
      const double want = reference_log_posterior(
          emulator, observed, rep, theta, lambda_delta, lambda_eps);
      EXPECT_EQ(model.log_posterior(theta, lambda_delta, lambda_eps), want);
      EXPECT_EQ(model.log_posterior(theta, lambda_delta, lambda_eps, workspace),
                want);
    }
  }
}

exec::ExecConfig with_jobs(std::size_t jobs) {
  exec::ExecConfig config;
  config.jobs = jobs;
  return config;
}

TEST(GpmsaOracle, FarmedFitMatchesSerialFit) {
  Rng data_rng(2026);
  const Mat design = toy_design(30, data_rng);
  const Mat outputs = toy_outputs(design);
  Rng serial_rng(11), farmed_rng(11);
  const MultivariateEmulator serial(design, outputs, 5, serial_rng,
                                    with_jobs(1));
  const MultivariateEmulator farmed(design, outputs, 5, farmed_rng,
                                    with_jobs(3));
  for (const Vec& theta : {Vec{0.1, 0.9}, Vec{0.5, 0.5}, Vec{0.77, 0.2}}) {
    const auto a = serial.predict(theta);
    const auto b = farmed.predict(theta);
    expect_bitwise_equal(b.mean, a.mean);
    expect_bitwise_equal(b.variance, a.variance);
  }
}

TEST(Gpmsa, ObservedLengthMismatchThrows) {
  Rng rng(67);
  const Mat design = toy_design(10, rng);
  const Mat outputs = toy_outputs(design);
  MultivariateEmulator emulator(design, outputs, 3, rng);
  EXPECT_THROW(GpmsaCalibrationModel(emulator, Vec(10, 0.0)), Error);
}

}  // namespace
}  // namespace epi
