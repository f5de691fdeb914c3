// GPMSA-style multivariate emulator and calibration model (Appendix E).
//
// The observed series y is modeled as y = eta(theta) + delta + eps:
//   * eta — the simulator at the best parameter setting, emulated via a
//     basis representation eta(theta) = phi0 + sum_k phi_k w_k(theta) + w0
//     with p_eta = 5 eigenvector basis functions and independent GP priors
//     on the coefficients w_k;
//   * delta — systematic discrepancy on a kernel basis (1-d normal kernels
//     with sd 15 days spaced 10 days apart, p_delta = 7);
//   * eps — iid observation error.
// Precision hyperparameters carry gamma priors, correlations beta priors;
// the posterior over theta is explored by MCMC (calibration module).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "emulator/gp.hpp"
#include "emulator/linalg.hpp"
#include "exec/executor.hpp"
#include "util/rng.hpp"

namespace epi {

/// Emulator of a multivariate (time-series) simulator output.
class MultivariateEmulator {
 public:
  /// `design`: m x d parameter settings scaled to the unit cube.
  /// `outputs`: m x T simulator outputs (one row per design point; the
  /// calibration workflow feeds logged cumulative case counts).
  /// `num_basis`: p_eta (paper value 5).
  /// `farm`: where the hyperparameter search runs. The (basis, trial)
  /// candidates are scored in "emulator_fit" tasks of ten; they are drawn
  /// serially from each basis's derived stream beforehand and the argmax
  /// is taken in trial order, so the fit is identical at any job count.
  MultivariateEmulator(Mat design, Mat outputs, std::size_t num_basis,
                       Rng& rng, const exec::ExecConfig& farm = {});

  struct CurvePrediction {
    Vec mean;      // length T
    Vec variance;  // length T (emulator uncertainty only)
  };

  /// Emulated simulator output at an untried setting (unit-cube coords).
  CurvePrediction predict(const Vec& theta_unit) const;

  /// Allocation-free form for hot loops: overwrites `out` (its vectors
  /// keep their storage) and uses `scratch` for the per-basis GP solves.
  /// Bitwise the same result as predict(theta_unit).
  void predict(std::span<const double> theta_unit, CurvePrediction& out,
               Vec& scratch) const;

  std::size_t output_length() const { return phi0_.size(); }
  std::size_t input_dims() const { return design_.cols(); }
  std::size_t basis_count() const { return gps_.size(); }
  const Vec& mean_curve() const { return phi0_; }
  /// Fraction of output variance captured by the retained basis.
  double variance_captured() const { return variance_captured_; }

 private:
  Mat design_;
  Vec phi0_;        // column means of the training outputs
  double scale_ = 1.0;  // global standardization scale
  Mat basis_;       // T x p_eta eigenvector basis (columns phi_k)
  std::vector<GaussianProcess> gps_;
  Vec coeff_scales_;  // per-basis coefficient standardization
  double variance_captured_ = 1.0;
};

/// Discrepancy basis D (T x p_delta): normal kernels, sd `kernel_sd` days,
/// spaced `spacing` days (paper: 15 and 10, p_delta = 7).
Mat discrepancy_basis(std::size_t series_length, double kernel_sd = 15.0,
                      double spacing = 10.0, std::size_t num_kernels = 7);

/// The calibration posterior over (theta, lambda_delta, lambda_eps).
class GpmsaCalibrationModel {
 public:
  /// `observed` must have the emulator's output length.
  /// `replicate_covariance` (optional, T x T) is the covariance of
  /// simulator replicate-to-replicate noise at a fixed parameter setting;
  /// the production system handles this stochasticity with quantile-based
  /// emulation [18], we add the empirical covariance to the likelihood.
  GpmsaCalibrationModel(const MultivariateEmulator& emulator, Vec observed,
                        Mat replicate_covariance = {});

  /// Log posterior density (up to a constant): Gaussian likelihood with
  /// covariance diag(emulator var) + D D^T / lambda_delta + I / lambda_eps,
  /// uniform prior on theta in the unit cube, gamma priors on precisions.
  double log_posterior(const Vec& theta_unit, double lambda_delta,
                       double lambda_eps) const;

  /// Per-caller scratch for log_posterior. The model itself holds no
  /// mutable state, so concurrent evaluations are safe as long as each
  /// thread brings its own workspace; after the first call on a
  /// workspace an evaluation allocates nothing.
  struct Workspace {
    Mat factor;  // T x T: the covariance, then its factor (linalg layout)
    Vec residual;
    Vec alpha;
    MultivariateEmulator::CurvePrediction eta;
    Vec gp_scratch;
  };

  /// Allocation-free form; bitwise the same value as the form above.
  double log_posterior(std::span<const double> theta_unit,
                       double lambda_delta, double lambda_eps,
                       Workspace& workspace) const;

  /// Posterior-predictive band at theta: emulator mean, with total sd
  /// including discrepancy and observation noise.
  struct Band {
    Vec mean;
    Vec sd;
  };
  Band predictive_band(const Vec& theta_unit, double lambda_delta,
                       double lambda_eps) const;

  const Vec& observed() const { return observed_; }

 private:
  const MultivariateEmulator& emulator_;
  Vec observed_;
  Mat discrepancy_;       // T x p_delta
  // Both T x T matrices are stored transposed, so row j holds column j of
  // the lower triangle log_posterior reads (linalg.hpp's factor layout);
  // the diagonal predictive_band reads is unchanged.
  Mat discrepancy_gram_t_;  // (D D^T)ᵀ, precomputed
  Mat replicate_covariance_t_;  // T x T or empty
};

}  // namespace epi
