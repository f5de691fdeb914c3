// Gaussian-process regression with the paper's correlation function.
//
// Appendix E: each basis coefficient w_i(theta) gets a zero-mean GP prior
// with marginal precision lambda_w and correlation
//     R(theta, theta'; rho) = prod_k rho_k^{4 (theta_k - theta'_k)^2},
// (the GPMSA parameterization of the squared-exponential kernel: rho_k in
// (0,1) is the correlation at half-range distance), plus a nugget so
// interpolation is not enforced.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "emulator/linalg.hpp"
#include "util/rng.hpp"

namespace epi {

struct GpHyperparams {
  Vec rho;               // one per input dimension, each in (0, 1)
  double lambda_w = 1.0; // marginal precision of the process
  double lambda_nugget = 1e4;  // precision of the nugget term

  /// Log prior: beta(1, 0.1)-like on rho (favoring smoothness), gamma on
  /// the precisions — the Appendix E hyperprior choices.
  double log_prior() const;
};

/// The paper's correlation function.
double gp_correlation(const Vec& a, const Vec& b, const Vec& rho);

class GaussianProcess {
 public:
  /// Fits (factorizes) the GP at the given inputs/outputs. Inputs should
  /// be scaled to the unit cube; outputs should be centered.
  GaussianProcess(Mat inputs, Vec outputs, GpHyperparams params);

  struct Prediction {
    double mean = 0.0;
    double variance = 0.0;
  };

  Prediction predict(const Vec& x) const;

  /// Allocation-free form for hot loops: `scratch` is resized to the
  /// training-point count (a no-op after the first call) and overwritten.
  /// Bitwise the same result as predict(x).
  Prediction predict(std::span<const double> x, Vec& scratch) const;

  /// Log marginal likelihood of the training outputs under the GP.
  double log_marginal_likelihood() const;

  const GpHyperparams& hyperparams() const { return params_; }

 private:
  Mat inputs_;
  Vec outputs_;
  GpHyperparams params_;
  Vec log_rho_;    // log(rho_k), precomputed once
  Mat chol_;       // U = Lᵀ of the covariance K = L Lᵀ (linalg.hpp layout)
  Vec alpha_;      // K^{-1} y
};

/// MAP-estimates hyperparameters by random search over (rho, lambda_w,
/// lambda_nugget), scoring log marginal likelihood + log prior. Cheap and
/// robust for ~100-point designs. The three steps are exposed below so a
/// caller can score the candidates on a farm.
constexpr std::size_t kGpSearchTrials = 60;
GpHyperparams fit_gp_hyperparams(const Mat& inputs, const Vec& outputs,
                                 Rng& rng,
                                 std::size_t trials = kGpSearchTrials);

/// The search's candidates, drawn from `rng` in trial order.
std::vector<GpHyperparams> draw_gp_hyperparam_candidates(std::size_t dims,
                                                         Rng& rng,
                                                         std::size_t trials);

/// One candidate's search score: log marginal likelihood + log prior, or
/// -infinity when its covariance is not positive definite (never chosen).
double gp_hyperparam_score(const Mat& inputs, const Vec& outputs,
                           const GpHyperparams& candidate);

/// The candidate with the strictly highest score, scanned in trial order
/// (ties keep the earlier trial). Throws when no candidate scored.
GpHyperparams best_gp_hyperparams(
    const std::vector<GpHyperparams>& candidates, const Vec& scores);

}  // namespace epi
