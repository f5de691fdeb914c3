#include "emulator/gp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace epi {

namespace {

/// R(a, b; rho) given log(rho_k): rho^{4 d^2} computed in log space for
/// stability.
double correlation(const double* a, const double* b, const double* log_rho,
                   std::size_t dims) {
  double log_corr = 0.0;
  for (std::size_t k = 0; k < dims; ++k) {
    const double d = a[k] - b[k];
    log_corr += 4.0 * d * d * log_rho[k];
  }
  return std::exp(log_corr);
}

Vec log_of(const Vec& rho) {
  Vec out(rho.size());
  for (std::size_t k = 0; k < rho.size(); ++k) out[k] = std::log(rho[k]);
  return out;
}

}  // namespace

double gp_correlation(const Vec& a, const Vec& b, const Vec& rho) {
  EPI_REQUIRE(a.size() == b.size() && a.size() == rho.size(),
              "gp_correlation dimension mismatch");
  return correlation(a.data(), b.data(), log_of(rho).data(), a.size());
}

double GpHyperparams::log_prior() const {
  double lp = 0.0;
  for (double r : rho) {
    if (r <= 0.0 || r >= 1.0) return -1e300;
    // Beta(1, 0.1) density up to a constant: (1-r)^(0.1-1).
    lp += (0.1 - 1.0) * std::log(1.0 - r);
  }
  // Gamma(a=5, b=5) on lambda_w (mode near 1 for standardized outputs).
  if (lambda_w <= 0.0 || lambda_nugget <= 0.0) return -1e300;
  lp += (5.0 - 1.0) * std::log(lambda_w) - 5.0 * lambda_w;
  // Gamma(a=3, b=0.003) on the nugget precision (large nugget precision =
  // small nugget variance favored).
  lp += (3.0 - 1.0) * std::log(lambda_nugget) - 0.003 * lambda_nugget;
  return lp;
}

GaussianProcess::GaussianProcess(Mat inputs, Vec outputs, GpHyperparams params)
    : inputs_(std::move(inputs)),
      outputs_(std::move(outputs)),
      params_(std::move(params)) {
  const std::size_t n = inputs_.rows();
  const std::size_t dims = inputs_.cols();
  EPI_REQUIRE(n == outputs_.size(), "GP inputs/outputs length mismatch");
  EPI_REQUIRE(params_.rho.size() == dims, "GP rho dimension mismatch");
  EPI_REQUIRE(params_.lambda_w > 0.0 && params_.lambda_nugget > 0.0,
              "GP precisions must be positive");
  log_rho_ = log_of(params_.rho);
  // Row j of the factor's storage holds column j of K's lower triangle,
  // K(i, j) = R(x_i, x_j) / lambda_w for i >= j (plus the nugget on the
  // diagonal): the only entries the factorization reads.
  chol_ = Mat(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    const double* xj = inputs_.row_data(j);
    double* kj = chol_.row_data(j);
    for (std::size_t i = j; i < n; ++i) {
      kj[i] = correlation(inputs_.row_data(i), xj, log_rho_.data(), dims) /
              params_.lambda_w;
    }
    kj[j] += 1.0 / params_.lambda_nugget + 1e-10;
  }
  cholesky_upper_in_place(chol_);
  alpha_ = outputs_;
  forward_substitute_upper(chol_, alpha_);
  back_substitute_upper(chol_, alpha_);
}

GaussianProcess::Prediction GaussianProcess::predict(const Vec& x) const {
  Vec scratch;
  return predict(x, scratch);
}

GaussianProcess::Prediction GaussianProcess::predict(
    std::span<const double> x, Vec& scratch) const {
  EPI_REQUIRE(x.size() == inputs_.cols(), "GP input dimension mismatch");
  const std::size_t n = inputs_.rows();
  scratch.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch[i] = correlation(x.data(), inputs_.row_data(i), log_rho_.data(),
                             x.size()) /
                 params_.lambda_w;
  }
  Prediction p;
  p.mean = dot(scratch, alpha_);
  forward_substitute_upper(chol_, scratch);
  const double prior_var = 1.0 / params_.lambda_w + 1.0 / params_.lambda_nugget;
  p.variance = std::max(1e-12, prior_var - dot(scratch, scratch));
  return p;
}

double GaussianProcess::log_marginal_likelihood() const {
  const auto n = static_cast<double>(outputs_.size());
  return -0.5 * dot(outputs_, alpha_) - 0.5 * log_det_from_cholesky(chol_) -
         0.5 * n * std::log(2.0 * 3.14159265358979323846);
}

GpHyperparams fit_gp_hyperparams(const Mat& inputs, const Vec& outputs,
                                 Rng& rng, std::size_t trials) {
  const auto candidates =
      draw_gp_hyperparam_candidates(inputs.cols(), rng, trials);
  Vec scores;
  scores.reserve(candidates.size());
  for (const GpHyperparams& candidate : candidates) {
    scores.push_back(gp_hyperparam_score(inputs, outputs, candidate));
  }
  return best_gp_hyperparams(candidates, scores);
}

std::vector<GpHyperparams> draw_gp_hyperparam_candidates(std::size_t dims,
                                                         Rng& rng,
                                                         std::size_t trials) {
  EPI_REQUIRE(trials > 0, "need at least one hyperparameter trial");
  std::vector<GpHyperparams> candidates(trials);
  for (GpHyperparams& candidate : candidates) {
    candidate.rho.resize(dims);
    for (double& r : candidate.rho) r = rng.uniform(0.05, 0.98);
    candidate.lambda_w = std::exp(rng.uniform(-1.5, 1.5));
    candidate.lambda_nugget = std::exp(rng.uniform(3.0, 9.0));
  }
  return candidates;
}

double gp_hyperparam_score(const Mat& inputs, const Vec& outputs,
                           const GpHyperparams& candidate) {
  try {
    const GaussianProcess gp(inputs, outputs, candidate);
    return gp.log_marginal_likelihood() + candidate.log_prior();
  } catch (const NumericError&) {
    // Non-PD covariance at extreme hyperparameters.
    return -std::numeric_limits<double>::infinity();
  }
}

GpHyperparams best_gp_hyperparams(
    const std::vector<GpHyperparams>& candidates, const Vec& scores) {
  EPI_REQUIRE(candidates.size() == scores.size() && !candidates.empty(),
              "one score per hyperparameter candidate");
  std::size_t best = 0;
  double best_score = -1e300;
  for (std::size_t trial = 0; trial < candidates.size(); ++trial) {
    if (scores[trial] > best_score) {
      best_score = scores[trial];
      best = trial;
    }
  }
  EPI_REQUIRE(best_score > -1e299, "GP hyperparameter search found no valid fit");
  return candidates[best];
}

}  // namespace epi
