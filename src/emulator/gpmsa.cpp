#include "emulator/gpmsa.hpp"

#include <cmath>

#include "util/error.hpp"

namespace epi {

MultivariateEmulator::MultivariateEmulator(Mat design, Mat outputs,
                                           std::size_t num_basis, Rng& rng,
                                           const exec::ExecConfig& farm)
    : design_(std::move(design)) {
  const std::size_t m = design_.rows();
  const std::size_t t = outputs.cols();
  EPI_REQUIRE(outputs.rows() == m, "design/outputs row mismatch");
  EPI_REQUIRE(m >= 3, "emulator needs at least 3 design points");
  num_basis = std::min(num_basis, std::min(m - 1, t));

  // Standardize: remove the mean curve, scale by the global sd.
  phi0_.assign(t, 0.0);
  for (std::size_t j = 0; j < t; ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < m; ++i) sum += outputs.at(i, j);
    phi0_[j] = sum / static_cast<double>(m);
  }
  Mat centered(m, t);
  double total_var = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < t; ++j) {
      const double v = outputs.at(i, j) - phi0_[j];
      centered.at(i, j) = v;
      total_var += v * v;
    }
  }
  scale_ = std::sqrt(std::max(1e-12, total_var / static_cast<double>(m * t)));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < t; ++j) centered.at(i, j) /= scale_;
  }

  // Eigenbasis of the T x T output covariance.
  const Mat cov = matmul(centered.transposed(), centered);
  const EigenPairs eig = top_eigenpairs(cov, num_basis);
  basis_ = eig.vectors;  // t x p

  double captured = 0.0;
  double trace = 0.0;
  for (std::size_t j = 0; j < t; ++j) trace += cov.at(j, j);
  for (double v : eig.values) captured += v;
  variance_captured_ = trace > 0.0 ? captured / trace : 1.0;

  // Basis coefficients per design point: W = centered * basis (m x p).
  const Mat weights = matmul(centered, basis_);

  // Independent GP per coefficient, MAP hyperparameters.
  std::vector<Vec> coefficients(num_basis);
  std::vector<std::vector<GpHyperparams>> candidates(num_basis);
  for (std::size_t k = 0; k < num_basis; ++k) {
    Vec w = weights.col(k);
    // Normalize coefficient scale so the lambda_w prior (centered at 1)
    // is appropriate for every component.
    double w_var = 0.0;
    for (double x : w) w_var += x * x;
    w_var = std::max(1e-12, w_var / static_cast<double>(m));
    coeff_scales_.push_back(std::sqrt(w_var));
    for (double& x : w) x /= coeff_scales_.back();
    coefficients[k] = std::move(w);
    Rng gp_rng = rng.derive({0x475053ULL, k});  // "GPS"
    candidates[k] =
        draw_gp_hyperparam_candidates(design_.cols(), gp_rng, kGpSearchTrials);
  }
  exec::ExecConfig fit_farm = farm;
  fit_farm.label = "emulator_fit";
  const Vec scores = exec::parallel_block_map(
      num_basis * kGpSearchTrials, /*block=*/10,
      [&](std::size_t begin, std::size_t end) {
        Vec block;
        for (std::size_t task = begin; task < end; ++task) {
          const std::size_t k = task / kGpSearchTrials;
          block.push_back(gp_hyperparam_score(
              design_, coefficients[k], candidates[k][task % kGpSearchTrials]));
        }
        return block;
      },
      fit_farm);
  gps_.reserve(num_basis);
  for (std::size_t k = 0; k < num_basis; ++k) {
    const auto first =
        scores.begin() + static_cast<std::ptrdiff_t>(k * kGpSearchTrials);
    const GpHyperparams params = best_gp_hyperparams(
        candidates[k], Vec(first, first + kGpSearchTrials));
    gps_.emplace_back(design_, std::move(coefficients[k]), params);
  }
}

MultivariateEmulator::CurvePrediction MultivariateEmulator::predict(
    const Vec& theta_unit) const {
  CurvePrediction out;
  Vec scratch;
  predict(theta_unit, out, scratch);
  return out;
}

void MultivariateEmulator::predict(std::span<const double> theta_unit,
                                   CurvePrediction& out, Vec& scratch) const {
  EPI_REQUIRE(theta_unit.size() == design_.cols(),
              "theta dimension mismatch");
  const std::size_t t = phi0_.size();
  out.mean = phi0_;
  out.variance.assign(t, 0.0);
  for (std::size_t k = 0; k < gps_.size(); ++k) {
    const auto p = gps_[k].predict(theta_unit, scratch);
    const double mean_k = p.mean * coeff_scales_[k] * scale_;
    const double var_k =
        p.variance * coeff_scales_[k] * coeff_scales_[k] * scale_ * scale_;
    for (std::size_t j = 0; j < t; ++j) {
      const double phi = basis_.at(j, k);
      out.mean[j] += phi * mean_k;
      out.variance[j] += phi * phi * var_k;
    }
  }
}

Mat discrepancy_basis(std::size_t series_length, double kernel_sd,
                      double spacing, std::size_t num_kernels) {
  EPI_REQUIRE(series_length > 0, "empty discrepancy basis");
  EPI_REQUIRE(kernel_sd > 0.0 && spacing > 0.0, "invalid kernel geometry");
  Mat d(series_length, num_kernels);
  // Kernels centred to cover the series; the paper spaces them 10 days
  // apart — for longer series the spacing stretches to keep coverage.
  const double span = static_cast<double>(series_length - 1);
  const double step =
      num_kernels > 1 ? std::max(spacing, span / static_cast<double>(num_kernels - 1))
                      : 0.0;
  const double first = (span - step * static_cast<double>(num_kernels - 1)) / 2.0;
  for (std::size_t k = 0; k < num_kernels; ++k) {
    const double center = first + step * static_cast<double>(k);
    for (std::size_t j = 0; j < series_length; ++j) {
      const double z = (static_cast<double>(j) - center) / kernel_sd;
      d.at(j, k) = std::exp(-0.5 * z * z);
    }
  }
  return d;
}

GpmsaCalibrationModel::GpmsaCalibrationModel(
    const MultivariateEmulator& emulator, Vec observed,
    Mat replicate_covariance)
    : emulator_(emulator),
      observed_(std::move(observed)),
      replicate_covariance_t_(replicate_covariance.transposed()) {
  EPI_REQUIRE(observed_.size() == emulator_.output_length(),
              "observed series length (" << observed_.size()
                                         << ") must match emulator output ("
                                         << emulator_.output_length() << ")");
  if (replicate_covariance_t_.rows() != 0) {
    EPI_REQUIRE(replicate_covariance_t_.rows() == observed_.size() &&
                    replicate_covariance_t_.cols() == observed_.size(),
                "replicate covariance must be T x T");
  }
  discrepancy_ = discrepancy_basis(observed_.size());
  discrepancy_gram_t_ =
      matmul(discrepancy_, discrepancy_.transposed()).transposed();
}

double GpmsaCalibrationModel::log_posterior(const Vec& theta_unit,
                                            double lambda_delta,
                                            double lambda_eps) const {
  Workspace workspace;
  return log_posterior(theta_unit, lambda_delta, lambda_eps, workspace);
}

double GpmsaCalibrationModel::log_posterior(std::span<const double> theta_unit,
                                            double lambda_delta,
                                            double lambda_eps,
                                            Workspace& ws) const {
  for (double x : theta_unit) {
    if (x < 0.0 || x > 1.0) return -1e300;  // uniform prior support
  }
  if (lambda_delta <= 0.0 || lambda_eps <= 0.0) return -1e300;

  emulator_.predict(theta_unit, ws.eta, ws.gp_scratch);
  const std::size_t t = observed_.size();
  // Covariance diag(eta var) + D D^T / lambda_delta (+ replicate cov) +
  // I / lambda_eps: only the lower triangle, which is all the
  // factorization reads, built column by column into the factor layout.
  if (ws.factor.rows() != t) ws.factor = Mat(t, t);
  const bool replicates = replicate_covariance_t_.rows() != 0;
  for (std::size_t j = 0; j < t; ++j) {
    const double* gram = discrepancy_gram_t_.row_data(j);
    double* col = ws.factor.row_data(j);
    for (std::size_t i = j; i < t; ++i) col[i] = gram[i] / lambda_delta;
    if (replicates) {
      const double* rep = replicate_covariance_t_.row_data(j);
      for (std::size_t i = j; i < t; ++i) col[i] += rep[i];
    }
    col[j] += ws.eta.variance[j] + 1.0 / lambda_eps + 1e-9;
  }
  ws.residual.resize(t);
  for (std::size_t i = 0; i < t; ++i) {
    ws.residual[i] = observed_[i] - ws.eta.mean[i];
  }

  double log_lik;
  try {
    cholesky_upper_in_place(ws.factor);
    ws.alpha = ws.residual;
    forward_substitute_upper(ws.factor, ws.alpha);
    back_substitute_upper(ws.factor, ws.alpha);
    log_lik = -0.5 * dot(ws.residual, ws.alpha) -
              0.5 * log_det_from_cholesky(ws.factor);
  } catch (const NumericError&) {
    return -1e300;
  }
  // Gamma hyperpriors (Appendix E: "all precision hyper-parameters are
  // given suitable gamma priors"). The rates anchor realistic scales for
  // logged case counts: discrepancy kernels with sd ~ 0.5 and observation
  // noise with sd ~ 0.15 — surveillance series are noisy, and letting
  // lambda_eps run away would over-concentrate the calibration posterior.
  // The discrepancy prior is deliberately informative (kernel sd ~ 0.2 in
  // log space): delta must absorb systematic *shape* misfit, not carry the
  // level of the curve — otherwise theta and delta trade off freely and
  // the calibration stops constraining theta (the classic GPMSA
  // identifiability tug-of-war).
  const double lp_delta =
      (6.0 - 1.0) * std::log(lambda_delta) - 0.3 * lambda_delta;
  const double lp_eps = (3.0 - 1.0) * std::log(lambda_eps) - 0.05 * lambda_eps;
  return log_lik + lp_delta + lp_eps;
}

GpmsaCalibrationModel::Band GpmsaCalibrationModel::predictive_band(
    const Vec& theta_unit, double lambda_delta, double lambda_eps) const {
  const auto eta = emulator_.predict(theta_unit);
  Band band;
  band.mean = eta.mean;
  band.sd.resize(eta.mean.size());
  for (std::size_t i = 0; i < eta.mean.size(); ++i) {
    const double disc_var = discrepancy_gram_t_.at(i, i) / lambda_delta;
    const double rep_var = replicate_covariance_t_.rows() != 0
                               ? replicate_covariance_t_.at(i, i)
                               : 0.0;
    band.sd[i] =
        std::sqrt(eta.variance[i] + disc_var + rep_var + 1.0 / lambda_eps);
  }
  return band;
}

}  // namespace epi
