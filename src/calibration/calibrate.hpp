// Calibration workflows (paper Fig 4, Appendix E, case studies 2-3).
//
// Agent-based path: the simulator is expensive, so a prior design (Latin
// hypercube, typically 100 configurations) is simulated once; a GPMSA
// emulator is fit to the (log) output series; MCMC on the emulator-based
// posterior produces plausible parameter configurations; the posterior is
// resampled into a new set of configurations handed to the prediction
// workflow.
//
// Metapopulation path: the model is cheap, so calibration "is carried out
// by directly simulating from the model in the MCMC loop" with the Eq (6)
// likelihood (independent counties, Gaussian noise with sd = 20% of daily
// case counts).
#pragma once

#include <vector>

#include "calibration/mcmc.hpp"
#include "emulator/gpmsa.hpp"
#include "exec/executor.hpp"
#include "metapop/metapop.hpp"
#include "util/lhs.hpp"

namespace epi {

/// A calibration design: named parameter ranges plus the concrete
/// configurations (in original units) to simulate.
struct CalibrationDesign {
  std::vector<ParamRange> ranges;
  std::vector<ParamPoint> points;
};

/// LHS prior design over `ranges` (case study 3 uses n = 100).
CalibrationDesign make_prior_design(std::vector<ParamRange> ranges,
                                    std::size_t n, Rng& rng);

struct AgentCalibrationResult {
  /// Posterior samples over theta (original units), resampled from the
  /// MCMC chain — the configurations fed to the prediction workflow.
  std::vector<ParamPoint> posterior_configs;
  /// Full chain in unit-cube coordinates (diagnostics, Fig 15 scatter).
  McmcResult chain;
  /// Posterior-mean predictive band (Fig 16): emulated mean and the 95%
  /// envelope including discrepancy + observation noise.
  Vec band_mean;
  Vec band_lo;
  Vec band_hi;
  /// Fraction of observed points inside the 95% band (goodness-of-fit;
  /// "the result is good if the ground truth falls between the green
  /// curves").
  double coverage95 = 0.0;
  double acceptance_rate = 0.0;
  double emulator_variance_captured = 0.0;
};

/// Emulator-based Bayesian calibration of the agent model.
class AgentCalibrator {
 public:
  /// `design`: the simulated prior design. `sim_outputs`: one row per
  /// design point — the simulator's (log-transformed) output series.
  /// `observed`: the (log-transformed) ground-truth series, same length.
  /// `replicate_covariance` (optional): simulator replicate-noise
  /// covariance handed to the GPMSA likelihood.
  /// `farm`: jobs and trace sinks for the two embarrassingly parallel
  /// stages, the emulator's hyperparameter search ("emulator_fit" tasks)
  /// and calibrate()'s start pre-scan ("start_prescan" tasks). Both reduce
  /// in index order, so results are identical at any job count. The
  /// Metropolis chain itself stays serial.
  AgentCalibrator(CalibrationDesign design, Mat sim_outputs, Vec observed,
                  std::uint64_t seed, Mat replicate_covariance = {},
                  exec::ExecConfig farm = {});

  /// Runs MCMC over (theta, lambda_delta, lambda_eps) and resamples
  /// `num_posterior_configs` configurations from the posterior.
  AgentCalibrationResult calibrate(std::size_t num_posterior_configs = 100,
                                   const McmcConfig& mcmc = {});

  const MultivariateEmulator& emulator() const { return emulator_; }
  const GpmsaCalibrationModel& model() const { return model_; }

 private:
  CalibrationDesign design_;
  Rng rng_;
  MultivariateEmulator emulator_;
  GpmsaCalibrationModel model_;
  exec::ExecConfig farm_;
};

/// Direct-simulation calibration of the metapopulation model (Eq 6).
class MetapopCalibrator {
 public:
  /// `observed_daily[c][d]`: observed new confirmed cases per county/day.
  MetapopCalibrator(const MetapopModel& model,
                    std::vector<std::vector<double>> observed_daily,
                    std::vector<MetapopSeed> seeds,
                    MetapopParams base_params);

  /// Eq (6) log likelihood at a parameter setting; theta maps onto
  /// (beta, infectious_days).
  double log_likelihood(double beta, double infectious_days) const;

  struct Result {
    McmcResult chain;  // over (beta, infectious_days), original units
    MetapopParams map_params;
  };
  Result calibrate(const ParamRange& beta_range,
                   const ParamRange& infectious_range, const McmcConfig& mcmc,
                   Rng& rng) const;

 private:
  const MetapopModel& model_;
  std::vector<std::vector<double>> observed_;
  std::vector<MetapopSeed> seeds_;
  MetapopParams base_params_;
  int days_;
};

}  // namespace epi
