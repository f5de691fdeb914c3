// The calibration-prediction cycle (paper Figs 4-5, case study 3,
// Appendix F).
//
// End to end: generate the region, take the observed county-level
// confirmed-case series (synthetic surveillance), simulate a 100-point
// Latin-hypercube prior design over (TAU, SYMP, SH compliance, VHI
// compliance), fit the GPMSA emulator, run Bayesian calibration, resample
// 100 posterior configurations, simulate them forward, and produce the
// Fig 17 forecast band. Fig 15's prior/posterior scatter and Fig 16's
// emulator band come from the same result object.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analytics/ensemble.hpp"
#include "calibration/calibrate.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/ledger.hpp"
#include "resilience/retry_policy.hpp"
#include "surveillance/ground_truth.hpp"
#include "synthpop/generator.hpp"
#include "workflow/designs.hpp"

namespace epi::obs {
class Session;
}

namespace epi {

struct CalibrationCycleConfig {
  std::string region = "VA";
  double scale = 1.0 / 2000.0;
  std::uint64_t seed = 20200411;  // case study: data through April 11, 2020
  std::size_t prior_configs = 100;
  std::size_t posterior_configs = 100;
  /// Days of observed data used for calibration.
  Tick calibration_days = 80;
  /// Forecast horizon beyond the observed window (8 weeks in Fig 17).
  Tick horizon_days = 56;
  /// Posterior configurations actually simulated for the forecast band.
  std::size_t prediction_runs = 30;
  McmcConfig mcmc;

  /// Surveillance-truth epidemic intensity. At small population scales the
  /// observed counts must be large enough to be meaningful once scaled
  /// down, so the default truth is a hot wave (see calibration_cycle.cpp's
  /// takeoff alignment).
  double truth_beta = 0.42;
  double truth_distancing_effect = 0.52;
  /// The synthetic surveillance reports (nearly all) symptomatic cases so
  /// that observed counts and the simulator's symptomatic-entry counts
  /// share units; the center of the SYMP calibration range keeps the two
  /// consistent.
  double truth_reporting_rate = 0.575;
  /// Days of surveillance history searched for the takeoff point.
  int takeoff_search_days = 150;

  /// Injected fault environment for the home-cluster simulation farm
  /// (FaultSpec::sim_failure_prob: one prior/forecast run dying
  /// transiently and being re-run). Disabled by default; because a
  /// replicate is a pure function of its config, retries reproduce the
  /// exact same trajectory and only the resilience accounting changes.
  FaultSpec faults;
  RetryPolicy retry;

  /// Worker threads for the farm (prior-design runs, the
  /// replicate-covariance runs feeding the emulator, the emulator's
  /// hyperparameter search, the calibration's start pre-scan, and the
  /// forecast ensemble); 0 = the EPI_JOBS environment variable (default
  /// 1, the serial seed path). Every farm task is a pure function of its
  /// config/seed, so parallel output is byte-identical to serial — the
  /// per-task resilience ledgers are merged in task-index order. The
  /// Metropolis chain itself is serial.
  std::size_t jobs = 0;

  /// Optional observability session (non-owning; nullptr = disabled, the
  /// exact untraced path): farm task spans land on per-worker lanes of
  /// the "exec" trace process, plus exec.tasks/exec.steal counters and
  /// the exec.queue_depth gauge.
  obs::Session* trace = nullptr;

  /// Injectable region supplier (null = generate_region directly). The
  /// scenario service points this at its content-addressed artifact cache
  /// so concurrent cycles for one (region, scale, seed) share a single
  /// synthetic-population build; generate_region is pure, so the cycle
  /// result is byte-identical either way.
  RegionSource region_source;
};

/// Everything the cycle computes up through the prior-design simulations
/// and the replicate covariance — the expensive, reusable front half.
/// Requests that agree on the prior-stage knobs (region, scale, seed,
/// prior_configs, calibration_days, horizon_days, the truth parameters,
/// faults/retry) but differ in the tail (posterior_configs, MCMC settings,
/// prediction_runs) can share one stage artifact; the scenario service
/// caches it content-addressed.
struct CyclePriorStage {
  std::shared_ptr<const SyntheticRegion> region;
  std::vector<double> observed_cumulative;
  std::vector<double> truth_extension;
  CalibrationDesign prior_design;
  /// Log-transformed prior-design trajectories, one row per design point.
  Mat sim_outputs;
  Mat replicate_cov;
  /// Retry accounting for the stage's simulation farm; merged into the
  /// finishing ledger so a split cycle reports exactly what the fused one
  /// does.
  ResilienceLedger ledger;
};

/// Runs the front half of the cycle (region/truth/prior sims/replicate
/// covariance). Pure function of the prior-stage knobs in `config`.
CyclePriorStage run_cycle_prior_stage(const CalibrationCycleConfig& config);

struct CalibrationCycleResult {
  CalibrationDesign prior_design;
  AgentCalibrationResult calibration;
  /// Posterior configurations in original units (TAU, SYMP, SH, VHI).
  std::vector<ParamPoint> posterior_configs;

  /// Observed cumulative confirmed cases (scaled to the simulated
  /// population) for the calibration window.
  std::vector<double> observed_cumulative;
  /// Hidden-truth continuation over the forecast horizon (for scoring).
  std::vector<double> truth_extension;

  /// Fig 17: ensemble forecast of cumulative confirmed cases over
  /// calibration_days + horizon_days.
  EnsembleBand forecast;
  /// Fraction of truth-extension points inside the forecast band.
  double forecast_coverage = 0.0;

  /// Retry accounting for the simulation farm (all-zero when
  /// CalibrationCycleConfig::faults is disabled).
  ResilienceSummary resilience;
};

CalibrationCycleResult run_calibration_cycle(
    const CalibrationCycleConfig& config);

/// Finishes a cycle from a (possibly shared, possibly cached) prior
/// stage: emulator calibration, posterior resampling, the forecast
/// ensemble. `stage` is read-only so one stage artifact can serve many
/// concurrent tails. run_calibration_cycle(config) is byte-identical to
/// finish_calibration_cycle(config, run_cycle_prior_stage(config)).
CalibrationCycleResult finish_calibration_cycle(
    const CalibrationCycleConfig& config, const CyclePriorStage& stage);

/// Deterministic full-field dump of a cycle result (doubles rendered as
/// hexfloat, so distinct values never collide). Equal strings mean
/// byte-identical results — the oracle used by the parallel-vs-serial
/// tests, bench_farm_scaling, and the CI EPI_JOBS report diff.
std::string serialize(const CalibrationCycleResult& result);

}  // namespace epi
