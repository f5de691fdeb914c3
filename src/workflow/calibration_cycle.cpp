#include "workflow/calibration_cycle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analytics/aggregate.hpp"
#include "epihiper/parallel.hpp"
#include "exec/executor.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "workflow/report_text.hpp"

namespace epi {

namespace {

/// Simulates one calibration configuration and returns the cumulative
/// confirmed-case series (state level) over `days`.
std::vector<double> simulate_config(const SyntheticRegion& region,
                                    const CellConfig& cell, Tick days,
                                    std::uint32_t replicate) {
  SimulationConfig sim_config = cell.make_sim_config(replicate);
  sim_config.num_ticks = days;
  const DiseaseModel model = covid_model(cell.disease);
  const SimOutput output =
      run_simulation(region.network, region.population, model, sim_config,
                     [&] { return cell.make_interventions(); });
  return aggregate_state_series(output, region.population, model, days,
                                AggregationTarget::kCumulativeConfirmed);
}

/// Runs `body` under transient-failure injection: failed attempts are
/// recorded and re-run (a replicate is a pure function of its config, so
/// the retry reproduces the identical trajectory). Gives up — and takes
/// the result of the final attempt — when the policy is exhausted.
template <typename Body>
auto with_sim_retries(const FaultInjector& faults, const RetryPolicy& policy,
                      std::uint64_t job_seq, ResilienceLedger& ledger,
                      Body&& body) {
  std::uint32_t attempt = 1;
  while (faults.sim_failure(job_seq, attempt) &&
         !policy.give_up(attempt, 0.0)) {
    ledger.record(FaultKind::kSimRetry, 0.0,
                  "prior/forecast job " + std::to_string(job_seq));
    ++attempt;
  }
  return body();
}

/// Executor configuration for one farm stage; the observability sinks
/// come from the (optional) session.
exec::ExecConfig farm_config(const CalibrationCycleConfig& config,
                             std::string label) {
  exec::ExecConfig farm;
  farm.jobs = config.jobs;
  farm.label = std::move(label);
  if (config.trace != nullptr) {
    farm.obs.trace = &config.trace->trace();
    farm.obs.metrics = &config.trace->metrics();
    farm.obs.deterministic_timing =
        config.trace->trace().deterministic_timing();
    farm.obs.flow = config.trace->flow();
  }
  return farm;
}

/// One farm task's output: its simulated (log) series plus the private
/// resilience ledger its retries were recorded into. Private ledgers are
/// merged into the cycle ledger in task-index order, so the merged event
/// stream is identical to the serial loop's regardless of completion
/// order.
struct FarmRun {
  std::vector<double> series;
  ResilienceLedger ledger;
};

}  // namespace

CyclePriorStage run_cycle_prior_stage(const CalibrationCycleConfig& config) {
  EPI_REQUIRE(config.prior_configs >= 8, "prior design too small to emulate");
  CyclePriorStage stage;
  const FaultInjector injector(config.faults);
  ResilienceLedger& ledger = stage.ledger;

  // --- Region and observed data -------------------------------------------
  SynthPopConfig pop_config;
  pop_config.region = config.region;
  pop_config.scale = config.scale;
  pop_config.seed = config.seed;
  stage.region = make_region(config.region_source, pop_config);
  const SyntheticRegion& region = *stage.region;

  // The surveillance feed covers the whole outbreak from Jan 21; the
  // simulation starts at the moment its seeded exposures correspond to the
  // reported counts. We therefore (a) scale the full-population counts
  // down to the simulated population and (b) slide the observation window
  // so its first day matches the simulation's seeding level — the paper's
  // "county-level seeding derived from county-level confirmed case counts"
  // alignment, adapted to scaled populations.
  GroundTruthConfig truth_config;
  truth_config.seed = config.seed;
  truth_config.days =
      config.takeoff_search_days + config.calibration_days + config.horizon_days;
  truth_config.beta = config.truth_beta;
  truth_config.distancing_effect = config.truth_distancing_effect;
  truth_config.reporting_rate = config.truth_reporting_rate;
  truth_config.distancing_end_day = 1 << 28;  // distancing persists
  const StateGroundTruth truth =
      generate_state_ground_truth(config.region, truth_config);
  std::vector<double> scaled_cumulative = truth.cumulative_state();
  for (double& x : scaled_cumulative) x *= config.scale;

  const double seeded_persons = 15.0;  // 3 counties x 5 exposures at tick 0
  std::size_t offset = 0;
  while (offset + config.calibration_days + config.horizon_days <
             scaled_cumulative.size() &&
         scaled_cumulative[offset] < seeded_persons) {
    ++offset;
  }
  EPI_REQUIRE(scaled_cumulative[offset] >= seeded_persons,
              "surveillance series never reaches the seeding level at scale "
                  << config.scale
                  << "; increase scale or the truth epidemic intensity");
  stage.observed_cumulative.assign(
      scaled_cumulative.begin() + static_cast<std::ptrdiff_t>(offset),
      scaled_cumulative.begin() +
          static_cast<std::ptrdiff_t>(offset + config.calibration_days));
  stage.truth_extension.assign(
      scaled_cumulative.begin() + static_cast<std::ptrdiff_t>(offset),
      scaled_cumulative.begin() +
          static_cast<std::ptrdiff_t>(offset + config.calibration_days +
                                      config.horizon_days));

  // --- Prior design and its simulations ------------------------------------
  Rng design_rng = Rng(config.seed).derive({0x505249ULL});  // "PRI"
  stage.prior_design = make_prior_design(calibration_parameter_ranges(),
                                         config.prior_configs, design_rng);
  Mat sim_outputs(config.prior_configs,
                  static_cast<std::size_t>(config.calibration_days));
  {
    // The farm: each design point is a pure function of (config, seed) —
    // the paper's embarrassingly parallel GPMSA design stage.
    const auto runs = exec::parallel_index_map(
        config.prior_configs,
        [&](std::size_t i) {
          const CellConfig cell = cell_from_calibration_point(
              config.region, static_cast<std::uint32_t>(i),
              stage.prior_design.points[i], 1, config.calibration_days,
              config.seed);
          FarmRun run;
          run.series = log_transform(with_sim_retries(
              injector, config.retry, i, run.ledger, [&] {
                return simulate_config(region, cell, config.calibration_days,
                                       0);
              }));
          return run;
        },
        farm_config(config, "prior"));
    for (std::size_t i = 0; i < runs.size(); ++i) {
      ledger.merge(runs[i].ledger);
      sim_outputs.set_row(i, runs[i].series);
    }
  }
  EPI_INFO("calibration cycle: simulated " << config.prior_configs
                                           << " prior configs for "
                                           << config.region);

  // --- Replicate-noise covariance ------------------------------------------
  // EpiHiper is stochastic; a design point's output is one draw from a
  // distribution over trajectories. The production system handles this
  // with quantile-based emulation [18]; here we estimate the replicate
  // covariance empirically at the design-center configuration and hand it
  // to the likelihood, so the posterior is not overconfident.
  Mat replicate_cov;
  {
    ParamPoint center(stage.prior_design.ranges.size());
    for (std::size_t d = 0; d < center.size(); ++d) {
      center[d] = (stage.prior_design.ranges[d].lo +
                   stage.prior_design.ranges[d].hi) /
                  2.0;
    }
    const std::size_t replicates = 6;
    // Per-curve replicate runs at the design center — independent draws
    // distinguished only by their replicate index, so they farm out like
    // the design points do.
    const std::vector<Vec> curves = exec::parallel_index_map(
        replicates,
        [&](std::size_t rep) {
          const CellConfig cell = cell_from_calibration_point(
              config.region, 5000, center,
              static_cast<std::uint32_t>(replicates), config.calibration_days,
              config.seed);
          return log_transform(simulate_config(
              region, cell, config.calibration_days,
              static_cast<std::uint32_t>(rep)));
        },
        farm_config(config, "replicate"));
    const auto t = static_cast<std::size_t>(config.calibration_days);
    Vec curve_mean(t, 0.0);
    for (const Vec& curve : curves) {
      for (std::size_t i = 0; i < t; ++i) curve_mean[i] += curve[i] / replicates;
    }
    replicate_cov = Mat(t, t);
    for (const Vec& curve : curves) {
      for (std::size_t i = 0; i < t; ++i) {
        for (std::size_t j = 0; j < t; ++j) {
          replicate_cov.at(i, j) += (curve[i] - curve_mean[i]) *
                                    (curve[j] - curve_mean[j]) /
                                    (replicates - 1);
        }
      }
    }
    // Shrink toward the diagonal: 6 replicates give a noisy rank-5
    // estimate; keep the marginal variances, damp the off-diagonals.
    for (std::size_t i = 0; i < t; ++i) {
      for (std::size_t j = 0; j < t; ++j) {
        if (i != j) replicate_cov.at(i, j) *= 0.7;
      }
    }
  }
  stage.sim_outputs = std::move(sim_outputs);
  stage.replicate_cov = std::move(replicate_cov);
  return stage;
}

CalibrationCycleResult finish_calibration_cycle(
    const CalibrationCycleConfig& config, const CyclePriorStage& stage) {
  EPI_REQUIRE(stage.region != nullptr,
              "finish_calibration_cycle needs a populated prior stage");
  CalibrationCycleResult result;
  const FaultInjector injector(config.faults);
  ResilienceLedger ledger;
  ledger.merge(stage.ledger);  // the stage's retries come first, as the
                               // fused serial loop would record them
  const SyntheticRegion& region = *stage.region;
  result.prior_design = stage.prior_design;
  result.observed_cumulative = stage.observed_cumulative;
  result.truth_extension = stage.truth_extension;

  // --- Emulator-based Bayesian calibration ---------------------------------
  // The stage is shared read-only between concurrent tails, so the
  // calibrator gets copies of its matrices. The emulator fit and the start
  // pre-scan run on the cycle's farm (the calibrator labels their tasks);
  // the Metropolis chain stays serial.
  const Vec observed_log = log_transform(result.observed_cumulative);
  AgentCalibrator calibrator(result.prior_design, Mat(stage.sim_outputs),
                             observed_log, config.seed,
                             Mat(stage.replicate_cov),
                             farm_config(config, "calibration"));
  result.calibration =
      calibrator.calibrate(config.posterior_configs, config.mcmc);
  result.posterior_configs = result.calibration.posterior_configs;

  // --- Prediction: simulate posterior configs over the full horizon --------
  const Tick total_days = config.calibration_days + config.horizon_days;
  std::vector<std::vector<double>> forecast_curves;
  const std::size_t runs =
      std::min(config.prediction_runs, result.posterior_configs.size());
  forecast_curves.reserve(runs);
  {
    auto ensemble = exec::parallel_index_map(
        runs,
        [&](std::size_t i) {
          const CellConfig cell = cell_from_calibration_point(
              config.region, static_cast<std::uint32_t>(1000 + i),
              result.posterior_configs[i], 1, total_days, config.seed);
          FarmRun run;
          run.series = with_sim_retries(
              injector, config.retry, 1000 + i, run.ledger,
              [&] { return simulate_config(region, cell, total_days, 0); });
          return run;
        },
        farm_config(config, "forecast"));
    for (std::size_t i = 0; i < ensemble.size(); ++i) {
      ledger.merge(ensemble[i].ledger);
      forecast_curves.push_back(std::move(ensemble[i].series));
    }
  }
  if (!forecast_curves.empty()) {
    result.forecast = ensemble_band(forecast_curves, 0.95);
    result.forecast_coverage =
        band_coverage(result.forecast, result.truth_extension);
    EPI_INFO("calibration cycle: forecast coverage "
             << result.forecast_coverage);
  }
  result.resilience = ledger.summary();
  return result;
}

CalibrationCycleResult run_calibration_cycle(
    const CalibrationCycleConfig& config) {
  return finish_calibration_cycle(config, run_cycle_prior_stage(config));
}

namespace {

using report_text::put;
using report_text::put_count;
using report_text::put_line;
using report_text::put_vec;

void put_points(std::string& out, const char* key,
                const std::vector<ParamPoint>& points) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    out += key;
    out += '[';
    out += std::to_string(i);
    out += "]=";
    for (double v : points[i]) {
      put(out, v);
      out += ' ';
    }
    out += '\n';
  }
}

}  // namespace

std::string serialize(const CalibrationCycleResult& result) {
  std::string out;
  out.reserve(1 << 16);
  for (std::size_t d = 0; d < result.prior_design.ranges.size(); ++d) {
    const ParamRange& range = result.prior_design.ranges[d];
    out += "range[" + std::to_string(d) + "]=" + range.name + ' ';
    put(out, range.lo);
    out += ' ';
    put(out, range.hi);
    out += '\n';
  }
  put_points(out, "prior_point", result.prior_design.points);
  put_points(out, "posterior_config", result.posterior_configs);
  put_points(out, "chain_sample", result.calibration.chain.samples);
  put_line(out, "chain.acceptance_rate",
           result.calibration.chain.acceptance_rate);
  put_line(out, "chain.burn_in_acceptance_rate",
           result.calibration.chain.burn_in_acceptance_rate);
  put_vec(out, "chain.final_step", result.calibration.chain.final_step);
  put_line(out, "chain.best_log_density",
           result.calibration.chain.best_log_density);
  put_vec(out, "chain.best_point", result.calibration.chain.best_point);
  put_vec(out, "band_mean", result.calibration.band_mean);
  put_vec(out, "band_lo", result.calibration.band_lo);
  put_vec(out, "band_hi", result.calibration.band_hi);
  put_line(out, "coverage95", result.calibration.coverage95);
  put_line(out, "acceptance_rate", result.calibration.acceptance_rate);
  put_line(out, "emulator_variance_captured",
           result.calibration.emulator_variance_captured);
  put_vec(out, "observed_cumulative", result.observed_cumulative);
  put_vec(out, "truth_extension", result.truth_extension);
  put_vec(out, "forecast.median", result.forecast.median);
  put_vec(out, "forecast.lo", result.forecast.lo);
  put_vec(out, "forecast.hi", result.forecast.hi);
  put_vec(out, "forecast.mean", result.forecast.mean);
  put_line(out, "forecast_coverage", result.forecast_coverage);
  const ResilienceSummary& res = result.resilience;
  put_count(out, "resilience.node_crashes", res.node_crashes);
  put_count(out, "resilience.jobs_killed", res.jobs_killed);
  put_count(out, "resilience.jobs_requeued", res.jobs_requeued);
  put_count(out, "resilience.wan_failures", res.wan_failures);
  put_count(out, "resilience.wan_degraded", res.wan_degraded);
  put_count(out, "resilience.wan_retries", res.wan_retries);
  put_count(out, "resilience.db_drops", res.db_drops);
  put_count(out, "resilience.db_reconnects", res.db_reconnects);
  put_count(out, "resilience.sim_retries", res.sim_retries);
  put_line(out, "resilience.wasted_node_hours", res.wasted_node_hours);
  put_line(out, "resilience.checkpoint_overhead_node_hours",
           res.checkpoint_overhead_node_hours);
  put_line(out, "resilience.retry_wait_hours", res.retry_wait_hours);
  return out;
}

}  // namespace epi
