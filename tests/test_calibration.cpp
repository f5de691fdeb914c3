#include <gtest/gtest.h>

#include <cmath>

#include "calibration/calibrate.hpp"
#include "calibration/mcmc.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace epi {
namespace {

// ---------------------------------------------------------------- MCMC ----

TEST(Mcmc, SamplesStandardNormal) {
  Rng rng(71);
  auto log_density = [](const std::vector<double>& x) {
    return -0.5 * x[0] * x[0];
  };
  McmcConfig config;
  config.samples = 8000;
  config.burn_in = 2000;
  const McmcResult result = metropolis(log_density, {0.0}, config, rng);
  ASSERT_EQ(result.samples.size(), 8000u);
  std::vector<double> xs;
  for (const auto& s : result.samples) xs.push_back(s[0]);
  EXPECT_NEAR(mean(xs), 0.0, 0.1);
  EXPECT_NEAR(stddev(xs), 1.0, 0.12);
}

TEST(Mcmc, AcceptanceRateIsPostBurnIn) {
  // On a known density the equilibrium acceptance rate is a mixing
  // diagnostic; the burn-in phase (step still adapting) is reported
  // separately so it cannot bias the headline figure.
  Rng rng(73);
  auto log_density = [](const std::vector<double>& x) {
    return -0.5 * x[0] * x[0];
  };
  McmcConfig config;
  config.samples = 6000;
  config.burn_in = 2000;
  const McmcResult result = metropolis(log_density, {0.0}, config, rng);
  EXPECT_GT(result.acceptance_rate, 0.05);
  EXPECT_LT(result.acceptance_rate, 0.95);
  EXPECT_GT(result.burn_in_acceptance_rate, 0.0);
  EXPECT_LT(result.burn_in_acceptance_rate, 1.0);

  // Start deep in the tail with a large fixed step: the short burn-in is
  // a downhill march (about half of all proposals improve the density),
  // while the equilibrium chain rejects most big jumps. The two reported
  // rates must reflect those disjoint phases.
  McmcConfig tail;
  tail.samples = 2000;
  tail.burn_in = 20;
  tail.initial_step = 20.0;
  tail.adapt_during_burn_in = false;
  Rng rng2(74);
  const McmcResult march = metropolis(log_density, {100.0}, tail, rng2);
  EXPECT_GT(march.burn_in_acceptance_rate, 0.15);
  EXPECT_LT(march.acceptance_rate, 0.2);
  EXPECT_GT(march.burn_in_acceptance_rate, march.acceptance_rate);

  // With a deliberately tiny fixed step nearly every proposal is
  // accepted — and the post-burn-in figure must reflect that even if the
  // burn-in behaved differently.
  McmcConfig tiny;
  tiny.samples = 2000;
  tiny.burn_in = 500;
  tiny.initial_step = 1e-4;
  tiny.adapt_during_burn_in = false;
  Rng rng3(75);
  const McmcResult sticky = metropolis(log_density, {0.0}, tiny, rng3);
  EXPECT_GT(sticky.acceptance_rate, 0.9);
}

TEST(Mcmc, ZeroBurnInHasNoBurnInAcceptance) {
  Rng rng(75);
  auto log_density = [](const std::vector<double>& x) {
    return -0.5 * x[0] * x[0];
  };
  McmcConfig config;
  config.samples = 1000;
  config.burn_in = 0;
  config.adapt_during_burn_in = false;
  const McmcResult result = metropolis(log_density, {0.0}, config, rng);
  EXPECT_EQ(result.burn_in_acceptance_rate, 0.0);
  EXPECT_GT(result.acceptance_rate, 0.0);
}

TEST(Mcmc, RespectsSupportBoundaries) {
  Rng rng(72);
  auto log_density = [](const std::vector<double>& x) {
    if (x[0] < 0.0 || x[0] > 1.0) return -1e300;
    return 0.0;  // uniform on [0,1]
  };
  McmcConfig config;
  config.samples = 4000;
  config.burn_in = 500;
  const McmcResult result = metropolis(log_density, {0.5}, config, rng);
  for (const auto& s : result.samples) {
    EXPECT_GE(s[0], 0.0);
    EXPECT_LE(s[0], 1.0);
  }
  std::vector<double> xs;
  for (const auto& s : result.samples) xs.push_back(s[0]);
  EXPECT_NEAR(mean(xs), 0.5, 0.06);
}

TEST(Mcmc, TracksBestPoint) {
  Rng rng(73);
  auto log_density = [](const std::vector<double>& x) {
    const double dx = x[0] - 3.0;
    return -dx * dx;
  };
  McmcConfig config;
  config.samples = 3000;
  config.burn_in = 1000;
  const McmcResult result = metropolis(log_density, {0.0}, config, rng);
  EXPECT_NEAR(result.best_point[0], 3.0, 0.1);
  EXPECT_GT(result.acceptance_rate, 0.05);
  EXPECT_LT(result.acceptance_rate, 0.95);
}

TEST(Mcmc, AdaptationTunesStep) {
  Rng rng(74);
  auto log_density = [](const std::vector<double>& x) {
    return -0.5 * x[0] * x[0] / (0.01 * 0.01);  // very narrow target
  };
  McmcConfig config;
  config.samples = 500;
  config.burn_in = 3000;
  config.initial_step = 1.0;  // far too large for sd = 0.01
  const McmcResult result = metropolis(log_density, {0.0}, config, rng);
  EXPECT_LT(result.final_step[0], 0.5);  // adapted downward
}

TEST(Mcmc, ThinningReducesSampleCount) {
  Rng rng(75);
  auto log_density = [](const std::vector<double>& x) {
    return -0.5 * x[0] * x[0];
  };
  McmcConfig config;
  config.samples = 100;
  config.burn_in = 100;
  config.thin = 5;
  const McmcResult result = metropolis(log_density, {0.0}, config, rng);
  EXPECT_EQ(result.samples.size(), 100u);
}

TEST(Mcmc, RejectsInvalidStart) {
  Rng rng(76);
  auto log_density = [](const std::vector<double>&) { return -1e300; };
  EXPECT_THROW(metropolis(log_density, {0.0}, McmcConfig{}, rng), Error);
}

// ---------------------------------------------------- metapop calibration -

class MetapopCalibration : public ::testing::Test {
 protected:
  static constexpr double kTrueBeta = 0.4;
  static constexpr double kTrueInfectiousDays = 5.0;

  MetapopCalibration()
      : model_(MetapopModel::with_gravity_coupling({200000, 80000, 40000})) {
    MetapopParams truth;
    truth.beta = kTrueBeta;
    truth.infectious_days = kTrueInfectiousDays;
    seeds_ = {MetapopSeed{0, 20.0}};
    const MetapopOutput out = model_.run_deterministic(truth, 70, seeds_);
    observed_ = out.new_confirmed;
  }

  MetapopModel model_;
  std::vector<MetapopSeed> seeds_;
  std::vector<std::vector<double>> observed_;
};

TEST_F(MetapopCalibration, LikelihoodPeaksNearTruth) {
  const MetapopCalibrator calibrator(model_, observed_, seeds_,
                                     MetapopParams{});
  const double at_truth =
      calibrator.log_likelihood(kTrueBeta, kTrueInfectiousDays);
  EXPECT_GT(at_truth, calibrator.log_likelihood(0.25, kTrueInfectiousDays));
  EXPECT_GT(at_truth, calibrator.log_likelihood(0.6, kTrueInfectiousDays));
  EXPECT_GT(at_truth, calibrator.log_likelihood(kTrueBeta, 3.0));
  EXPECT_GT(at_truth, calibrator.log_likelihood(kTrueBeta, 9.0));
}

TEST_F(MetapopCalibration, McmcRecoversParameters) {
  const MetapopCalibrator calibrator(model_, observed_, seeds_,
                                     MetapopParams{});
  Rng rng(77);
  McmcConfig config;
  config.samples = 400;
  config.burn_in = 400;
  const auto result = calibrator.calibrate(ParamRange{"beta", 0.2, 0.7},
                                           ParamRange{"inf", 3.0, 9.0},
                                           config, rng);
  EXPECT_NEAR(result.map_params.beta, kTrueBeta, 0.05);
  EXPECT_NEAR(result.map_params.infectious_days, kTrueInfectiousDays, 0.8);
}

TEST_F(MetapopCalibration, RejectsMalformedObservations) {
  auto bad = observed_;
  bad.pop_back();  // one county missing
  EXPECT_THROW(MetapopCalibrator(model_, bad, seeds_, MetapopParams{}), Error);
}

// -------------------------------------------------------- agent (GPMSA) ---

// Synthetic stand-in for the EpiHiper prior-design outputs: a logistic
// epidemic whose growth rate is driven by theta[0] and plateau by theta[1].
Vec synthetic_epi_curve(const ParamPoint& theta, std::size_t days) {
  Vec out(days);
  for (std::size_t t = 0; t < days; ++t) {
    const double x = (1000.0 + 9000.0 * theta[1]) /
                     (1.0 + std::exp(-(0.05 + 0.25 * theta[0]) *
                                     (static_cast<double>(t) - 40.0)));
    out[t] = std::log(1.0 + x);
  }
  return out;
}

TEST(AgentCalibrator, PosteriorConcentratesNearTruth) {
  Rng rng(78);
  std::vector<ParamRange> ranges = {{"rate", 0.0, 1.0}, {"plateau", 0.0, 1.0}};
  CalibrationDesign design = make_prior_design(ranges, 60, rng);
  Mat outputs(design.points.size(), 80);
  for (std::size_t i = 0; i < design.points.size(); ++i) {
    outputs.set_row(i, synthetic_epi_curve(design.points[i], 80));
  }
  const ParamPoint truth = {0.55, 0.45};
  Vec observed = synthetic_epi_curve(truth, 80);
  for (double& x : observed) x += rng.normal(0.0, 0.02);

  AgentCalibrator calibrator(design, outputs, observed, 123);
  McmcConfig mcmc;
  mcmc.samples = 1500;
  mcmc.burn_in = 1500;
  const AgentCalibrationResult result = calibrator.calibrate(100, mcmc);

  ASSERT_EQ(result.posterior_configs.size(), 100u);
  std::vector<double> rates, plateaus;
  for (const auto& config : result.posterior_configs) {
    rates.push_back(config[0]);
    plateaus.push_back(config[1]);
  }
  // Posterior tightened around the truth relative to the uniform prior
  // (prior sd of U[0,1] is 0.29).
  EXPECT_NEAR(mean(rates), truth[0], 0.15);
  EXPECT_NEAR(mean(plateaus), truth[1], 0.15);
  EXPECT_LT(stddev(plateaus), 0.2);
  // Fig 16 criterion: observed data inside the 95% band.
  EXPECT_GT(result.coverage95, 0.85);
  EXPECT_GT(result.emulator_variance_captured, 0.9);
}

exec::ExecConfig with_jobs(std::size_t jobs) {
  exec::ExecConfig config;
  config.jobs = jobs;
  return config;
}

TEST(AgentCalibrator, FarmedTailIsIdenticalAtAnyJobCount) {
  // The emulator fit and the start pre-scan run on the farm; the chain
  // and every result field must not depend on the job count. Under the
  // TSan lane this also exercises concurrent log_posterior and GP
  // predict calls on one shared model.
  Rng rng(80);
  std::vector<ParamRange> ranges = {{"rate", 0.0, 1.0}, {"plateau", 0.0, 1.0}};
  CalibrationDesign design = make_prior_design(ranges, 40, rng);
  Mat outputs(design.points.size(), 60);
  for (std::size_t i = 0; i < design.points.size(); ++i) {
    outputs.set_row(i, synthetic_epi_curve(design.points[i], 60));
  }
  Vec observed = synthetic_epi_curve({0.4, 0.6}, 60);
  for (double& x : observed) x += rng.normal(0.0, 0.02);
  McmcConfig mcmc;
  mcmc.samples = 300;
  mcmc.burn_in = 300;
  auto run = [&](std::size_t jobs) {
    AgentCalibrator calibrator(design, outputs, observed, 321, Mat{},
                               with_jobs(jobs));
    return calibrator.calibrate(50, mcmc);
  };
  const AgentCalibrationResult serial = run(1);
  const AgentCalibrationResult farmed = run(3);
  EXPECT_EQ(farmed.chain.samples, serial.chain.samples);
  EXPECT_EQ(farmed.chain.best_point, serial.chain.best_point);
  EXPECT_EQ(farmed.chain.best_log_density, serial.chain.best_log_density);
  EXPECT_EQ(farmed.posterior_configs, serial.posterior_configs);
  EXPECT_EQ(farmed.band_mean, serial.band_mean);
  EXPECT_EQ(farmed.band_lo, serial.band_lo);
  EXPECT_EQ(farmed.band_hi, serial.band_hi);
  EXPECT_EQ(farmed.coverage95, serial.coverage95);
  EXPECT_EQ(farmed.acceptance_rate, serial.acceptance_rate);
}

TEST(AgentCalibrator, PriorDesignHasRequestedShape) {
  Rng rng(79);
  const CalibrationDesign design =
      make_prior_design({{"a", 0.0, 2.0}, {"b", -1.0, 1.0}}, 50, rng);
  EXPECT_EQ(design.points.size(), 50u);
  EXPECT_EQ(design.ranges.size(), 2u);
  for (const auto& p : design.points) {
    EXPECT_GE(p[0], 0.0);
    EXPECT_LT(p[0], 2.0);
    EXPECT_GE(p[1], -1.0);
    EXPECT_LT(p[1], 1.0);
  }
}

}  // namespace
}  // namespace epi
