#include "calibration/calibrate.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "util/error.hpp"
#include "util/log.hpp"

namespace epi {

CalibrationDesign make_prior_design(std::vector<ParamRange> ranges,
                                    std::size_t n, Rng& rng) {
  CalibrationDesign design;
  design.points = latin_hypercube(n, ranges, rng);
  design.ranges = std::move(ranges);
  return design;
}

namespace {

Mat design_to_unit_matrix(const CalibrationDesign& design) {
  EPI_REQUIRE(!design.points.empty(), "empty calibration design");
  Mat unit(design.points.size(), design.ranges.size());
  for (std::size_t i = 0; i < design.points.size(); ++i) {
    unit.set_row(i, scale_to_unit(design.points[i], design.ranges));
  }
  return unit;
}

}  // namespace

AgentCalibrator::AgentCalibrator(CalibrationDesign design, Mat sim_outputs,
                                 Vec observed, std::uint64_t seed,
                                 Mat replicate_covariance,
                                 exec::ExecConfig farm)
    : design_(std::move(design)),
      rng_(Rng(seed).derive({0x43414cULL})),  // "CAL"
      emulator_(design_to_unit_matrix(design_), std::move(sim_outputs),
                /*num_basis=*/5, rng_, farm),
      model_(emulator_, std::move(observed), std::move(replicate_covariance)),
      farm_(std::move(farm)) {}

AgentCalibrationResult AgentCalibrator::calibrate(
    std::size_t num_posterior_configs, const McmcConfig& mcmc) {
  const std::size_t dims = design_.ranges.size();
  // Chain state: [theta_unit(0..d), log lambda_delta, log lambda_eps].
  auto density = [this, dims](const std::vector<double>& x,
                              GpmsaCalibrationModel::Workspace& ws) {
    // + log-Jacobian of the log transform so the gamma priors apply on the
    // precision scale.
    return model_.log_posterior(std::span(x.data(), dims), std::exp(x[dims]),
                                std::exp(x[dims + 1]), ws) +
           x[dims] + x[dims + 1];
  };

  // The emulated posterior surface can be multi-modal; a random-walk chain
  // started blind can trap in a shallow mode. Pre-scan a Latin hypercube
  // of candidate starts (plus the prior-design points) and launch the
  // chain from the best one.
  std::vector<double> initial(dims + 2, 0.5);
  initial[dims] = std::log(10.0);    // lambda_delta
  initial[dims + 1] = std::log(50.0);  // lambda_eps
  {
    Rng scan_rng = rng_.derive({0x5343414eULL});  // "SCAN"
    std::vector<ParamRange> unit_ranges(dims, ParamRange{"u", 0.0, 1.0});
    auto candidates = latin_hypercube(300, unit_ranges, scan_rng);
    for (const auto& point : design_.points) {
      candidates.push_back(scale_to_unit(point, design_.ranges));
    }
    std::vector<std::vector<double>> starts = {initial};
    for (const auto& candidate : candidates) {
      std::vector<double>& x = starts.emplace_back(candidate.begin(),
                                                   candidate.end());
      x.push_back(initial[dims]);
      x.push_back(initial[dims + 1]);
    }
    // Starts are scored on the farm in fixed blocks (one workspace per
    // block); the strict-> scan over the scores then runs in start order,
    // exactly as the serial loop did.
    exec::ExecConfig scan_farm = farm_;
    scan_farm.label = "start_prescan";
    const Vec scores = exec::parallel_block_map(
        starts.size(), /*block=*/16,
        [&](std::size_t begin, std::size_t end) {
          GpmsaCalibrationModel::Workspace ws;
          Vec block;
          for (std::size_t i = begin; i < end; ++i) {
            block.push_back(density(starts[i], ws));
          }
          return block;
        },
        scan_farm);
    std::size_t best_index = 0;
    for (std::size_t i = 1; i < scores.size(); ++i) {
      if (scores[i] > scores[best_index]) best_index = i;
    }
    initial = std::move(starts[best_index]);
  }
  Rng mcmc_rng = rng_.derive({0x4d434dULL});  // "MCM"
  GpmsaCalibrationModel::Workspace chain_ws;
  McmcResult chain = metropolis(
      [&](const std::vector<double>& x) { return density(x, chain_ws); },
      initial, mcmc, mcmc_rng);

  AgentCalibrationResult result;
  result.acceptance_rate = chain.acceptance_rate;
  result.emulator_variance_captured = emulator_.variance_captured();

  // Resample posterior configurations (evenly spaced draws through the
  // chain, mapped back to original units).
  EPI_REQUIRE(!chain.samples.empty(), "MCMC produced no samples");
  result.posterior_configs.reserve(num_posterior_configs);
  for (std::size_t i = 0; i < num_posterior_configs; ++i) {
    const std::size_t index =
        (i * chain.samples.size()) / num_posterior_configs;
    const auto& sample = chain.samples[index];
    Vec theta_unit(sample.begin(),
                   sample.begin() + static_cast<std::ptrdiff_t>(dims));
    for (double& x : theta_unit) x = std::clamp(x, 0.0, 1.0);
    result.posterior_configs.push_back(
        scale_to_ranges(theta_unit, design_.ranges));
  }

  // Fig 16 band: the posterior-predictive mixture over the chain (not the
  // MAP band, which understates uncertainty). Mixture mean/variance from
  // evenly spaced posterior draws.
  const std::size_t band_draws = std::min<std::size_t>(24, chain.samples.size());
  const std::size_t series_length = model_.observed().size();
  Vec mixture_mean(series_length, 0.0);
  Vec mixture_second(series_length, 0.0);
  for (std::size_t k = 0; k < band_draws; ++k) {
    const auto& sample =
        chain.samples[(k * chain.samples.size()) / band_draws];
    Vec theta(sample.begin(), sample.begin() + static_cast<std::ptrdiff_t>(dims));
    for (double& x : theta) x = std::clamp(x, 0.0, 1.0);
    const auto band = model_.predictive_band(theta, std::exp(sample[dims]),
                                             std::exp(sample[dims + 1]));
    for (std::size_t i = 0; i < series_length; ++i) {
      mixture_mean[i] += band.mean[i] / static_cast<double>(band_draws);
      mixture_second[i] += (band.sd[i] * band.sd[i] +
                            band.mean[i] * band.mean[i]) /
                           static_cast<double>(band_draws);
    }
  }
  result.band_mean = mixture_mean;
  result.band_lo.resize(series_length);
  result.band_hi.resize(series_length);
  std::size_t inside = 0;
  const Vec& observed = model_.observed();
  for (std::size_t i = 0; i < series_length; ++i) {
    const double variance = std::max(
        1e-12, mixture_second[i] - mixture_mean[i] * mixture_mean[i]);
    const double sd = std::sqrt(variance);
    result.band_lo[i] = mixture_mean[i] - 1.96 * sd;
    result.band_hi[i] = mixture_mean[i] + 1.96 * sd;
    if (observed[i] >= result.band_lo[i] && observed[i] <= result.band_hi[i]) {
      ++inside;
    }
  }
  result.coverage95 =
      static_cast<double>(inside) / static_cast<double>(series_length);
  result.chain = std::move(chain);
  EPI_INFO("agent calibration: acceptance "
           << result.acceptance_rate << ", 95% band coverage "
           << result.coverage95);
  return result;
}

MetapopCalibrator::MetapopCalibrator(
    const MetapopModel& model, std::vector<std::vector<double>> observed_daily,
    std::vector<MetapopSeed> seeds, MetapopParams base_params)
    : model_(model),
      observed_(std::move(observed_daily)),
      seeds_(std::move(seeds)),
      base_params_(base_params) {
  EPI_REQUIRE(observed_.size() == model_.county_count(),
              "observed data must cover every county");
  EPI_REQUIRE(!observed_.empty() && !observed_[0].empty(),
              "observed data is empty");
  days_ = static_cast<int>(observed_[0].size());
  for (const auto& county : observed_) {
    EPI_REQUIRE(static_cast<int>(county.size()) == days_,
                "county series lengths differ");
  }
}

double MetapopCalibrator::log_likelihood(double beta,
                                         double infectious_days) const {
  if (beta <= 0.0 || infectious_days <= 0.5) return -1e300;
  MetapopParams params = base_params_;
  params.beta = beta;
  params.infectious_days = infectious_days;
  const MetapopOutput out = model_.run_deterministic(params, days_, seeds_);
  // Eq (6): independent counties, diagonal Gaussian noise with sd = 20% of
  // the daily case count (floored so zero-count days stay finite).
  double log_lik = 0.0;
  for (std::size_t c = 0; c < observed_.size(); ++c) {
    for (int d = 0; d < days_; ++d) {
      const double y = observed_[c][static_cast<std::size_t>(d)];
      const double eta = out.new_confirmed[c][static_cast<std::size_t>(d)];
      const double sd = std::max(1.0, 0.2 * y);
      const double z = (y - eta) / sd;
      log_lik += -0.5 * z * z - std::log(sd);
    }
  }
  return log_lik;
}

MetapopCalibrator::Result MetapopCalibrator::calibrate(
    const ParamRange& beta_range, const ParamRange& infectious_range,
    const McmcConfig& mcmc, Rng& rng) const {
  auto log_density = [&](const std::vector<double>& x) {
    // Uniform priors on the stated ranges.
    if (x[0] < beta_range.lo || x[0] > beta_range.hi ||
        x[1] < infectious_range.lo || x[1] > infectious_range.hi) {
      return -1e300;
    }
    return log_likelihood(x[0], x[1]);
  };
  std::vector<double> initial = {(beta_range.lo + beta_range.hi) / 2.0,
                                 (infectious_range.lo + infectious_range.hi) /
                                     2.0};
  McmcConfig config = mcmc;
  config.initial_step = 0.05 * (beta_range.hi - beta_range.lo);
  Result result;
  result.chain = metropolis(log_density, initial, config, rng);
  result.map_params = base_params_;
  result.map_params.beta = result.chain.best_point[0];
  result.map_params.infectious_days = result.chain.best_point[1];
  return result;
}

}  // namespace epi
