#include "calibration/mcmc.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace epi {

McmcResult metropolis(
    const std::function<double(const std::vector<double>&)>& log_density,
    std::vector<double> initial, const McmcConfig& config, Rng& rng) {
  EPI_REQUIRE(!initial.empty(), "MCMC needs at least one dimension");
  EPI_REQUIRE(config.samples > 0, "MCMC needs at least one sample");
  EPI_REQUIRE(config.thin > 0, "thin must be >= 1");

  const std::size_t dims = initial.size();
  std::vector<double> step(dims, config.initial_step);
  std::vector<double> current = std::move(initial);
  double current_density = log_density(current);
  EPI_REQUIRE(current_density > -1e299,
              "MCMC initial point has zero posterior density");

  McmcResult result;
  result.best_log_density = current_density;
  result.best_point = current;
  result.samples.reserve(config.samples);

  const std::size_t total_iterations =
      config.burn_in + config.samples * config.thin;
  std::size_t accepted_burn_in = 0;
  std::size_t accepted_post = 0;
  std::size_t window_accepted = 0;
  std::size_t window_size = 0;
  // Running per-dimension moments of the burn-in chain, for AM-style
  // proposal scaling (dimensions can have very different posterior
  // scales — e.g. unit-cube parameters vs log-precisions).
  std::vector<double> moment1(dims, 0.0), moment2(dims, 0.0);
  std::size_t moment_count = 0;
  // Buffers reused across iterations: an accepted proposal is swapped
  // into `current`, and the next proposal overwrites every entry.
  std::vector<double> proposal(dims);
  std::vector<double> empirical_sd(dims);
  for (std::size_t it = 0; it < total_iterations; ++it) {
    for (std::size_t d = 0; d < dims; ++d) {
      proposal[d] = current[d] + rng.normal(0.0, step[d]);
    }
    const double proposal_density = log_density(proposal);
    const double log_ratio = proposal_density - current_density;
    if (log_ratio >= 0.0 || rng.uniform() < std::exp(log_ratio)) {
      current.swap(proposal);
      current_density = proposal_density;
      ++(it < config.burn_in ? accepted_burn_in : accepted_post);
      ++window_accepted;
      if (current_density > result.best_log_density) {
        result.best_log_density = current_density;
        result.best_point = current;
      }
    }
    ++window_size;
    if (it < config.burn_in) {
      for (std::size_t d = 0; d < dims; ++d) {
        moment1[d] += current[d];
        moment2[d] += current[d] * current[d];
      }
      ++moment_count;
    }

    // Adaptation during burn-in, every 100 iterations: (a) shape the
    // per-dimension proposal sds from the chain's empirical sds (AM-style,
    // handles heterogeneous scales), then (b) nudge the overall scale
    // toward ~30% acceptance.
    if (config.adapt_during_burn_in && it < config.burn_in &&
        window_size == 100) {
      const double rate =
          static_cast<double>(window_accepted) / static_cast<double>(window_size);
      const double factor = rate > 0.3 ? 1.15 : 0.85;
      if (moment_count >= 200) {
        const double scale =
            2.4 / std::sqrt(static_cast<double>(dims));
        double geometric_mean = 1.0;
        for (std::size_t d = 0; d < dims; ++d) {
          const double m = moment1[d] / static_cast<double>(moment_count);
          const double var =
              std::max(1e-10, moment2[d] / static_cast<double>(moment_count) -
                                  m * m);
          empirical_sd[d] = std::sqrt(var);
          geometric_mean *= std::pow(empirical_sd[d], 1.0 / double(dims));
        }
        // Preserve the current overall magnitude (tuned by the acceptance
        // loop) but redistribute it across dimensions by empirical shape.
        double current_magnitude = 1.0;
        for (double s : step) {
          current_magnitude *= std::pow(s, 1.0 / double(dims));
        }
        for (std::size_t d = 0; d < dims; ++d) {
          const double shaped = empirical_sd[d] / geometric_mean;
          step[d] = std::clamp(current_magnitude * shaped * scale /
                                   (2.4 / std::sqrt(double(dims))),
                               1e-5, 2.0);
        }
      }
      for (double& s : step) s = std::clamp(s * factor, 1e-5, 2.0);
      window_accepted = 0;
      window_size = 0;
    }

    if (it >= config.burn_in &&
        (it - config.burn_in + 1) % config.thin == 0) {
      result.samples.push_back(current);
    }
  }
  // Report the post-burn-in rate as the headline diagnostic: during
  // burn-in the step size is still adapting, so its acceptances describe
  // the tuner, not the equilibrium chain. samples > 0 guarantees the
  // post-burn-in denominator is nonzero.
  result.acceptance_rate =
      static_cast<double>(accepted_post) /
      static_cast<double>(total_iterations - config.burn_in);
  result.burn_in_acceptance_rate =
      config.burn_in > 0 ? static_cast<double>(accepted_burn_in) /
                               static_cast<double>(config.burn_in)
                         : 0.0;
  result.final_step = step;
  return result;
}

}  // namespace epi
