// Case study 3 (paper Appendix F): calibrate the agent-based model for one
// state against county-level surveillance, then forecast the next eight
// weeks with uncertainty — the full Fig 4 -> Fig 5 cycle in one program.
//
//   $ ./calibrate_and_forecast [state=VA] [scale_denominator=2000]
//                              [prior_configs=60] [prediction_runs=20]
//
// The simulation farm, the emulator fit and the start pre-scan honor
// EPI_JOBS (worker threads; parallel output is byte-identical to serial),
// and EPI_CYCLE_REPORT=<path> writes the full serialized
// CalibrationCycleResult for byte-level comparison across runs. Set
// EPI_TRACE=<dir> to also write trace.json and metrics.json there (every
// farm stage as labelled "exec" task spans); EPI_DETERMINISTIC_TIMING=1
// zeroes wall-clock fields so two traced runs are byte-identical. Trace
// paths go to stderr, so stdout and the cycle report match an untraced
// run byte for byte.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "obs/obs.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "workflow/calibration_cycle.hpp"

int main(int argc, char** argv) {
  using namespace epi;

  CalibrationCycleConfig config;
  config.region = argc > 1 ? argv[1] : "VA";
  config.scale = 1.0 / (argc > 2 ? std::atof(argv[2]) : 2000.0);
  config.seed = 20200411;  // data through April 11, 2020
  config.prior_configs =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 60;
  config.posterior_configs = 100;
  config.calibration_days = 80;
  config.horizon_days = 56;
  config.prediction_runs =
      argc > 4 ? static_cast<std::size_t>(std::atoi(argv[4])) : 20;
  config.mcmc.samples = 2000;
  config.mcmc.burn_in = 1500;
  const std::unique_ptr<obs::Session> session =
      obs::Session::from_env(env_flag("EPI_DETERMINISTIC_TIMING"));
  config.trace = session.get();

  std::printf("calibration-prediction cycle for %s\n", config.region.c_str());
  std::printf("  prior design: %zu LHS configurations over (TAU, SYMP, SH, VHI)\n",
              config.prior_configs);
  std::printf("  observed: %d days of county-level confirmed cases\n\n",
              config.calibration_days);

  const CalibrationCycleResult result = run_calibration_cycle(config);

  std::printf("calibration (GPMSA emulator + MCMC):\n");
  std::printf("  MCMC acceptance rate        %.2f\n",
              result.calibration.acceptance_rate);
  std::printf("  emulator variance captured  %.1f%% (p_eta = 5 bases)\n",
              result.calibration.emulator_variance_captured * 100.0);
  std::printf("  95%% band covers observed    %.1f%% of days\n\n",
              result.calibration.coverage95 * 100.0);

  std::printf("posterior parameter estimates (100 resampled configs):\n");
  const auto& ranges = result.prior_design.ranges;
  for (std::size_t d = 0; d < ranges.size(); ++d) {
    std::vector<double> values;
    for (const auto& point : result.posterior_configs) {
      values.push_back(point[d]);
    }
    std::printf("  %-16s %.3f +- %.3f   (prior: U[%.2f, %.2f])\n",
                ranges[d].name.c_str(), mean(values), stddev(values),
                ranges[d].lo, ranges[d].hi);
  }

  std::printf("\n8-week forecast of cumulative confirmed cases "
              "(median [95%% band], weekly):\n");
  for (std::size_t t = 0; t < result.forecast.median.size(); t += 7) {
    const char* phase =
        t < static_cast<std::size_t>(config.calibration_days) ? "observed"
                                                              : "FORECAST";
    std::printf("  day %3zu: %7.0f [%6.0f, %7.0f]   reported %7.0f  %s\n", t,
                result.forecast.median[t], result.forecast.lo[t],
                result.forecast.hi[t], result.truth_extension[t], phase);
  }
  std::printf("\nforecast band covered %.0f%% of later reported days\n",
              result.forecast_coverage * 100.0);

  if (const char* report_path = std::getenv("EPI_CYCLE_REPORT");
      report_path != nullptr && report_path[0] != '\0') {
    std::ofstream out(report_path);
    out << serialize(result);
    std::printf("wrote full result to %s\n", report_path);
  }
  if (session != nullptr) {
    session->write();
    std::fprintf(stderr, "trace:   %s\nmetrics: %s\n",
                 session->trace_path().c_str(),
                 session->metrics_path().c_str());
  }
  return 0;
}
