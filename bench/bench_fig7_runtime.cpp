// Fig 7 (top) reproduction: EpiHiper running time vs network size.
// The paper shows running time increasing linearly with input size at a
// fixed processing-unit count. We time real serial simulations over
// networks of increasing size and report the measured time plus the
// size-normalized rate (flat rate = linear scaling), and a linear fit R^2.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_report.hpp"
#include "epihiper/parallel.hpp"
#include "synthpop/generator.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace epi;

SyntheticRegion make_scaled_region(double scale) {
  SynthPopConfig config;
  config.region = "VA";
  config.scale = scale;
  config.seed = 20200325;
  return generate_region(config);
}

void BM_EpiHiperRuntimeVsSize(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 1e6;
  const SyntheticRegion region = make_scaled_region(scale);
  const DiseaseModel model = covid_model();
  SimulationConfig config;
  config.num_ticks = 60;
  config.seed = 7;
  config.seeds = {SeedSpec{0, 5, 0}, SeedSpec{1, 5, 0}};
  for (auto _ : state) {
    const SimOutput out =
        run_simulation(region.network, region.population, model, config);
    benchmark::DoNotOptimize(out.total_infections);
  }
  state.counters["persons"] =
      static_cast<double>(region.population.person_count());
  state.counters["contacts"] =
      static_cast<double>(region.network.contact_count());
  state.counters["ns_per_person_tick"] = benchmark::Counter(
      static_cast<double>(region.population.person_count()) * 60.0,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

BENCHMARK(BM_EpiHiperRuntimeVsSize)
    ->Arg(125)   // scale 1/8000 of VA ~ 1.1k persons
    ->Arg(250)   // ~2.1k
    ->Arg(500)   // ~4.3k
    ->Arg(1000)  // ~8.5k
    ->Arg(2000)  // ~17k
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using namespace epi::bench;
  heading("Fig 7 (top) — EpiHiper running time vs network size");
  note("paper: running time increases linearly with input size");
  note("check: Time column grows ~2x per row; ns_per_person_tick stays flat");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // Explicit linearity check outside the google-benchmark loop.
  subheading("linearity fit (single runs)");
  std::vector<double> sizes, times;
  for (const double scale : {1.0 / 8000, 1.0 / 4000, 1.0 / 2000, 1.0 / 1000}) {
    const epi::SyntheticRegion region = make_scaled_region(scale);
    const epi::DiseaseModel model = epi::covid_model();
    epi::SimulationConfig config;
    config.num_ticks = 60;
    config.seed = 7;
    config.seeds = {epi::SeedSpec{0, 5, 0}, epi::SeedSpec{1, 5, 0}};
    epi::Timer timer;
    epi::run_simulation(region.network, region.population, model, config);
    sizes.push_back(static_cast<double>(region.population.person_count()));
    times.push_back(timer.elapsed_seconds());
    std::printf("  %8.0f persons  %8.3f s\n", sizes.back(), times.back());
  }
  compare("runtime-size correlation", "linear (r ~ 1)",
          fmt(epi::correlation(sizes, times), 4));

  // Exchange-mode A/B over the same size ladder: seconds-per-tick per mode
  // and the adaptive mode's events processed at each size. The workload
  // seeds at tick 200/201 with a 240-tick horizon, so five sixths of the
  // run is a globally dormant prefix — the regime the event-driven core
  // exists for. The broadcast reference pays the O(persons) progression
  // rescan on every dormant tick; the adaptive mode skips those ticks
  // outright, so its advantage here is structural, not timer noise. The
  // adaptive mode must be strictly faster per tick than broadcast across
  // the sweep (the CI perf-smoke gate); the timing compared is the summed
  // per-tick loop time, best of three runs per mode, which filters
  // scheduler noise that a single wall-clock sample of these ~ms runs
  // cannot. Counts are deterministic and land in the baseline; timing is
  // reported but not gated by epitrace diff.
  subheading("exchange-mode A/B (s/tick per mode, best of 3)");
  constexpr int kMatrixTicks = 240;
  constexpr int kRepeats = 3;
  const epi::ExchangeMode modes[] = {epi::ExchangeMode::kBroadcast,
                                     epi::ExchangeMode::kAdaptive};
  epi::bench::JsonReport report("fig7_runtime");
  bool ok = true;
  double sweep_seconds[2] = {0.0, 0.0};
  row({"persons", "broadcast", "adaptive", "events", "skipped"}, 11);
  int sweep_index = 0;
  for (const double scale : {1.0 / 8000, 1.0 / 4000, 1.0 / 2000, 1.0 / 1000}) {
    const epi::SyntheticRegion region = make_scaled_region(scale);
    const epi::DiseaseModel model = epi::covid_model();
    epi::SimulationConfig base;
    base.num_ticks = kMatrixTicks;
    base.seed = 7;
    base.seeds = {epi::SeedSpec{0, 5, 200}, epi::SeedSpec{1, 5, 201}};
    epi::SimOutput outs[2];
    double best[2];
    for (int m = 0; m < 2; ++m) {
      epi::SimulationConfig config = base;
      config.exchange = modes[m];
      best[m] = 1e30;
      for (int r = 0; r < kRepeats; ++r) {
        outs[m] = epi::run_simulation(region.network, region.population,
                                      model, config);
        double total = 0.0;
        for (const double v : outs[m].seconds_per_tick) total += v;
        best[m] = std::min(best[m], total);
      }
      sweep_seconds[m] += best[m];
    }
    const epi::SimOutput& adaptive = outs[1];
    if (adaptive.final_states != outs[0].final_states ||
        adaptive.new_infections_per_tick != outs[0].new_infections_per_tick) {
      note("FAIL: adaptive diverges from broadcast at " +
           fmt_int(region.population.person_count()) + " persons");
      ok = false;
    }
    row({fmt_int(region.population.person_count()),
         fmt(best[0] / kMatrixTicks, 6), fmt(best[1] / kMatrixTicks, 6),
         fmt_int(adaptive.events_fired), fmt_int(adaptive.ticks_skipped)},
        11);
    const std::string prefix = "sweep" + std::to_string(sweep_index);
    report.metric(prefix + ".persons",
                  static_cast<std::uint64_t>(
                      region.population.person_count()));
    report.metric(prefix + ".total_infections", adaptive.total_infections);
    report.metric(prefix + ".events_scheduled", adaptive.events_scheduled);
    report.metric(prefix + ".events_fired", adaptive.events_fired);
    report.metric(prefix + ".events_stale", adaptive.events_stale);
    report.metric(prefix + ".ticks_skipped", adaptive.ticks_skipped);
    for (int m = 0; m < 2; ++m) {
      report.metric(prefix + "." + epi::exchange_mode_name(modes[m]) +
                        ".seconds_per_tick_mean",
                    best[m] / kMatrixTicks);
    }
    ++sweep_index;
  }
  for (int m = 0; m < 2; ++m) {
    report.metric(std::string(epi::exchange_mode_name(modes[m])) +
                      ".sweep_seconds",
                  sweep_seconds[m]);
  }
  report.write();
  // Gate on the sweep aggregate of per-mode bests.
  if (sweep_seconds[1] >= sweep_seconds[0]) {
    note("FAIL: adaptive sweep " + fmt(sweep_seconds[1], 3) +
         " s not strictly below broadcast " + fmt(sweep_seconds[0], 3) + " s");
    ok = false;
  } else {
    note("PASS: adaptive sweep time strictly below broadcast");
  }
  return ok ? 0 : 1;
}
