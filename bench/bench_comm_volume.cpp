// Exchange-mode A/B on the same network and partitioning: the broadcast
// reference (allgatherv of the full infectious set, full rescan, per-person
// progression scan) against the adaptive production path (timed-event
// progressions, quiescence tick-skipping, and a per-tick switch between the
// broadcast kernel and the ghost-delta halo + frontier kernel).
//
// The broadcast step allgatherv's every rank's full infectious set to every
// rank, every tick — O(global infectious x ranks) bytes on the wire
// regardless of how many of those records a rank could ever use. On its
// sparse ticks the adaptive mode sends each rank only the *changes* to the
// boundary records it subscribed to at construction, and it skips globally
// quiescent ticks outright (the seeds land at tick 8, so the dormant prefix
// is provably skippable). This bench runs both modes to the same epidemic
// and reports wall time, wire bytes, work, events processed, and skipped
// ticks; it exits non-zero if the epidemics diverge, if the adaptive halo
// payload is not strictly below broadcast's whole-run traffic, if adaptive
// does not do strictly less work, or if it is not strictly faster per tick
// (the CI perf-smoke gates).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_report.hpp"
#include "epihiper/parallel.hpp"
#include "synthpop/generator.hpp"
#include "util/timer.hpp"

namespace {

struct KernelRun {
  epi::SimOutput out;
  double wall_seconds = 0.0;
};

KernelRun run_kernel(const epi::SyntheticRegion& region,
                     const epi::DiseaseModel& model,
                     epi::SimulationConfig config,
                     const epi::Partitioning& parts, int ranks,
                     epi::ExchangeMode mode) {
  config.exchange = mode;
  epi::Timer timer;
  KernelRun result;
  result.out = epi::run_simulation_parallel(region.network, region.population,
                                            model, config, parts, ranks);
  result.wall_seconds = timer.elapsed_seconds();
  return result;
}

std::uint64_t peak(const std::vector<std::uint64_t>& series) {
  return series.empty() ? 0 : *std::max_element(series.begin(), series.end());
}

double mean(const std::vector<double>& series) {
  if (series.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : series) sum += v;
  return sum / static_cast<double>(series.size());
}

std::uint64_t sum_edges(const epi::SimOutput& out) {
  std::uint64_t edges = 0;
  for (const auto v : out.frontier_edges_per_tick) edges += v;
  return edges;
}

}  // namespace

int main() {
  using namespace epi;
  using namespace epi::bench;

  heading("Communication volume + exchange-mode A/B");
  note("same network, partitioning, seeds, and RNG streams for both modes;");
  note("the epidemic outputs must be identical, only wire traffic, touched");
  note("edges, and per-tick cost differ");

  SynthPopConfig pop_config;
  pop_config.region = "DC";
  pop_config.scale = 1.0 / 50.0;
  pop_config.seed = 7;
  const SyntheticRegion region = generate_region(pop_config);
  const DiseaseModel model = covid_model();

  constexpr int kRanks = 8;
  constexpr Tick kTicks = 60;
  SimulationConfig config;
  config.num_ticks = kTicks;
  config.seed = 11;
  // Seeds land at tick 8: the dormant prefix gives the adaptive mode a
  // deterministic skip window, so "strictly faster per tick" is a property
  // of the algorithm, not of scheduler noise.
  config.seeds = {SeedSpec{0, 10, 8}};

  const Partitioning parts =
      partition_network(region.network, static_cast<std::size_t>(kRanks));

  subheading("DC — " + fmt_int(region.population.person_count()) +
             " persons, " + fmt_int(region.network.contact_count()) +
             " contacts, " + fmt_int(kRanks) + " ranks, " + fmt_int(kTicks) +
             " ticks");

  const ExchangeMode modes[] = {ExchangeMode::kBroadcast,
                                ExchangeMode::kAdaptive};
  KernelRun runs[2];
  for (int i = 0; i < 2; ++i) {
    runs[i] = run_kernel(region, model, config, parts, kRanks, modes[i]);
  }
  const SimOutput& bcast = runs[0].out;
  const SimOutput& adaptive = runs[1].out;

  bool ok = true;
  if (adaptive.final_states != bcast.final_states ||
      adaptive.new_infections_per_tick != bcast.new_infections_per_tick ||
      adaptive.total_infections != bcast.total_infections) {
    note("FAIL: adaptive disagrees with broadcast on the epidemic — the A/B "
         "is invalid");
    ok = false;
  }

  row({"kernel", "comm MB", "s/tick", "wall s", "events", "skipped"}, 12);
  for (int i = 0; i < 2; ++i) {
    const SimOutput& out = runs[i].out;
    row({exchange_mode_name(modes[i]),
         fmt(static_cast<double>(out.communication_bytes) / 1e6, 3),
         fmt(mean(out.seconds_per_tick), 4), fmt(runs[i].wall_seconds, 3),
         fmt_int(out.events_fired), fmt_int(out.ticks_skipped)},
        12);
  }

  note("edges evaluated (all ticks, all ranks): broadcast " +
       fmt_int(sum_edges(bcast)) + ", adaptive " + fmt_int(sum_edges(adaptive)));
  note("work units: broadcast " + fmt_int(bcast.work_units) + ", adaptive " +
       fmt_int(adaptive.work_units));
  note("adaptive split: " + fmt_int(adaptive.broadcast_ticks) +
       " broadcast ticks, " + fmt_int(adaptive.ghost_ticks) +
       " ghost ticks, " + fmt_int(adaptive.ghost_exchange_bytes) +
       " halo payload bytes");

  JsonReport report("comm_volume");
  report.metric("ranks", static_cast<std::uint64_t>(kRanks));
  report.metric("ticks", static_cast<std::uint64_t>(kTicks));
  report.metric("persons",
                static_cast<std::uint64_t>(region.population.person_count()));
  report.metric("contacts", region.network.contact_count());
  report.metric("total_infections", adaptive.total_infections);
  for (int i = 0; i < 2; ++i) {
    const std::string prefix = exchange_mode_name(modes[i]);
    const SimOutput& out = runs[i].out;
    report.metric(prefix + ".communication_bytes", out.communication_bytes);
    report.metric(prefix + ".peak_memory_bytes",
                  peak(out.memory_bytes_per_tick));
    report.metric(prefix + ".seconds_per_tick_mean",
                  mean(out.seconds_per_tick));
    report.metric(prefix + ".edges_evaluated", sum_edges(out));
    report.metric(prefix + ".work_units", out.work_units);
    report.metric(prefix + ".events_scheduled", out.events_scheduled);
    report.metric(prefix + ".events_fired", out.events_fired);
    report.metric(prefix + ".ticks_skipped", out.ticks_skipped);
    report.metric(prefix + ".ticks_executed", out.ticks_executed);
  }
  report.metric("adaptive.ghost_exchange_bytes", adaptive.ghost_exchange_bytes);
  report.metric("adaptive.broadcast_ticks", adaptive.broadcast_ticks);
  report.metric("adaptive.ghost_ticks", adaptive.ghost_ticks);
  report.metric("outputs_identical", ok ? std::uint64_t{1} : std::uint64_t{0});
  report.write();

  // Perf-smoke gates. First, the halo's whole point: its per-tick delta
  // payload over the whole run stays strictly below the broadcast
  // reference's total traffic measured in this run. (Adaptive's whole-run
  // total also carries its broadcast ticks, the subscription handshake and
  // the per-tick switch/skip allreduces, so it is not the halo's measure.)
  if (adaptive.ghost_exchange_bytes >= bcast.communication_bytes) {
    note("FAIL: adaptive halo moved " + fmt_int(adaptive.ghost_exchange_bytes) +
         " bytes, broadcast " + fmt_int(bcast.communication_bytes));
    ok = false;
  } else {
    note("PASS: adaptive halo bytes strictly below the broadcast total");
  }
  // Second, deterministic: strictly less work (fewer edge evaluations and
  // no per-person scans on executed ticks, nothing on skipped ones).
  if (adaptive.work_units >= bcast.work_units) {
    note("FAIL: adaptive did " + fmt_int(adaptive.work_units) +
         " work units, broadcast " + fmt_int(bcast.work_units));
    ok = false;
  } else {
    note("PASS: adaptive work strictly below broadcast");
  }
  // Third, the same on the clock: strictly cheaper ticks.
  const double adaptive_spt = mean(adaptive.seconds_per_tick);
  const double bcast_spt = mean(bcast.seconds_per_tick);
  if (adaptive_spt >= bcast_spt) {
    note("FAIL: adaptive s/tick " + fmt(adaptive_spt, 5) +
         " not strictly below broadcast " + fmt(bcast_spt, 5));
    ok = false;
  } else {
    note("PASS: adaptive s/tick strictly below broadcast");
  }
  if (adaptive.ticks_skipped == 0) {
    note("FAIL: adaptive skipped no ticks despite the dormant seed prefix");
    ok = false;
  }
  return ok ? 0 : 1;
}
