// Layered wall-clock benchmark for EpiScale.
//
// One process runs one workload, times calls into the library layers from
// outside, checks their outputs and prints one JSON result line last:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (closed loop: each step is submitted after the last completes):
//   va_dense           VA at 1/20, 600 seeds, no interventions: the
//                      transmission kernel and the halo exchange.
//   calibration_cycle  VA at 1/2000 through the calibration cycle: the exec
//                      farm in front of the serial GP-fit/MCMC tail.
//   scenario_wave      a seeded request log served cold by a fresh
//                      ScenarioService: planning, caching, the nightly
//                      workflow, the cluster DES and the person DBs.
//
// --trace 0 prints the end-to-end metrics (setup_s, run_s, serial_run_s,
// peak_rss_mb); --trace 1 prints the per-layer metrics, read from the hooks
// the library already exposes (SimOutput counters, mpilite::ObsHooks, the
// obs::Session field on the cycle/service/nightly configs). Each timed step
// is one attempted operation; each output check is another, and a failed
// check is a failed operation.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "emulator/linalg.hpp"
#include "epihiper/parallel.hpp"
#include "network/partition.hpp"
#include "obs/obs.hpp"
#include "service/batch.hpp"
#include "service/service.hpp"
#include "synthpop/generator.hpp"
#include "util/stats.hpp"
#include "workflow/calibration_cycle.hpp"
#include "workflow/nightly.hpp"

#if !defined(__OPTIMIZE__)
#error "perfbench must be built optimised (RelWithDebInfo or Release)"
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "perfbench refuses sanitizer builds"
#endif

extern char** environ;

namespace {

using namespace epi;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times one call; returns its wall seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return seconds_since(start);
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Index of the median element (the upper middle one for an even count):
/// the sample whose sibling measurements are reported alongside it.
std::size_t median_index(const std::vector<double>& xs) {
  std::vector<std::size_t> order(xs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  return order[order.size() / 2];
}

/// SplitMix64: derives independent input streams from the workload seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return mix(mix(seed) ^ salt);
}

// ---------------------------------------------------------------------------
// Result accounting and printing.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Result {
 public:
  /// One timed step ran to completion.
  void step() { ++attempted_; }

  /// One timed step of the closed loop, echoed for the run log.
  void step(const std::string& what, double seconds) {
    ++attempted_;
    std::printf("# step %-12s %.6f s\n", what.c_str(), seconds);
  }

  /// One output check.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  /// Declares that this workload gives `layer` no work: a layer name such
  /// as "exec" covers all of its metrics, a full metric name covers one.
  void not_run(const std::string& layer, const std::string& reason) {
    not_run_.emplace_back(layer, reason);
  }

  /// Prints the metric table, then the JSON result as the last line. The
  /// "not_run" key carries the reasons for the metrics left out; run.py
  /// completes the metric set from BENCHMARK.json and drops the key.
  void print() const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-32s %.9g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += failed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) json += ", ";
      json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}, \"not_run\": {";
    for (std::size_t i = 0; i < not_run_.size(); ++i) {
      if (i > 0) json += ", ";
      json += "\"" + not_run_[i].first + "\": \"" + not_run_[i].second + "\"";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> not_run_;
};

/// Peak resident set of this process image. VmHWM, not ru_maxrss: the
/// latter keeps the high-water mark of the pre-exec parent image (a Python
/// launcher outweighs the smaller workloads).
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  EPI_REQUIRE(status != nullptr, "cannot read /proc/self/status");
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(status);
  EPI_REQUIRE(kib > 0, "no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;  // KiB -> MiB
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Ranks and farm workers of the parallel steps (the bound CPU count).
  std::size_t degree = 1;
};

/// Parallel degree: 2 ranks / 2 farm workers, never more than the CPUs
/// this process may use, which leaves headroom on a shared 4-core host.
constexpr std::size_t kParallelDegree = 2;

/// Binds the process to its first kParallelDegree allowed CPUs, the way an
/// MPI launcher binds ranks to cores, so rank and worker threads are not
/// migrated across an otherwise idle machine. The first CPUs, because an
/// alternating comparison of CPUs 0,1 against 2,3 on a shared 4-vCPU host
/// gave the lower run-to-run spread on every timed metric (STEADINESS.md).
/// Returns the CPU list.
std::vector<int> bind_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  EPI_REQUIRE(sched_getaffinity(0, sizeof(allowed), &allowed) == 0,
              "sched_getaffinity failed");
  std::vector<int> cpus;
  cpu_set_t bound;
  CPU_ZERO(&bound);
  for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < kParallelDegree;
       ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &bound);
      cpus.push_back(cpu);
    }
  }
  EPI_REQUIRE(!cpus.empty() &&
                  sched_setaffinity(0, sizeof(bound), &bound) == 0,
              "sched_setaffinity failed");
  return cpus;
}

/// Runs `pair(i)` until `seconds` of loop time is used, at least
/// `min_pairs` times; stops early rather than overshoot by a whole pair.
void run_loop(double seconds, std::size_t min_pairs,
              const std::function<void(std::size_t)>& pair) {
  const auto start = Clock::now();
  double longest = 0.0;
  for (std::size_t i = 0;; ++i) {
    const double used = seconds_since(start);
    if (i >= min_pairs && used + longest > seconds) break;
    const double took = timed([&] { pair(i); });
    longest = std::max(longest, took);
  }
}

/// The end-to-end metrics of an untraced run: the three times are medians
/// over the run.
void report_end_to_end(double setup_s, double run_s, double serial_run_s,
                       Result& result) {
  result.metric("setup_s", setup_s, "s");
  result.metric("run_s", run_s, "s");
  result.metric("serial_run_s", serial_run_s, "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Adds every counter whose name starts with `prefix`.
std::uint64_t counter_sum(const Json& snapshot, const std::string& prefix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : snapshot.at("counters").as_object()) {
    if (name.rfind(prefix, 0) == 0) {
      total += static_cast<std::uint64_t>(value.as_double());
    }
  }
  return total;
}

/// Sum and worst p99 over the mpilite.<collective>_s histograms.
struct CollectiveTimes {
  double sum_s = 0.0;
  double p99_s = 0.0;
};

CollectiveTimes collective_times(const Json& snapshot) {
  CollectiveTimes out;
  for (const auto& [name, hist] : snapshot.at("histograms").as_object()) {
    if (name.rfind("mpilite.", 0) != 0 || name.size() < 2 ||
        name.compare(name.size() - 2, 2, "_s") != 0) {
      continue;
    }
    out.sum_s += hist.at("sum").as_double();
    out.p99_s = std::max(out.p99_s, hist.get_double("p99", 0.0));
  }
  return out;
}

/// Sum of the task_s arg over every exec task span in a trace.
double exec_busy_seconds(const obs::TraceRecorder& trace) {
  double busy = 0.0;
  const Json doc = trace.to_json();
  for (const Json& event : doc.at("traceEvents").as_array()) {
    if (event.get_string("ph", "") != "X" ||
        event.get_string("cat", "") != "exec") {
      continue;
    }
    busy += event.at("args").get_double("task_s", 0.0);
  }
  return busy;
}

// ---------------------------------------------------------------------------
// Seeded inputs. The program receives only what these generate.

/// The scenario wave's states: four small states of similar size, largest
/// first.
const char* const kWaveStates[] = {"ND", "AK", "VT", "WY"};
constexpr double kWaveScaleDenominator = 40.0;

struct WaveTail {
  /// Tails run in descending priority; the campaign's stage payer first.
  std::int64_t priority;
  std::size_t posterior_configs;
  std::size_t prediction_runs;
  std::size_t mcmc_samples;
  std::size_t mcmc_burn_in;
};
constexpr WaveTail kWaveTails[] = {
    {30, 6, 2, 40, 20}, {10, 10, 3, 40, 20}, {20, 6, 2, 60, 30}};

/// JSONL request log for one scenario wave: per state three calibration
/// tails sharing one prior stage plus one exact duplicate, then an
/// economic and a prediction nightly request. The seed picks requesters,
/// which tail is duplicated and the arrival order. Engine knobs and
/// priorities stay fixed, and priorities alone set the plan order, so every
/// seed asks for the same work in the same order.
std::string wave_log(std::uint64_t seed) {
  std::vector<service::ScenarioRequest> requests;
  std::uint64_t salt = 0x57415645ULL;  // "WAVE"
  auto next = [&] { return derive(seed, salt++); };
  for (std::size_t s = 0; s < std::size(kWaveStates); ++s) {
    const char* state = kWaveStates[s];
    for (std::size_t t = 0; t < std::size(kWaveTails); ++t) {
      service::ScenarioRequest request;
      request.id = std::string("cal-") + state + "-t" + std::to_string(t);
      request.requester = "analyst-" + std::to_string(next() % 8);
      request.priority = kWaveTails[t].priority - static_cast<std::int64_t>(s);
      request.kind = service::RequestKind::kCalibration;
      request.region = state;
      request.scale_denominator = kWaveScaleDenominator;
      request.prior_configs = 24;
      request.calibration_days = 40;
      request.horizon_days = 14;
      request.posterior_configs = kWaveTails[t].posterior_configs;
      request.prediction_runs = kWaveTails[t].prediction_runs;
      request.mcmc_samples = kWaveTails[t].mcmc_samples;
      request.mcmc_burn_in = kWaveTails[t].mcmc_burn_in;
      requests.push_back(request);
    }
    service::ScenarioRequest dup =
        requests[requests.size() - 1 - next() % std::size(kWaveTails)];
    dup.id = std::string("cal-") + state + "-dup";
    dup.requester = "press-office";
    dup.priority = -1;
    requests.push_back(dup);
  }
  const char* designs[] = {"economic", "prediction"};
  for (std::size_t d = 0; d < 2; ++d) {
    service::ScenarioRequest request;
    request.id = std::string("nightly-") + designs[d];
    request.requester = "ops";
    request.priority = 5 - static_cast<std::int64_t>(d);
    request.kind = service::RequestKind::kNightly;
    request.design = designs[d];
    request.scale_denominator = 8000.0;
    request.sample_executions = 2;
    request.executed_days = 20;
    request.regions = {kWaveStates[2 * d], kWaveStates[2 * d + 1]};
    requests.push_back(request);
  }
  // Seeded arrival order (Fisher-Yates).
  for (std::size_t i = requests.size(); i > 1; --i) {
    std::swap(requests[i - 1], requests[next() % i]);
  }
  std::string log = "# perfbench scenario wave, seed " +
                    std::to_string(seed) + "\n";
  for (const auto& request : requests) {
    log += service::dump_request(request);
    log += '\n';
  }
  return log;
}

/// Request-class counts of a wave log: calibration, nightly, distinct
/// results, distinct prior stages.
struct WaveShape {
  std::size_t calibration = 0;
  std::size_t nightly = 0;
  std::size_t units = 0;
  std::size_t campaigns = 0;
  bool operator==(const WaveShape&) const = default;
};

WaveShape wave_shape(const std::string& log) {
  const auto requests = service::parse_request_log(log);
  const service::ServicePlan plan = service::plan_requests(requests);
  WaveShape shape;
  for (const auto& request : requests) {
    (request.kind == service::RequestKind::kCalibration ? shape.calibration
                                                        : shape.nightly)++;
  }
  shape.units = plan.units.size();
  shape.campaigns = plan.campaigns.size();
  return shape;
}

/// Same seed -> byte-identical inputs; another seed -> different inputs
/// of the same shape.
void self_test_inputs(std::uint64_t seed, Result& result) {
  const std::uint64_t other = seed ^ 0x5EEDULL;
  const std::string log_a = wave_log(seed);
  result.check(log_a == wave_log(seed), "wave log repeats for one seed");
  const std::string log_b = wave_log(other);
  result.check(log_a != log_b, "wave log differs for another seed");
  const WaveShape shape_a = wave_shape(log_a);
  result.check(shape_a == wave_shape(log_b),
               "wave log shape is seed-independent");
  result.check(shape_a.calibration == 16 && shape_a.nightly == 2 &&
                   shape_a.units == 14 && shape_a.campaigns == 4,
               "wave log has 16 calibration + 2 nightly requests in 14 "
               "units and 4 campaigns");
}

// ---------------------------------------------------------------------------
// VA dense epidemic.

/// The VA 1/20 region and its partitioning.
struct VaInputs {
  std::unique_ptr<SyntheticRegion> region;
  Partitioning partitioning;
};

/// One setup_s sample and its two layers.
struct VaSetup {
  double generate_s = 0.0;
  double partition_s = 0.0;
};

/// Region builds before the loop; setup_s is their median.
constexpr std::size_t kVaSetupBuilds = 3;

/// Builds the region and its partitioning in place. The old inputs are
/// freed first, so a rebuild does not raise the peak resident set.
VaSetup va_build(VaInputs& inputs, std::size_t ranks, Result& result) {
  SynthPopConfig config;
  config.region = "VA";
  config.scale = 1.0 / 20.0;
  config.seed = 20200325;
  inputs.region.reset();
  inputs.partitioning = Partitioning{};
  VaSetup setup;
  setup.generate_s = timed([&] {
    inputs.region = std::make_unique<SyntheticRegion>(generate_region(config));
  });
  setup.partition_s = timed([&] {
    inputs.partitioning = partition_network(inputs.region->network, ranks);
  });
  result.check(inputs.partitioning.size() == ranks,
               "partitioning has one part per rank");
  return setup;
}

/// What serial and parallel runs must agree on byte for byte.
struct EpiDigest {
  std::vector<HealthStateId> final_states;
  std::vector<std::uint64_t> new_infections;
  std::uint64_t total_infections = 0;
  bool operator==(const EpiDigest&) const = default;
};

EpiDigest digest(const SimOutput& out) {
  return {out.final_states, out.new_infections_per_tick,
          out.total_infections};
}

/// Counters that must repeat exactly between traced runs.
using Counts = std::map<std::string, double>;

void va_workload(const Options& opt, Result& result) {
  const std::size_t ranks = opt.degree;
  const DiseaseModel model = covid_model();
  SimulationConfig config;
  config.num_ticks = 120;
  config.seed = derive(opt.seed, 0x44454e5345ULL);  // "DENSE"
  config.seeds = {SeedSpec{0, 200, 0}, SeedSpec{1, 200, 0},
                  SeedSpec{2, 200, 0}};

  // The set-up builds count against --seconds, so the run keeps its length.
  // They all run before the loop: rebuilding between passes fragments the
  // heap and moves peak_rss_mb by up to 20% from run to run.
  const auto start = Clock::now();
  VaInputs inputs;
  std::vector<VaSetup> setups;
  for (std::size_t b = 0; b < kVaSetupBuilds; ++b) {
    setups.push_back(va_build(inputs, ranks, result));
  }
  const double loop_seconds = opt.seconds - seconds_since(start);
  std::printf("# inputs: %u persons, %lu contacts, exchange=%s\n",
              inputs.region->population.person_count(),
              static_cast<unsigned long>(inputs.region->network.contact_count()),
              exchange_mode_name(config.exchange));

  std::optional<EpiDigest> reference;
  auto check_output = [&](const SimOutput& out, const char* side) {
    const EpiDigest d = digest(out);
    if (!reference) {
      reference = d;
      const std::uint64_t persons = inputs.region->population.person_count();
      result.check(d.total_infections > persons / 10,
                   "dense regime, over 10% of persons infected: " +
                       std::to_string(d.total_infections) + " infections");
      std::printf("# %lu infections\n",
                  static_cast<unsigned long>(d.total_infections));
      return;
    }
    result.check(d == *reference, std::string("serial and parallel outputs "
                                              "identical (") + side + ")");
  };

  struct StepStats {
    double seconds = 0.0;
    SimOutput out;
  };
  auto run_step = [&](bool parallel, const mpilite::ObsHooks* hooks) {
    const SyntheticRegion& region = *inputs.region;
    StepStats stats;
    stats.seconds = timed([&] {
      if (!parallel) {
        stats.out = run_simulation(region.network, region.population, model,
                                   config);
      } else if (hooks == nullptr) {
        stats.out = run_simulation_parallel(
            region.network, region.population, model, config,
            inputs.partitioning, static_cast<int>(ranks));
      } else {
        stats.out = run_simulation_parallel(
            region.network, region.population, model, config,
            inputs.partitioning, static_cast<int>(ranks), nullptr, *hooks);
      }
    });
    check_output(stats.out, parallel ? "parallel" : "serial");
    result.step(!parallel ? "serial" : hooks ? "traced" : "parallel",
                stats.seconds);
    return stats;
  };

  std::vector<double> serial_s, parallel_s, traced_s;
  if (!opt.trace) {
    run_loop(loop_seconds, 1, [&](std::size_t i) {
      // Alternate which side runs first so drift hits both alike.
      if (i % 2 == 0) {
        serial_s.push_back(run_step(false, nullptr).seconds);
        parallel_s.push_back(run_step(true, nullptr).seconds);
      } else {
        parallel_s.push_back(run_step(true, nullptr).seconds);
        serial_s.push_back(run_step(false, nullptr).seconds);
      }
    });
    std::vector<double> setup_s;
    for (const VaSetup& s : setups) setup_s.push_back(s.generate_s + s.partition_s);
    report_end_to_end(median(setup_s), median(parallel_s),
                      median(serial_s), result);
    return;
  }

  // Traced run: untraced and traced parallel steps, plus a serial step for
  // the speed-up and the kernel throughput.
  std::optional<Counts> first_counts;
  StepStats traced;
  Json snapshot;
  run_loop(loop_seconds, 1, [&](std::size_t) {
    parallel_s.push_back(run_step(true, nullptr).seconds);
    obs::MetricsRegistry metrics;
    obs::TraceRecorder recorder;
    const mpilite::ObsHooks hooks{&metrics, false, &recorder};
    traced = run_step(true, &hooks);
    traced_s.push_back(traced.seconds);
    serial_s.push_back(run_step(false, nullptr).seconds);
    snapshot = metrics.snapshot();
    std::uint64_t frontier = 0;
    for (std::uint64_t f : traced.out.frontier_edges_per_tick) frontier += f;
    const Counts counts = {
        {"bytes", static_cast<double>(counter_sum(snapshot, "mpilite.bytes."))},
        {"msgs", static_cast<double>(counter_sum(snapshot, "mpilite.msgs."))},
        {"frontier", static_cast<double>(frontier)},
        {"work", static_cast<double>(traced.out.work_units)},
        {"fired", static_cast<double>(traced.out.events_fired)}};
    if (!first_counts) {
      first_counts = counts;
    } else {
      result.check(counts == *first_counts,
                   "traced count metrics repeat exactly");
    }
  });
  const double run_s = median(parallel_s);
  const double serial_run_s = median(serial_s);
  const SimOutput& out = traced.out;

  std::vector<double> setup_s;
  for (const VaSetup& s : setups) setup_s.push_back(s.generate_s + s.partition_s);
  const VaSetup& setup = setups[median_index(setup_s)];
  result.metric("synthpop.generate_s", setup.generate_s, "s");
  result.metric("network.partition_s", setup.partition_s, "s");
  result.metric("synthpop.persons", inputs.region->population.person_count(),
                "count");
  result.metric("synthpop.contacts", inputs.region->network.contact_count(),
                "count");
  result.metric("network.edge_imbalance",
                inputs.partitioning.edge_imbalance(), "ratio");

  for (const char* layer : {"exec", "workflow", "emulator", "calibration",
                            "service", "cluster", "persondb"}) {
    result.not_run(layer, "an epidemic workload runs no farm, cycle or service");
  }
  const std::string mode = exchange_mode_name(config.exchange);
  const double frontier = first_counts->at("frontier");
  result.metric("epihiper.frontier_edges", frontier, "count");
  result.metric("epihiper.work_units", out.work_units, "count");
  result.metric("epihiper.max_rank_work_units", out.max_rank_work_units,
                "count");
  result.metric("epihiper.rank_imbalance",
                out.work_units > 0
                    ? static_cast<double>(out.max_rank_work_units) * ranks /
                          static_cast<double>(out.work_units)
                    : 0.0,
                "ratio");
  result.metric("epihiper.edges_per_s", frontier / serial_run_s, "1/s");
  if (out.broadcast_ticks + out.ghost_ticks > 0) {
    result.metric("epihiper.broadcast_ticks", out.broadcast_ticks, "count");
    result.metric("epihiper.ghost_ticks", out.ghost_ticks, "count");
  } else {
    for (const char* name : {"epihiper.broadcast_ticks",
                             "epihiper.ghost_ticks"}) {
      result.not_run(name, "only the adaptive exchange mode splits ticks "
                           "between kernels; this run uses " + mode);
    }
  }
  result.metric("epihiper.ticks_executed", out.ticks_executed, "count");
  if (out.events_scheduled > 0) {
    result.metric("epihiper.ticks_skipped", out.ticks_skipped, "count");
    result.metric("epihiper.events_fired", out.events_fired, "count");
    result.metric("epihiper.events_stale", out.events_stale, "count");
    result.metric("epihiper.event_yield",
                  static_cast<double>(out.events_fired) /
                      static_cast<double>(out.events_scheduled),
                  "ratio");
  } else {
    for (const char* name : {"epihiper.ticks_skipped", "epihiper.events_fired",
                             "epihiper.events_stale", "epihiper.event_yield"}) {
      result.not_run(name, "exchange mode " + mode +
                               " does not use the event queue");
    }
  }
  // seconds_per_tick is the simulator's own clock (per tick, the slowest
  // rank); it must fit inside the benchmark's clock around the same call.
  std::vector<double> ticks;
  for (double s : out.seconds_per_tick) {
    if (out.ticks_skipped == 0 || s > 0.0) ticks.push_back(s);
  }
  const double tick_max =
      ticks.empty() ? 0.0 : *std::max_element(ticks.begin(), ticks.end());
  result.metric("epihiper.tick_s.p50", median(ticks), "s");
  result.metric("epihiper.tick_s.max", tick_max, "s");
  result.check(tick_max <= traced.seconds,
               "epihiper.tick_s.max <= traced run_s");
  const CollectiveTimes coll = collective_times(snapshot);
  result.metric("mpilite.bytes", first_counts->at("bytes"), "B");
  result.metric("mpilite.ghost_bytes", out.ghost_exchange_bytes, "B");
  result.metric("mpilite.msgs", first_counts->at("msgs"), "count");
  result.metric("mpilite.collective_s", coll.sum_s, "s");
  result.metric("mpilite.collective_p99_s", coll.p99_s, "s");
  // The snapshot and the step time come from the same (last) traced step.
  const double rank_seconds = static_cast<double>(ranks) * traced.seconds;
  result.metric("mpilite.wait_share", coll.sum_s / rank_seconds, "ratio");
  result.check(coll.sum_s <= rank_seconds,
               "mpilite.collective_s <= ranks x traced run_s");
  result.metric("derived.speedup_2", serial_run_s / run_s, "ratio");
  result.metric("derived.trace_overhead", median(traced_s) / run_s, "ratio");
}

// ---------------------------------------------------------------------------
// Calibration cycle.

/// Region builds per setup_s sample on calibration_cycle.
constexpr std::size_t kCycleSetupBatch = 8;

void calibration_workload(const Options& opt, Result& result) {
  const std::size_t jobs = opt.degree;
  // The case-study defaults (VA 1/2000, seed 20200411). --seed does not
  // change them: the cycle seed also drives the surveillance truth, and
  // many seeds never reach the seeding level at this scale.
  CalibrationCycleConfig base;

  // Set-up: the cycle's region build, injected through region_source. One
  // build takes about 10 ms, so setup_s times a batch of builds. One batch
  // runs before the loop and one in each loop pass, so the median spans the
  // whole run rather than its first second.
  SynthPopConfig pop;
  pop.region = base.region;
  pop.scale = base.scale;
  pop.seed = base.seed;
  std::shared_ptr<const SyntheticRegion> region;
  std::vector<double> setup, one_build;
  auto setup_batch = [&] {
    setup.push_back(timed([&] {
      for (std::size_t b = 0; b < kCycleSetupBatch; ++b) {
        region.reset();
        one_build.push_back(timed([&] {
          region =
              std::make_shared<const SyntheticRegion>(generate_region(pop));
        }));
      }
    }));
  };
  setup_batch();
  std::size_t region_requests = 0;
  base.region_source = [&](const SynthPopConfig& asked) {
    ++region_requests;
    EPI_REQUIRE(asked.region == pop.region && asked.scale == pop.scale &&
                    asked.seed == pop.seed,
                "cycle asked for a region the benchmark did not build");
    return region;
  };
  std::printf("# inputs: %s at 1/%.0f, cycle seed %lu, %u persons, %zu "
              "prior configs, setup batch of %zu builds\n",
              base.region.c_str(), 1.0 / base.scale,
              static_cast<unsigned long>(base.seed),
              region->population.person_count(), base.prior_configs,
              kCycleSetupBatch);

  struct CycleRun {
    double total_s = 0.0;
    double prior_s = 0.0;
    double finish_s = 0.0;
    CyclePriorStage stage;
    CalibrationCycleResult result;
  };
  std::optional<std::string> reference;
  std::size_t cycles = 0;
  auto run_cycle = [&](std::size_t run_jobs, obs::Session* session) {
    CalibrationCycleConfig config = base;
    config.jobs = run_jobs;
    config.trace = session;
    CycleRun run;
    run.total_s = timed([&] {
      run.prior_s = timed([&] { run.stage = run_cycle_prior_stage(config); });
      run.finish_s = timed(
          [&] { run.result = finish_calibration_cycle(config, run.stage); });
    });
    result.step(session ? "traced" : "jobs=" + std::to_string(run_jobs),
                run.total_s);
    ++cycles;
    const std::string text = serialize(run.result);
    if (!reference) {
      reference = text;
    } else {
      result.check(text == *reference, "cycle result identical at jobs " +
                                           std::to_string(run_jobs));
    }
    return run;
  };

  std::vector<double> serial_s, parallel_s;
  if (!opt.trace) {
    run_loop(opt.seconds, 1, [&](std::size_t i) {
      for (int k = 0; k < 2; ++k) {
        const bool parallel = (i + k) % 2 == 1;
        (parallel ? parallel_s : serial_s)
            .push_back(run_cycle(parallel ? jobs : 1, nullptr).total_s);
      }
      setup_batch();
    });
    result.check(region_requests == cycles,
                 "every cycle took its region from region_source");
    report_end_to_end(median(setup), median(parallel_s),
                      median(serial_s), result);
    return;
  }

  result.not_run("network",
                 "the cycle's replicates run serially; nothing is partitioned");
  for (const char* layer : {"epihiper", "mpilite"}) {
    result.not_run(layer,
                   "replicates run serially inside the cycle; their SimOutput "
                   "counters stay internal");
  }
  for (const char* layer : {"service", "workflow.nightly_run_s", "cluster",
                            "persondb"}) {
    result.not_run(layer,
                   "the calibration cycle runs no scenario service or nightly "
                   "workflow");
  }

  std::vector<double> traced_s, prior_s, finish_s, busy_s, steals;
  std::optional<Counts> first_counts;
  std::optional<CycleRun> traced;
  run_loop(opt.seconds, 1, [&](std::size_t) {
    parallel_s.push_back(run_cycle(jobs, nullptr).total_s);
    obs::Session session(obs::SessionOptions{});
    traced = run_cycle(jobs, &session);
    traced_s.push_back(traced->total_s);
    prior_s.push_back(traced->prior_s);
    finish_s.push_back(traced->finish_s);
    busy_s.push_back(exec_busy_seconds(session.trace()));
    steals.push_back(
        static_cast<double>(session.metrics().counter("exec.steal")));
    serial_s.push_back(run_cycle(1, nullptr).total_s);
    const Counts counts = {
        {"exec.tasks",
         static_cast<double>(session.metrics().counter("exec.tasks"))},
        {"acceptance", traced->result.calibration.acceptance_rate}};
    if (!first_counts) {
      first_counts = counts;
    } else {
      result.check(counts == *first_counts,
                   "traced count metrics repeat exactly");
    }
    setup_batch();
  });
  result.metric("synthpop.generate_s", median(one_build), "s");
  result.metric("synthpop.persons", region->population.person_count(),
                "count");
  result.metric("synthpop.contacts", region->network.contact_count(),
                "count");
  const std::size_t m = median_index(traced_s);
  const double farm_wall = static_cast<double>(jobs) * traced_s[m];
  result.metric("exec.tasks", first_counts->at("exec.tasks"), "count");
  result.metric("exec.steal", median(steals), "count");
  result.metric("exec.busy_s", busy_s[m], "s");
  result.metric("exec.idle_s", farm_wall - busy_s[m], "s");
  result.metric("exec.utilization", busy_s[m] / farm_wall, "ratio");
  result.check(busy_s[m] <= farm_wall, "exec.busy_s <= workers x run_s");
  result.metric("workflow.prior_stage_s", prior_s[m], "s");
  result.metric("workflow.finish_s", finish_s[m], "s");
  result.metric("workflow.serial_fraction", finish_s[m] / traced_s[m],
                "ratio");

  // The tail's two layers, timed on the traced cycle's own stage.
  const CyclePriorStage& stage = traced->stage;
  std::optional<AgentCalibrator> calibrator;
  const double fit_s = timed([&] {
    calibrator.emplace(stage.prior_design, Mat(stage.sim_outputs),
                       log_transform(stage.observed_cumulative), base.seed,
                       Mat(stage.replicate_cov));
  });
  AgentCalibrationResult calibration;
  const double calibrate_s = timed([&] {
    calibration = calibrator->calibrate(base.posterior_configs, base.mcmc);
  });
  result.step();
  result.check(calibration.acceptance_rate ==
                       traced->result.calibration.acceptance_rate &&
                   calibration.posterior_configs ==
                       traced->result.posterior_configs,
               "stand-alone calibration reproduces the cycle's chain");
  const double iterations = static_cast<double>(
      base.mcmc.burn_in + base.mcmc.samples * base.mcmc.thin);
  result.metric("emulator.fit_s", fit_s, "s");
  result.metric("calibration.calibrate_s", calibrate_s, "s");
  result.metric("calibration.s_per_iteration", calibrate_s / iterations, "s");
  result.metric("calibration.acceptance_rate",
                traced->result.calibration.acceptance_rate, "ratio");
  result.metric("derived.speedup_2", median(serial_s) / median(parallel_s),
                "ratio");
  result.metric("derived.trace_overhead", median(traced_s) / median(parallel_s),
                "ratio");
}

// ---------------------------------------------------------------------------
// Scenario wave.

/// Logs set up per setup_s sample: one wave's own set-up (parse, plan,
/// construct the service) takes well under a millisecond, too short to
/// time steadily, so setup_s times a batch of seeded waves.
constexpr std::size_t kWaveSetupBatch = 1024;

void wave_workload(const Options& opt, Result& result) {
  const std::size_t jobs = opt.degree;
  // The batch's logs are generated once, outside the timer: setup_s times
  // only the program's calls. One batch runs before the loop and one in
  // each loop pass, so the median spans the whole run.
  std::vector<std::string> setup_logs;
  for (std::size_t b = 0; b < kWaveSetupBatch; ++b) {
    setup_logs.push_back(wave_log(derive(opt.seed, b)));
  }
  std::vector<double> setup;
  auto setup_batch = [&] {
    std::size_t units = 0, workers = 0;
    setup.push_back(timed([&] {
      for (const std::string& text : setup_logs) {
        const auto requests = service::parse_request_log(text);
        units += service::plan_requests(requests).units.size();
        const service::ScenarioService fresh{service::ServiceConfig{}};
        workers += fresh.config().logical_workers;
      }
    }));
    result.check(units == 14 * kWaveSetupBatch &&
                     workers == 4 * kWaveSetupBatch,
                 "every set-up wave plans 14 units for the default 4 "
                 "logical workers");
  };
  setup_batch();
  const std::string log = wave_log(opt.seed);
  const auto requests = service::parse_request_log(log);
  std::printf("# inputs: %zu requests, log %zu bytes\n", requests.size(),
              log.size());

  std::optional<service::ServiceOutcome> reference;
  std::map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    index_of[requests[i].id] = i;
  }
  struct WaveRun {
    double seconds = 0.0;
    double warm_s = 0.0;
    service::ServiceOutcome cold;
    service::ServiceOutcome warm;
    /// Traced runs: the session's exec busy time and counters after the
    /// cold wave, before the warm replay adds its own.
    double busy_s = 0.0;
    Counts counters;
  };
  auto run_wave = [&](std::size_t run_jobs, obs::Session* session) {
    WaveRun run;
    std::unique_ptr<service::ScenarioService> svc;
    run.seconds = timed([&] {
      service::ServiceConfig config;
      config.jobs = run_jobs;
      config.trace = session;
      svc = std::make_unique<service::ScenarioService>(config);
      run.cold = svc->replay_log(log);
    });
    result.step(session ? "traced" : "jobs=" + std::to_string(run_jobs),
                run.seconds);
    if (session != nullptr) {
      run.busy_s = exec_busy_seconds(session->trace());
      const Json counters = session->metrics().snapshot().at("counters");
      for (const auto& [name, value] : counters.as_object()) {
        run.counters[name] = value.as_double();
      }
    }
    run.warm_s = timed([&] { run.warm = svc->replay_log(log); });
    const service::ServiceReport& report = run.cold.report;
    if (!reference) {
      reference = run.cold;
      result.check(report.computed_units == 14 &&
                       report.deduped_requests == 4 &&
                       report.stage_shares == 8 && report.campaigns == 4,
                   "cold wave computes 14 units, dedups 4, shares 8 stages");
    } else {
      result.check(run.cold.responses == reference->responses &&
                       serialize(report) == serialize(reference->report),
                   "responses and report identical at jobs " +
                       std::to_string(run_jobs));
    }
    bool all_cached = run.warm.responses == run.cold.responses;
    for (const auto& record : run.warm.report.records) {
      all_cached = all_cached && record.status == service::ServeStatus::kCached;
    }
    result.check(all_cached, "warm replay is all cached and identical");
    return run;
  };

  std::vector<double> serial_s, parallel_s;
  if (!opt.trace) {
    run_loop(opt.seconds, 1, [&](std::size_t i) {
      for (int k = 0; k < 2; ++k) {
        const bool parallel = (i + k) % 2 == 1;
        (parallel ? parallel_s : serial_s)
            .push_back(run_wave(parallel ? jobs : 1, nullptr).seconds);
      }
      setup_batch();
    });
    report_end_to_end(median(setup), median(parallel_s),
                      median(serial_s), result);
    return;
  }

  std::vector<double> traced_s, warm_s, busy_s, steals;
  std::optional<Counts> first_counts;
  std::optional<WaveRun> traced;
  run_loop(opt.seconds, 1, [&](std::size_t) {
    parallel_s.push_back(run_wave(jobs, nullptr).seconds);
    obs::Session session(obs::SessionOptions{});
    traced = run_wave(jobs, &session);
    traced_s.push_back(traced->seconds);
    warm_s.push_back(traced->warm_s);
    busy_s.push_back(traced->busy_s);
    Counts counts = traced->counters;
    steals.push_back(counts["exec.steal"]);
    counts.erase("exec.steal");  // a scheduler artifact, not output
    serial_s.push_back(run_wave(1, nullptr).seconds);
    if (!first_counts) {
      first_counts = counts;
    } else {
      result.check(counts == *first_counts,
                   "traced count metrics repeat exactly");
    }
  });
  const std::size_t m = median_index(traced_s);
  const double farm_wall = static_cast<double>(jobs) * traced_s[m];
  result.not_run("synthpop",
                 "regions are built inside the service's artifact cache");
  result.not_run("network",
                 "regions are built inside the service's artifact cache");
  for (const char* layer : {"epihiper", "mpilite"}) {
    result.not_run(layer,
                   "replicates run serially inside the service's engines; "
                   "their SimOutput counters stay internal");
  }
  for (const char* layer :
       {"workflow.prior_stage_s", "workflow.finish_s",
        "workflow.serial_fraction", "emulator", "calibration"}) {
    result.not_run(layer, "cycle stages run inside service units");
  }
  result.metric("exec.tasks", first_counts->at("exec.tasks"), "count");
  result.metric("exec.steal", median(steals), "count");
  result.metric("exec.busy_s", busy_s[m], "s");
  result.metric("exec.idle_s", farm_wall - busy_s[m], "s");
  result.metric("exec.utilization", busy_s[m] / farm_wall, "ratio");
  result.check(busy_s[m] <= farm_wall, "exec.busy_s <= workers x run_s");

  // Planning layers, timed over many calls: one call is microseconds.
  constexpr std::size_t kCalls = 200;
  std::size_t parsed = 0, planned = 0;
  const double parse_s = timed([&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      parsed += service::parse_request_log(log).size();
    }
  }) / kCalls;
  const double plan_s = timed([&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      planned += service::plan_requests(requests).units.size();
    }
  }) / kCalls;
  result.step();
  result.check(parsed == kCalls * requests.size() && planned == kCalls * 14,
               "every parse yields the log's requests, every plan 14 units");
  result.check(parse_s + plan_s <= traced_s[m],
               "service.parse_s + service.plan_s <= run_s");
  const service::ServiceReport& report = traced->cold.report;
  result.metric("service.parse_s", parse_s, "s");
  result.metric("service.plan_s", plan_s, "s");
  result.metric("service.warm_replay_s", median(warm_s), "s");
  result.metric("service.units_computed", report.computed_units, "count");
  result.metric("service.requests_deduped", report.deduped_requests, "count");
  result.metric("service.requests_cached", traced->warm.report.cached_requests,
                "count");
  result.metric("service.stage_shares", report.stage_shares, "count");
  result.metric("service.cache_hit_rate",
                static_cast<double>(report.cache.total_hits()) /
                    static_cast<double>(report.cache.total_lookups()),
                "ratio");
  result.metric("service.cost_ratio",
                report.naive_cost_hours / report.actual_cost_hours, "ratio");

  // The economic nightly request, run stand-alone: the cluster DES and the
  // person databases behind one service unit.
  const auto nightly = std::find_if(
      requests.begin(), requests.end(), [](const auto& request) {
        return request.kind == service::RequestKind::kNightly &&
               request.design == "economic";
      });
  WorkflowReport workflow;
  const double nightly_s = timed([&] {
    NightlyWorkflow engine(service::to_nightly_config(*nightly));
    workflow = engine.run(service::to_nightly_design(*nightly));
  });
  result.step();
  result.check(serialize(workflow) ==
                   traced->cold.responses[index_of.at(nightly->id)],
               "stand-alone nightly run matches the service response");
  result.check(nightly_s <= median(serial_s),
               "workflow.nightly_run_s <= serial_run_s");
  result.metric("workflow.nightly_run_s", nightly_s, "s");
  result.metric("cluster.utilization", workflow.utilization, "ratio");
  result.metric("persondb.servers_started", workflow.db_servers_started,
                "count");
  result.metric("derived.speedup_2", median(serial_s) / median(parallel_s),
                "ratio");
  result.metric("derived.trace_overhead", median(traced_s) / median(parallel_s),
                "ratio");
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    EPI_REQUIRE(i + 1 < argc, "missing value for " << flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0' && value[0] != '-';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && opt.seconds > 0;
    } else if (flag == "--trace") {
      EPI_REQUIRE(value == "0" || value == "1", "--trace takes 0 or 1");
      opt.trace = value == "1";
      have_trace = true;
    } else {
      EPI_REQUIRE(false, "unknown flag " << flag);
    }
  }
  EPI_REQUIRE(opt.workload == "va_dense" ||
                  opt.workload == "calibration_cycle" ||
                  opt.workload == "scenario_wave",
              "unknown workload '" << opt.workload << "'");
  EPI_REQUIRE(have_seed && have_seconds && have_trace,
              "usage: perfbench --workload <name> --seed <n> "
              "--seconds <s> --trace <0|1>");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options opt = parse_args(argc, argv);
    // Production defaults only: every EPI_* knob must be unset.
    for (char** var = environ; *var != nullptr; ++var) {
      EPI_REQUIRE(std::strncmp(*var, "EPI_", 4) != 0,
                  "environment variable "
                      << std::string(*var).substr(0, std::strcspn(*var, "="))
                      << " is set; perfbench runs with every EPI_* cleared");
    }
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    const std::vector<int> cpus = bind_cpus();
    opt.degree = cpus.size();
    std::string cpu_list;
    for (int cpu : cpus) {
      cpu_list += (cpu_list.empty() ? "" : ",") + std::to_string(cpu);
    }
    std::printf("# perfbench workload=%s seed=%lu seconds=%g trace=%d\n",
                opt.workload.c_str(), static_cast<unsigned long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0);
    std::printf("# build=%s nproc=%ld cpus=%s ranks=%zu jobs=%zu "
                "backend=thread\n",
                PERFBENCH_BUILD_TYPE, nproc, cpu_list.c_str(), opt.degree,
                opt.degree);
    std::fflush(stdout);
    Result result;
    self_test_inputs(opt.seed, result);
    if (opt.workload == "va_dense") {
      va_workload(opt, result);
    } else if (opt.workload == "calibration_cycle") {
      calibration_workload(opt, result);
    } else {
      wave_workload(opt, result);
    }
    result.print();
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
