// Event-driven transmission core: event-queue ordering determinism, serial
// and parallel byte-identity of the adaptive mode against the broadcast
// reference (with and without interventions), quiescence tick-skipping,
// the adaptive broadcast/ghost switch, and EPI_EXCHANGE wiring.
#include "epihiper/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "epihiper/interventions.hpp"
#include "epihiper/parallel.hpp"
#include "epihiper/simulation.hpp"
#include "synthpop/generator.hpp"
#include "util/error.hpp"

namespace epi {
namespace {

// --- EventQueue unit tests ------------------------------------------------

std::vector<TimedEvent> drain(EventQueue& queue) {
  std::vector<TimedEvent> popped;
  TimedEvent event;
  while (queue.pop_due(EventQueue::kNever - 1, &event)) popped.push_back(event);
  return popped;
}

bool strictly_ordered(const std::vector<TimedEvent>& events) {
  for (std::size_t i = 1; i < events.size(); ++i) {
    const auto a = std::tuple(events[i - 1].tick, events[i - 1].kind,
                              events[i - 1].person);
    const auto b = std::tuple(events[i].tick, events[i].kind,
                              events[i].person);
    if (b < a) return false;
  }
  return true;
}

TEST(EventQueue, PopsInTickThenPersonOrder) {
  EventQueue queue;
  queue.schedule(5, EventKind::kProgression, 7);
  queue.schedule(3, EventKind::kProgression, 9);
  queue.schedule(3, EventKind::kProgression, 2);
  queue.schedule(8, EventKind::kProgression, 1);
  const auto popped = drain(queue);
  ASSERT_EQ(popped.size(), 4u);
  EXPECT_EQ(popped[0].tick, 3);
  EXPECT_EQ(popped[0].person, 2u);
  EXPECT_EQ(popped[1].tick, 3);
  EXPECT_EQ(popped[1].person, 9u);
  EXPECT_EQ(popped[2].tick, 5);
  EXPECT_EQ(popped[3].tick, 8);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.next_tick(), EventQueue::kNever);
}

TEST(EventQueue, PopOrderIndependentOfInsertionOrder) {
  // The pop sequence must be a pure function of the scheduled multiset:
  // insert the same events in many deterministic permutations and require
  // identical drains. (xorshift, fixed seed — no global RNG state.)
  std::vector<TimedEvent> events;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 200; ++i) {
    events.push_back(TimedEvent{static_cast<Tick>(next() % 40),
                                EventKind::kProgression,
                                static_cast<PersonId>(next() % 64)});
  }
  std::vector<std::vector<TimedEvent>> drains;
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = events.size(); i > 1; --i) {
      std::swap(events[i - 1], events[next() % i]);
    }
    EventQueue queue;
    for (const TimedEvent& e : events) queue.schedule(e.tick, e.kind, e.person);
    drains.push_back(drain(queue));
  }
  for (const auto& d : drains) {
    ASSERT_EQ(d.size(), events.size());
    EXPECT_TRUE(strictly_ordered(d));
    EXPECT_EQ(d[0].tick, drains[0][0].tick);
    for (std::size_t i = 0; i < d.size(); ++i) {
      EXPECT_EQ(d[i].tick, drains[0][i].tick) << "event " << i;
      EXPECT_EQ(d[i].person, drains[0][i].person) << "event " << i;
    }
  }
}

TEST(EventQueue, PopDueRespectsTickHorizon) {
  EventQueue queue;
  queue.schedule(4, EventKind::kProgression, 1);
  queue.schedule(6, EventKind::kProgression, 2);
  TimedEvent event;
  EXPECT_FALSE(queue.pop_due(3, &event));
  EXPECT_EQ(queue.next_tick(), 4);
  ASSERT_TRUE(queue.pop_due(4, &event));
  EXPECT_EQ(event.person, 1u);
  EXPECT_FALSE(queue.pop_due(5, &event));
  EXPECT_EQ(queue.next_tick(), 6);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.scheduled(), 2u);
}

// --- Simulation fixtures --------------------------------------------------

const SyntheticRegion& test_region() {
  static const SyntheticRegion region = [] {
    SynthPopConfig config;
    config.region = "DC";
    config.scale = 1.0 / 300.0;  // ~2350 persons
    config.seed = 99;
    return generate_region(config);
  }();
  return region;
}

SimulationConfig base_config(Tick ticks = 60) {
  SimulationConfig config;
  config.num_ticks = ticks;
  config.seed = 1234;
  config.seeds = {SeedSpec{0, 10, 0}};
  return config;
}

void expect_same_epidemic(const SimOutput& a, const SimOutput& b) {
  EXPECT_EQ(a.total_infections, b.total_infections);
  EXPECT_EQ(a.new_infections_per_tick, b.new_infections_per_tick);
  EXPECT_EQ(a.final_states, b.final_states);
  ASSERT_EQ(a.transitions.size(), b.transitions.size());
  for (std::size_t i = 0; i < a.transitions.size(); ++i) {
    EXPECT_EQ(a.transitions[i].tick, b.transitions[i].tick) << "event " << i;
    EXPECT_EQ(a.transitions[i].person, b.transitions[i].person)
        << "event " << i;
    EXPECT_EQ(a.transitions[i].exit_state, b.transitions[i].exit_state)
        << "event " << i;
    EXPECT_EQ(a.transitions[i].infector, b.transitions[i].infector)
        << "event " << i;
  }
}

// Parallel runs merge per-rank logs, so transitions compare as multisets.
void expect_same_epidemic_unordered(const SimOutput& a, const SimOutput& b) {
  EXPECT_EQ(a.total_infections, b.total_infections);
  EXPECT_EQ(a.new_infections_per_tick, b.new_infections_per_tick);
  EXPECT_EQ(a.final_states, b.final_states);
  ASSERT_EQ(a.transitions.size(), b.transitions.size());
  auto key = [](const TransitionEvent& e) {
    return std::tuple(e.tick, e.person, e.exit_state, e.infector);
  };
  std::vector<std::tuple<Tick, PersonId, HealthStateId, PersonId>> x, y;
  for (const auto& e : a.transitions) x.push_back(key(e));
  for (const auto& e : b.transitions) y.push_back(key(e));
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  EXPECT_EQ(x, y);
}

SimOutput run_mode(ExchangeMode mode,
                   const DiseaseModel& model = covid_model(), Tick ticks = 60,
                   const InterventionFactory& factory = nullptr) {
  SimulationConfig config = base_config(ticks);
  config.exchange = mode;
  return run_simulation(test_region().network, test_region().population,
                        model, config, factory);
}

// Slow-burning input: concurrent infectious stays below the adaptive
// density switch for the whole run, so every executed tick is a ghost tick.
DiseaseModel slow_model() {
  CovidParams params;
  params.transmissibility = 0.08;
  return covid_model(params);
}

// Runs `ranks`-way adaptive against the serial broadcast reference on the
// same input, checks that both define the same epidemic, and returns the
// parallel output for mode-specific checks.
SimOutput parallel_adaptive_vs_serial(int ranks, const DiseaseModel& model,
                                      Tick ticks,
                                      const InterventionFactory& factory =
                                          nullptr) {
  SimulationConfig config = base_config(ticks);
  config.exchange = ExchangeMode::kBroadcast;
  const SimOutput serial = run_simulation(
      test_region().network, test_region().population, model, config, factory);
  config.exchange = ExchangeMode::kAdaptive;
  const Partitioning parts =
      partition_network(test_region().network, static_cast<std::size_t>(ranks));
  SimOutput parallel =
      run_simulation_parallel(test_region().network, test_region().population,
                              model, config, parts, ranks, factory);
  expect_same_epidemic_unordered(parallel, serial);
  return parallel;
}

// --- Serial byte-identity -------------------------------------------------

// The adaptive mode must replay the broadcast reference byte for byte — the
// exact transition sequence, order included, not just the multiset. This is
// the RNG-ordering invariant both the frontier kernel and the event queue
// are built around.
TEST(EventCore, SerialAdaptiveMatchesBroadcastByteForByte) {
  const SimOutput adaptive = run_mode(ExchangeMode::kAdaptive);
  const SimOutput bcast = run_mode(ExchangeMode::kBroadcast);
  expect_same_epidemic(adaptive, bcast);
  EXPECT_GT(adaptive.events_scheduled, 0u);
  EXPECT_GT(adaptive.events_fired, 0u);
  EXPECT_EQ(adaptive.ticks_executed + adaptive.ticks_skipped, 60u);
  // The reference never skips and schedules no events.
  EXPECT_EQ(bcast.events_scheduled, 0u);
  EXPECT_EQ(bcast.ticks_skipped, 0u);
}

// The same byte-identity on the slow-burning input, where adaptive runs the
// frontier kernel on every executed tick.
TEST(ExchangeMode, SerialFrontierMatchesBroadcastByteForByte) {
  const SimOutput frontier = run_mode(ExchangeMode::kAdaptive, slow_model());
  const SimOutput bcast = run_mode(ExchangeMode::kBroadcast, slow_model());
  expect_same_epidemic(frontier, bcast);
  EXPECT_EQ(frontier.ghost_ticks, frontier.ticks_executed);
  // Serial runs exchange nothing.
  EXPECT_EQ(frontier.ghost_exchange_bytes, 0u);
  EXPECT_EQ(bcast.ghost_exchange_bytes, 0u);
  // The frontier evaluates strictly fewer edges than the full rescan once
  // any tick has a susceptible person without infectious contacts.
  std::uint64_t frontier_total = 0, rescan_total = 0;
  for (const auto v : frontier.frontier_edges_per_tick) frontier_total += v;
  for (const auto v : bcast.frontier_edges_per_tick) rescan_total += v;
  EXPECT_LT(frontier_total, rescan_total);
}

TEST(EventCore, SameSeedSameEventOrderAcrossRuns) {
  const SimOutput a = run_mode(ExchangeMode::kAdaptive);
  const SimOutput b = run_mode(ExchangeMode::kAdaptive);
  expect_same_epidemic(a, b);
  EXPECT_EQ(a.events_scheduled, b.events_scheduled);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.events_stale, b.events_stale);
  EXPECT_EQ(a.ticks_skipped, b.ticks_skipped);
}

// --- Parallel byte-identity (the CommChecker CI lane re-runs suites named
// *Parallel* or *Equivalence under EPI_MPILITE_CHECK=1) ---------------------

// The partition-invariance property for the production path, rank sweep
// including 1: parallel adaptive output matches the serial broadcast
// reference exactly, both on the default input and on the slow-burning one
// that keeps every rank on the ghost-list halo for the whole run.
class EventParallelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EventParallelEquivalence, MatchesSerialBroadcast) {
  const SimOutput parallel =
      parallel_adaptive_vs_serial(GetParam(), covid_model(), 40);
  EXPECT_EQ(parallel.ticks_executed + parallel.ticks_skipped, 40u);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, EventParallelEquivalence,
                         ::testing::Values(1, 2, 4, 8));

class GhostEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(GhostEquivalence, MatchesSerialBroadcast) {
  const int ranks = GetParam();
  const SimOutput parallel = parallel_adaptive_vs_serial(ranks, slow_model(), 60);
  EXPECT_EQ(parallel.ghost_ticks, parallel.ticks_executed);
  EXPECT_EQ(parallel.ghost_exchange_bytes > 0, ranks > 1);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, GhostEquivalence,
                         ::testing::Values(1, 2, 4, 8));

// On the same partitioning and the slow-burning input, the halo moves
// strictly fewer bytes than broadcasting the full infectious set every
// tick. Every executed tick is a ghost tick, so the whole-run totals
// compare the two exchanges directly; 200 ticks repay the one-time
// subscription handshake.
TEST(ExchangeMode, GhostDeltaMovesFewerBytesThanBroadcast) {
  const Partitioning parts = partition_network(test_region().network, 4);
  SimulationConfig config = base_config(200);
  config.exchange = ExchangeMode::kAdaptive;
  const SimOutput g =
      run_simulation_parallel(test_region().network, test_region().population,
                              slow_model(), config, parts, 4);
  config.exchange = ExchangeMode::kBroadcast;
  const SimOutput b =
      run_simulation_parallel(test_region().network, test_region().population,
                              slow_model(), config, parts, 4);
  expect_same_epidemic_unordered(g, b);
  EXPECT_EQ(g.ghost_ticks, g.ticks_executed);
  EXPECT_GT(g.ghost_exchange_bytes, 0u);
  EXPECT_EQ(b.ghost_exchange_bytes, 0u);
  EXPECT_LT(g.ghost_exchange_bytes, b.communication_bytes);
  EXPECT_LT(g.communication_bytes, b.communication_bytes);
}

// --- Quiescence skipping --------------------------------------------------

// Seeds landing late leave a long dormant prefix: the event core must jump
// over it without touching person state and still match the per-tick scan.
TEST(EventCore, SkipsDormantPrefixBeforeLateSeeds) {
  SimulationConfig scan_config = base_config(60);
  scan_config.seeds = {SeedSpec{0, 10, 30}};  // county 0, 10 seeds, tick 30
  scan_config.exchange = ExchangeMode::kBroadcast;
  SimulationConfig event_config = scan_config;
  event_config.exchange = ExchangeMode::kAdaptive;
  const DiseaseModel model = covid_model();
  const SimOutput scan = run_simulation(
      test_region().network, test_region().population, model, scan_config);
  const SimOutput event = run_simulation(
      test_region().network, test_region().population, model, event_config);
  expect_same_epidemic(event, scan);
  // Ticks 1..29 are globally dormant (tick 0 always executes); the dormant
  // gap must be skipped, not scanned.
  EXPECT_GE(event.ticks_skipped, 29u);
  EXPECT_EQ(event.ticks_executed + event.ticks_skipped, 60u);
  ASSERT_EQ(event.seconds_per_tick.size(), 60u);
  ASSERT_EQ(event.new_infections_per_tick.size(), 60u);
  ASSERT_EQ(event.memory_bytes_per_tick.size(), 60u);
}

// With zero transmissibility the seeds progress to a terminal state and the
// world goes quiet; the tail of the run must be skipped.
TEST(EventCore, SkipsQuiescentTailAfterEpidemicDies) {
  CovidParams params;
  params.transmissibility = 0.0;
  const DiseaseModel model = covid_model(params);
  SimulationConfig config = base_config(200);
  config.exchange = ExchangeMode::kAdaptive;
  const SimOutput out = run_simulation(test_region().network,
                                       test_region().population, model, config);
  EXPECT_EQ(out.total_infections, 0u);
  EXPECT_FALSE(out.transitions.empty());  // seeds still progress
  EXPECT_GT(out.ticks_skipped, 100u);
  EXPECT_EQ(out.ticks_executed + out.ticks_skipped, 200u);
}

// Scheduled-action intervention that knows its own quiescent range. Records
// the ticks it actually ran at so the test can pin the skip pattern.
class ScheduledProbe : public Intervention {
 public:
  ScheduledProbe(Tick action_tick, std::vector<Tick>* applied_at)
      : action_tick_(action_tick), applied_at_(applied_at) {}
  std::string name() const override { return "probe"; }
  void apply(Simulation& sim) override { applied_at_->push_back(sim.tick()); }
  Tick quiescent_until(const Simulation& sim) const override {
    return sim.tick() < action_tick_ ? action_tick_ : EventQueue::kNever;
  }

 private:
  Tick action_tick_;
  std::vector<Tick>* applied_at_;
};

TEST(EventCore, QuiescentUntilHintsGateInterventionWakeups) {
  // No seeds, no events: the only activity is the probe's scheduled action
  // at tick 20. The run must execute exactly tick 0 (first tick always
  // runs) and tick 20, skipping the other 28.
  std::vector<Tick> applied_at;
  SimulationConfig config = base_config(30);
  config.seeds.clear();
  config.exchange = ExchangeMode::kAdaptive;
  auto factory = [&applied_at] {
    return std::vector<std::shared_ptr<Intervention>>{
        std::make_shared<ScheduledProbe>(20, &applied_at)};
  };
  const SimOutput out =
      run_simulation(test_region().network, test_region().population,
                     covid_model(), config, factory);
  EXPECT_EQ(applied_at, (std::vector<Tick>{0, 20}));
  EXPECT_EQ(out.ticks_executed, 2u);
  EXPECT_EQ(out.ticks_skipped, 28u);
}

TEST(EventCore, DefaultInterventionHintBlocksSkipping) {
  // An intervention without a quiescent_until override may act every tick,
  // so its presence must pin the run to full per-tick execution.
  std::vector<Tick> applied_at;
  SimulationConfig config = base_config(30);
  config.seeds.clear();
  config.exchange = ExchangeMode::kAdaptive;
  auto factory = [] {
    return std::vector<std::shared_ptr<Intervention>>{
        std::make_shared<VoluntaryHomeIsolation>(
            VoluntaryHomeIsolation::Config{0.7, 14, 0})};
  };
  const SimOutput out =
      run_simulation(test_region().network, test_region().population,
                     covid_model(), config, factory);
  EXPECT_EQ(out.ticks_executed, 30u);
  EXPECT_EQ(out.ticks_skipped, 0u);
}

// --- Adaptive mode --------------------------------------------------------

InterventionFactory stacked_interventions() {
  return [] {
    return std::vector<std::shared_ptr<Intervention>>{
        std::make_shared<VoluntaryHomeIsolation>(
            VoluntaryHomeIsolation::Config{0.7, 14, 0}),
        std::make_shared<SchoolClosure>(SchoolClosure::Config{10, 60}),
        std::make_shared<StayAtHome>(StayAtHome::Config{20, 45, 0.6}),
        std::make_shared<ContactTracing>(
            ContactTracing::Config{2, 5, 0.5, 0.7, 10})};
  };
}

TEST(EventCore, SerialAdaptiveMatchesBroadcastUnderInterventions) {
  CovidParams params;
  // Hot enough that concurrent infectious crosses the adaptive density
  // threshold even with the intervention stack suppressing spread.
  params.transmissibility = 0.5;
  const DiseaseModel model = covid_model(params);
  const SimOutput adaptive =
      run_mode(ExchangeMode::kAdaptive, model, 50, stacked_interventions());
  const SimOutput bcast =
      run_mode(ExchangeMode::kBroadcast, model, 50, stacked_interventions());
  expect_same_epidemic(adaptive, bcast);
  // The epidemic starts sparse and grows past the density threshold, so
  // the run must genuinely exercise both kernels.
  EXPECT_GT(adaptive.ghost_ticks, 0u);
  EXPECT_GT(adaptive.broadcast_ticks, 0u);
}

// The hard case for the halo: contact tracing isolates *remote* persons
// (exercising the owner-routed isolation path) and isolation flips the
// advertised records of still-infectious persons (exercising the
// changed-record deltas, not just became/left). The partitioned adaptive
// run must match the serial broadcast reference on every output the
// epidemic defines: on a hot input across kernel switches in both
// directions, and on a milder one that stays on the halo throughout.
class AdaptiveParallelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(AdaptiveParallelEquivalence, MatchesSerialBroadcastUnderInterventions) {
  const int ranks = GetParam();
  CovidParams params;
  params.transmissibility = 0.5;
  const SimOutput parallel = parallel_adaptive_vs_serial(
      ranks, covid_model(params), 50, stacked_interventions());
  EXPECT_GT(parallel.ghost_ticks, 0u);
  EXPECT_GT(parallel.broadcast_ticks, 0u);
  EXPECT_EQ(parallel.ghost_exchange_bytes > 0, ranks > 1);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, AdaptiveParallelEquivalence,
                         ::testing::Values(1, 2, 4, 8));

class GhostHaloInterventionEquivalence
    : public ::testing::TestWithParam<int> {};

TEST_P(GhostHaloInterventionEquivalence, MatchesSerialBroadcast) {
  const int ranks = GetParam();
  CovidParams params;
  params.transmissibility = 0.25;
  const SimOutput parallel = parallel_adaptive_vs_serial(
      ranks, covid_model(params), 50, stacked_interventions());
  EXPECT_EQ(parallel.ghost_ticks, parallel.ticks_executed);
  EXPECT_EQ(parallel.ghost_exchange_bytes > 0, ranks > 1);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, GhostHaloInterventionEquivalence,
                         ::testing::Values(1, 2, 4, 8));

// --- EPI_EXCHANGE wiring --------------------------------------------------

TEST(EventCore, ExchangeModeNamesRoundTrip) {
  for (ExchangeMode mode : {ExchangeMode::kAdaptive, ExchangeMode::kBroadcast}) {
    EXPECT_EQ(parse_exchange_mode(exchange_mode_name(mode)), mode);
  }
  EXPECT_THROW(parse_exchange_mode("banana"), Error);
}

TEST(EventCore, EnvOverrideSetsDefaultExchangeMode) {
  ASSERT_EQ(::unsetenv("EPI_EXCHANGE"), 0);
  EXPECT_EQ(default_exchange_mode(), ExchangeMode::kAdaptive);
  EXPECT_EQ(SimulationConfig{}.exchange, ExchangeMode::kAdaptive);
  ASSERT_EQ(::setenv("EPI_EXCHANGE", "broadcast", 1), 0);
  EXPECT_EQ(default_exchange_mode(), ExchangeMode::kBroadcast);
  EXPECT_EQ(SimulationConfig{}.exchange, ExchangeMode::kBroadcast);
  // An explicit assignment always wins over the env default.
  SimulationConfig config;
  config.exchange = ExchangeMode::kAdaptive;
  EXPECT_EQ(config.exchange, ExchangeMode::kAdaptive);
  ASSERT_EQ(::unsetenv("EPI_EXCHANGE"), 0);
}

// The retired ghost-only and event-only modes are not silently mapped onto
// a surviving one: the error names the variable, the value and the modes
// that exist.
TEST(EventCore, RetiredExchangeModesRejected) {
  for (const char* retired : {"ghost", "event"}) {
    ASSERT_EQ(::setenv("EPI_EXCHANGE", retired, 1), 0);
    try {
      default_exchange_mode();
      ADD_FAILURE() << "EPI_EXCHANGE=" << retired << " was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("EPI_EXCHANGE='") + retired + "'"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("adaptive|broadcast"), std::string::npos) << what;
    }
    EXPECT_THROW(parse_exchange_mode(retired), Error);
  }
  ASSERT_EQ(::unsetenv("EPI_EXCHANGE"), 0);
}

}  // namespace
}  // namespace epi
