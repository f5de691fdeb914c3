#include "epihiper/interventions.hpp"

#include <gtest/gtest.h>

#include "epihiper/parallel.hpp"
#include "synthpop/generator.hpp"
#include "util/error.hpp"

namespace epi {
namespace {

const SyntheticRegion& test_region() {
  static const SyntheticRegion region = [] {
    SynthPopConfig config;
    config.region = "DC";
    config.scale = 1.0 / 300.0;
    config.seed = 99;
    return generate_region(config);
  }();
  return region;
}

SimulationConfig base_config(Tick ticks = 80) {
  SimulationConfig config;
  config.num_ticks = ticks;
  config.seed = 4321;
  config.seeds = {SeedSpec{0, 10, 0}};
  return config;
}

std::uint64_t infections_with(
    const std::function<std::vector<std::shared_ptr<Intervention>>()>& factory,
    Tick ticks = 80, double tau = 0.22) {
  CovidParams params;
  params.transmissibility = tau;
  const DiseaseModel model = covid_model(params);
  const SimOutput out =
      run_simulation(test_region().network, test_region().population, model,
                     base_config(ticks), factory);
  return out.total_infections;
}

TEST(Interventions, BaselineOutbreakIsLarge) {
  // Sanity anchor for the reduction tests below.
  EXPECT_GT(infections_with(nullptr), 200u);
}

TEST(Interventions, VhiReducesInfections) {
  const auto baseline = infections_with(nullptr);
  const auto with_vhi = infections_with([] {
    return std::vector<std::shared_ptr<Intervention>>{
        std::make_shared<VoluntaryHomeIsolation>(
            VoluntaryHomeIsolation::Config{0.9, 14, 0})};
  });
  EXPECT_LT(with_vhi, baseline);
}

TEST(Interventions, SchoolClosureCutsSchoolTransmission) {
  CovidParams params;
  params.transmissibility = 0.22;
  const DiseaseModel model = covid_model(params);
  const SimOutput out = run_simulation(
      test_region().network, test_region().population, model, base_config(80),
      [] {
        return std::vector<std::shared_ptr<Intervention>>{
            std::make_shared<SchoolClosure>(SchoolClosure::Config{0, 1 << 30})};
      });
  // With schools closed from tick 0, no transmission may occur on a
  // school-context edge.
  const ContactNetwork& net = test_region().network;
  for (const auto& event : out.transitions) {
    if (event.infector == kNoPerson) continue;
    for (EdgeIndex e = net.in_begin(event.person); e < net.in_end(event.person);
         ++e) {
      const Contact& c = net.contact(e);
      if (c.source != event.infector) continue;
      // The infecting edge is ambiguous if multiple edges connect the
      // pair; assert that at least one non-school edge exists.
      const bool school_edge =
          c.target_activity == static_cast<std::uint8_t>(ActivityType::kSchool) ||
          c.source_activity == static_cast<std::uint8_t>(ActivityType::kSchool) ||
          c.target_activity == static_cast<std::uint8_t>(ActivityType::kCollege) ||
          c.source_activity == static_cast<std::uint8_t>(ActivityType::kCollege);
      if (!school_edge) goto next_event;
    }
    FAIL() << "transmission through closed school context";
  next_event:;
  }
}

TEST(Interventions, StayAtHomeStrongerWithCompliance) {
  auto sh_factory = [](double compliance) {
    return [compliance] {
      return std::vector<std::shared_ptr<Intervention>>{
          std::make_shared<StayAtHome>(StayAtHome::Config{10, 300, compliance})};
    };
  };
  const auto weak = infections_with(sh_factory(0.2));
  const auto strong = infections_with(sh_factory(0.9));
  EXPECT_LT(strong, weak);
}

TEST(Interventions, ReopeningRevivesSpread) {
  // SH forever vs SH ending with a full reopen: the reopened run infects
  // at least as many.
  const auto closed = infections_with([] {
    return std::vector<std::shared_ptr<Intervention>>{
        std::make_shared<StayAtHome>(StayAtHome::Config{10, 1 << 30, 0.8})};
  });
  const auto reopened = infections_with([] {
    return std::vector<std::shared_ptr<Intervention>>{
        std::make_shared<StayAtHome>(StayAtHome::Config{10, 40, 0.8}),
        std::make_shared<PartialReopening>(PartialReopening::Config{40, 1.0})};
  });
  EXPECT_GE(reopened, closed);
}

TEST(Interventions, PartialReopeningLevelMonotone) {
  auto ro_factory = [](double level) {
    return [level] {
      return std::vector<std::shared_ptr<Intervention>>{
          std::make_shared<StayAtHome>(StayAtHome::Config{5, 30, 0.9}),
          std::make_shared<PartialReopening>(
              PartialReopening::Config{30, level})};
    };
  };
  const auto quarter = infections_with(ro_factory(0.25), 100);
  const auto full = infections_with(ro_factory(1.0), 100);
  EXPECT_LE(quarter, full);
}

TEST(Interventions, TestAndIsolateReduces) {
  const auto baseline = infections_with(nullptr);
  const auto with_ta = infections_with([] {
    return std::vector<std::shared_ptr<Intervention>>{
        std::make_shared<TestAndIsolate>(TestAndIsolate::Config{0, 0.3, 14})};
  });
  EXPECT_LT(with_ta, baseline);
}

TEST(Interventions, ContactTracingReduces) {
  const auto baseline = infections_with(nullptr);
  const auto with_ct = infections_with([] {
    return std::vector<std::shared_ptr<Intervention>>{
        std::make_shared<ContactTracing>(
            ContactTracing::Config{1, 0, 0.9, 0.9, 14})};
  });
  EXPECT_LT(with_ct, baseline);
}

TEST(Interventions, DepthTwoTracesMorePeople) {
  auto run_ct = [&](int depth) {
    auto tracer = std::make_shared<ContactTracing>(
        ContactTracing::Config{depth, 0, 0.8, 0.8, 14});
    CovidParams params;
    params.transmissibility = 0.22;
    const DiseaseModel model = covid_model(params);
    run_simulation(test_region().network, test_region().population, model,
                   base_config(60), [&] {
                     return std::vector<std::shared_ptr<Intervention>>{tracer};
                   });
    return tracer->expansions();
  };
  const auto d1 = run_ct(1);
  const auto d2 = run_ct(2);
  EXPECT_GT(d2, d1);  // distance-2 touches many more nodes (Fig 7 bottom)
}

TEST(Interventions, InvalidDepthRejected) {
  EXPECT_THROW(ContactTracing(ContactTracing::Config{3, 0, 0.5, 0.5, 14}),
               Error);
  EXPECT_THROW(ContactTracing(ContactTracing::Config{0, 0, 0.5, 0.5, 14}),
               Error);
}

TEST(Interventions, PulsingShutdownAlternates) {
  CovidParams params;
  params.transmissibility = 0.22;
  const DiseaseModel model = covid_model(params);
  Simulation sim(test_region().network, test_region().population, model,
                 base_config(40));
  sim.add_intervention(std::make_shared<PulsingShutdown>(
      PulsingShutdown::Config{0, 5, 5, 0.8}));
  sim.run();
  // After 40 ticks the phase is (40 - 0) % 10 = 0 -> "on".
  EXPECT_FALSE(sim.stay_home_active());  // run() ended; last applied tick 39
}

TEST(Interventions, StackNamesMatchFig7) {
  const auto& names = intervention_stack_names();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names.front(), "base");
  EXPECT_EQ(names.back(), "base+D2CT");
  for (const auto& name : names) {
    const auto stack = make_intervention_stack(name);
    EXPECT_GE(stack.size(), 3u);  // base = VHI + SC + SH
  }
  EXPECT_THROW(make_intervention_stack("bogus"), Error);
}

TEST(Interventions, JsonFactoryBuildsEveryType) {
  for (const char* spec_text : {
           R"({"type": "VHI", "compliance": 0.8})",
           R"({"type": "SC", "start": 5, "end": 60})",
           R"({"type": "SH", "start": 10, "end": 50, "compliance": 0.7})",
           R"({"type": "RO", "reopenTick": 50, "level": 0.5})",
           R"({"type": "TA", "dailyDetection": 0.1})",
           R"({"type": "PS", "onDays": 7, "offDays": 7})",
           R"({"type": "D1CT"})",
           R"({"type": "D2CT", "traceCompliance": 0.9})",
       }) {
    const auto intervention = intervention_from_json(parse_json(spec_text));
    ASSERT_NE(intervention, nullptr) << spec_text;
  }
  EXPECT_THROW(intervention_from_json(parse_json(R"({"type": "XYZ"})")),
               ConfigError);
}

TEST(Interventions, JsonNamesMatchTypes) {
  EXPECT_EQ(intervention_from_json(parse_json(R"({"type": "D2CT"})"))->name(),
            "D2CT");
  EXPECT_EQ(intervention_from_json(parse_json(R"({"type": "VHI"})"))->name(),
            "VHI");
}

// Parallel equivalence with interventions active — the hard case: contact
// tracing crosses partitions, stay-home flags are rank-local.
class InterventionParallelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(InterventionParallelEquivalence, MatchesSerial) {
  const int ranks = GetParam();
  CovidParams params;
  params.transmissibility = 0.25;
  const DiseaseModel model = covid_model(params);
  const SimulationConfig config = base_config(50);
  auto factory = [] {
    return std::vector<std::shared_ptr<Intervention>>{
        std::make_shared<VoluntaryHomeIsolation>(
            VoluntaryHomeIsolation::Config{0.7, 14, 0}),
        std::make_shared<SchoolClosure>(SchoolClosure::Config{10, 60}),
        std::make_shared<StayAtHome>(StayAtHome::Config{20, 45, 0.6}),
        std::make_shared<ContactTracing>(
            ContactTracing::Config{2, 5, 0.5, 0.7, 10})};
  };
  const SimOutput serial =
      run_simulation(test_region().network, test_region().population, model,
                     config, factory);
  const Partitioning parts =
      partition_network(test_region().network, static_cast<std::size_t>(ranks));
  const SimOutput parallel = run_simulation_parallel(
      test_region().network, test_region().population, model, config, parts,
      ranks, factory);
  EXPECT_EQ(parallel.total_infections, serial.total_infections);
  EXPECT_EQ(parallel.final_states, serial.final_states);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, InterventionParallelEquivalence,
                         ::testing::Values(2, 4));

}  // namespace
}  // namespace epi
