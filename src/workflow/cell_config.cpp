#include "workflow/cell_config.hpp"

#include "util/error.hpp"

namespace epi {

Json CellConfig::to_json() const {
  JsonObject o;
  o["region"] = region;
  o["cell"] = static_cast<std::int64_t>(cell);
  o["replicates"] = static_cast<std::int64_t>(replicates);
  o["numDays"] = static_cast<std::int64_t>(num_days);
  o["seed"] = static_cast<std::int64_t>(seed);
  JsonObject disease_json;
  disease_json["transmissibility"] = disease.transmissibility;
  disease_json["symptomaticFraction"] = disease.symptomatic_fraction;
  o["disease"] = Json(std::move(disease_json));
  o["interventions"] = Json(JsonArray(interventions.begin(), interventions.end()));
  JsonArray seeds_json;
  for (const SeedSpec& s : seeds) {
    JsonObject seed_obj;
    seed_obj["county"] = static_cast<std::int64_t>(s.county);
    seed_obj["count"] = static_cast<std::int64_t>(s.count);
    seed_obj["tick"] = static_cast<std::int64_t>(s.tick);
    seeds_json.emplace_back(std::move(seed_obj));
  }
  o["seeds"] = Json(std::move(seeds_json));
  return Json(std::move(o));
}

CellConfig CellConfig::from_json(const Json& j) {
  CellConfig c;
  c.region = j.at("region").as_string();
  c.cell = static_cast<std::uint32_t>(j.at("cell").as_int());
  c.replicates = static_cast<std::uint32_t>(j.at("replicates").as_int());
  c.num_days = static_cast<Tick>(j.at("numDays").as_int());
  c.seed = static_cast<std::uint64_t>(j.at("seed").as_int());
  c.disease.transmissibility = j.at("disease").at("transmissibility").as_double();
  c.disease.symptomatic_fraction =
      j.at("disease").at("symptomaticFraction").as_double();
  c.interventions = j.at("interventions").as_array();
  for (const Json& s : j.at("seeds").as_array()) {
    SeedSpec spec;
    spec.county = static_cast<std::uint16_t>(s.at("county").as_int());
    spec.count = static_cast<std::uint32_t>(s.at("count").as_int());
    spec.tick = static_cast<Tick>(s.at("tick").as_int());
    c.seeds.push_back(spec);
  }
  return c;
}

std::uint64_t CellConfig::byte_size() const {
  // A shipped cell carries the cell document plus its fully materialized
  // disease-model JSON (every cell's transmissibility / symptomatic
  // fraction yields a distinct model file, as in production EpiHiper runs).
  return to_json().dump().size() +
         covid_model(disease).to_json().dump(2).size();
}

std::vector<std::shared_ptr<Intervention>> CellConfig::make_interventions()
    const {
  std::vector<std::shared_ptr<Intervention>> out;
  out.reserve(interventions.size());
  for (const Json& spec : interventions) {
    out.push_back(intervention_from_json(spec));
  }
  return out;
}

SimulationConfig CellConfig::make_sim_config(std::uint32_t replicate) const {
  EPI_REQUIRE(replicate < replicates,
              "replicate " << replicate << " out of range for cell " << cell);
  SimulationConfig config;
  config.num_ticks = num_days;
  config.seed = seed;
  config.replicate = replicate;
  config.seeds = seeds;
  return config;
}

}  // namespace epi
