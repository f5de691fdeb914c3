#include "network/partition.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace epi {

Partitioning::Partitioning(std::vector<Partition> parts)
    : parts_(std::move(parts)) {
  EPI_REQUIRE(!parts_.empty(), "partitioning needs at least one part");
  for (std::size_t i = 1; i < parts_.size(); ++i) {
    EPI_REQUIRE(parts_[i].node_begin == parts_[i - 1].node_end,
                "partitions must tile the node range");
    EPI_REQUIRE(parts_[i].edge_begin == parts_[i - 1].edge_end,
                "partitions must tile the edge range");
  }
}

std::size_t Partitioning::partition_of(PersonId v) const {
  const auto it = std::upper_bound(
      parts_.begin(), parts_.end(), v,
      [](PersonId node, const Partition& p) { return node < p.node_end; });
  EPI_REQUIRE(it != parts_.end() && v >= it->node_begin,
              "node " << v << " not covered by partitioning");
  return static_cast<std::size_t>(it - parts_.begin());
}

double Partitioning::edge_imbalance() const {
  std::uint64_t total = 0;
  std::uint64_t worst = 0;
  for (const auto& p : parts_) {
    total += p.edge_count();
    worst = std::max(worst, p.edge_count());
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(parts_.size());
  return static_cast<double>(worst) / mean;
}

namespace {
constexpr std::uint64_t kPartitionMagic = 0x455049504152ULL;  // "EPIPAR"
}

void Partitioning::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ConfigError("cannot write partition cache: " + path);
  const std::uint64_t magic = kPartitionMagic;
  const std::uint64_t count = parts_.size();
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(parts_.data()),
            static_cast<std::streamsize>(parts_.size() * sizeof(Partition)));
  EPI_REQUIRE(out.good(), "short write to partition cache " << path);
}

Partitioning Partitioning::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw ConfigError("cannot read partition cache: " + path);
  const auto file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  std::uint64_t magic = 0, count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  EPI_REQUIRE(in.good() && magic == kPartitionMagic,
              "not a partition cache file: " << path);
  // Size the parts from the file, never from the header's count alone: a
  // corrupt count must not drive the allocation, and trailing bytes mean
  // the file is not what save() wrote.
  const std::uint64_t payload = file_bytes - 2 * sizeof(std::uint64_t);
  EPI_REQUIRE(count > 0 && payload % sizeof(Partition) == 0 &&
                  payload / sizeof(Partition) == count,
              "partition cache " << path << " declares " << count
                                 << " parts but holds " << payload
                                 << " payload bytes");
  std::vector<Partition> parts(count);
  in.read(reinterpret_cast<char*>(parts.data()),
          static_cast<std::streamsize>(payload));
  EPI_REQUIRE(in.good(), "truncated partition cache: " << path);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const Partition& part = parts[i];
    EPI_REQUIRE(part.node_begin <= part.node_end &&
                    part.edge_begin <= part.edge_end &&
                    (i == 0 || (part.node_begin == parts[i - 1].node_end &&
                                part.edge_begin == parts[i - 1].edge_end)),
                "partition cache " << path << ": part " << i
                                   << " does not tile the ranges");
  }
  return Partitioning(std::move(parts));
}

Partitioning partition_network(const ContactNetwork& network,
                               std::size_t num_partitions,
                               std::uint64_t epsilon) {
  EPI_REQUIRE(num_partitions > 0, "need at least one partition");
  EPI_REQUIRE(network.node_count() > 0, "cannot partition an empty network");
  num_partitions =
      std::min<std::size_t>(num_partitions, network.node_count());

  const std::uint64_t total_edges = network.edge_count();
  // The paper's threshold: E/P + eps. ceil so P parts always suffice.
  const std::uint64_t threshold =
      (total_edges + num_partitions - 1) / num_partitions + epsilon;

  std::vector<Partition> parts;
  Partition current;
  current.node_begin = 0;
  current.edge_begin = 0;
  std::uint64_t edges_in_current = 0;
  for (PersonId v = 0; v < network.node_count(); ++v) {
    const std::uint64_t d = network.in_degree(v);
    // Close the current partition when adding v would exceed the threshold
    // (but never emit an empty partition, and never exceed P-1 closes).
    if (edges_in_current > 0 && edges_in_current + d > threshold &&
        parts.size() + 1 < num_partitions) {
      current.node_end = v;
      current.edge_end = network.in_begin(v);
      parts.push_back(current);
      current.node_begin = v;
      current.edge_begin = network.in_begin(v);
      edges_in_current = 0;
    }
    edges_in_current += d;
  }
  current.node_end = network.node_count();
  current.edge_end = total_edges;
  parts.push_back(current);
  return Partitioning(std::move(parts));
}

std::string partition_cache_filename(const ContactNetwork& network,
                                     std::size_t num_partitions,
                                     std::uint64_t epsilon) {
  std::ostringstream oss;
  oss << "partition_" << std::hex << network.content_hash() << std::dec << "_p"
      << num_partitions << "_e" << epsilon << ".bin";
  return oss.str();
}

namespace {

constexpr std::uint64_t kChunkMagic = 0x455049434855ULL;  // "EPICHU"

std::string chunk_filename(std::uint64_t network_hash, std::size_t index) {
  std::ostringstream oss;
  oss << "chunk_" << std::hex << network_hash << std::dec << "_" << index
      << ".bin";
  return oss.str();
}

}  // namespace

std::vector<std::string> write_partition_chunks(const ContactNetwork& network,
                                                const Partitioning& partitioning,
                                                const std::string& directory) {
  namespace fs = std::filesystem;
  fs::create_directories(directory);
  std::vector<std::string> paths;
  paths.reserve(partitioning.size());
  const std::uint64_t network_hash = network.content_hash();
  for (std::size_t i = 0; i < partitioning.size(); ++i) {
    const Partition& part = partitioning.part(i);
    const fs::path path = fs::path(directory) / chunk_filename(network_hash, i);
    std::ofstream out(path, std::ios::binary);
    if (!out) throw ConfigError("cannot write chunk: " + path.string());
    const std::uint64_t magic = kChunkMagic;
    const std::uint64_t count = part.edge_count();
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    for (EdgeIndex e = part.edge_begin; e < part.edge_end; ++e) {
      const Contact& c = network.contact(e);
      out.write(reinterpret_cast<const char*>(&c), sizeof(Contact));
    }
    EPI_REQUIRE(out.good(), "short write to chunk " << path.string());
    paths.push_back(path.string());
  }
  return paths;
}

std::vector<Contact> read_partition_chunk(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot read chunk: " + path);
  std::uint64_t magic = 0, count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  EPI_REQUIRE(in.good() && magic == kChunkMagic, "not a chunk file: " << path);
  std::vector<Contact> contacts(count);
  in.read(reinterpret_cast<char*>(contacts.data()),
          static_cast<std::streamsize>(count * sizeof(Contact)));
  EPI_REQUIRE(in.good(), "truncated chunk: " << path);
  return contacts;
}

bool partition_chunks_cached(const ContactNetwork& network,
                             const Partitioning& partitioning,
                             const std::string& directory) {
  namespace fs = std::filesystem;
  const std::uint64_t network_hash = network.content_hash();
  for (std::size_t i = 0; i < partitioning.size(); ++i) {
    if (!fs::exists(fs::path(directory) / chunk_filename(network_hash, i))) {
      return false;
    }
  }
  return true;
}

std::vector<PersonId> compute_ghost_sources(const ContactNetwork& network,
                                            const Partitioning& partitioning,
                                            std::size_t part_index) {
  EPI_REQUIRE(part_index < partitioning.size(),
              "partition index " << part_index << " out of range");
  const Partition& part = partitioning.part(part_index);
  std::vector<PersonId> ghosts;
  for (EdgeIndex e = part.edge_begin; e < part.edge_end; ++e) {
    const PersonId source = network.contact(e).source;
    if (source < part.node_begin || source >= part.node_end) {
      ghosts.push_back(source);
    }
  }
  std::sort(ghosts.begin(), ghosts.end());
  ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
  return ghosts;
}

Partitioning partition_with_cache(const ContactNetwork& network,
                                  std::size_t num_partitions,
                                  std::uint64_t epsilon,
                                  const std::string& cache_dir,
                                  bool* cache_hit) {
  namespace fs = std::filesystem;
  fs::create_directories(cache_dir);
  const fs::path path =
      fs::path(cache_dir) /
      partition_cache_filename(network, num_partitions, epsilon);
  if (fs::exists(path)) {
    if (cache_hit != nullptr) *cache_hit = true;
    Partitioning cached = Partitioning::load(path.string());
    // load() proved the parts tile; they must also cover exactly this
    // network and cut it at node boundaries of its in-edge CSR, or edge
    // ranges reach past edge_count() in compute_ghost_sources/Simulation.
    const std::vector<Partition>& parts = cached.parts();
    EPI_REQUIRE(parts.front().node_begin == 0 &&
                    parts.front().edge_begin == 0 &&
                    parts.back().node_end == network.node_count() &&
                    parts.back().edge_end == network.edge_count(),
                "partition cache " << path.string()
                                   << " does not cover the network");
    for (std::size_t i = 0; i < parts.size(); ++i) {
      EPI_REQUIRE(parts[i].edge_begin == network.in_begin(parts[i].node_begin),
                  "partition cache " << path.string() << ": part " << i
                                     << " splits a node's in-edges");
    }
    return cached;
  }
  if (cache_hit != nullptr) *cache_hit = false;
  Partitioning result = partition_network(network, num_partitions, epsilon);
  result.save(path.string());
  return result;
}

}  // namespace epi
