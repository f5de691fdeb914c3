#include "network/contact_network.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace epi {

namespace {
const char* const kActivityNames[kActivityTypeCount] = {
    "home", "work", "shopping", "other", "school", "college", "religion"};
}

const char* activity_name(ActivityType a) {
  const auto i = static_cast<std::size_t>(a);
  EPI_REQUIRE(i < kActivityTypeCount, "invalid ActivityType " << i);
  return kActivityNames[i];
}

ActivityType activity_from_name(const std::string& name) {
  for (int i = 0; i < kActivityTypeCount; ++i) {
    if (name == kActivityNames[i]) return static_cast<ActivityType>(i);
  }
  throw ConfigError("unknown activity type: " + name);
}

void ContactNetwork::build_out_edges() {
  // Counting sort of edges by source; visiting targets, and each target's
  // in-bucket, in ascending order visits e ascending, which leaves every
  // bucket ascending -- the frontier kernel relies on it to reproduce the
  // in-CSR scan's edge order exactly.
  out_offsets_.assign(static_cast<std::size_t>(node_count_) + 1, 0);
  for (const Contact& c : contacts_) {
    ++out_offsets_[static_cast<std::size_t>(c.source) + 1];
  }
  for (std::size_t u = 0; u < node_count_; ++u) {
    out_offsets_[u + 1] += out_offsets_[u];
  }
  out_edges_.resize(contacts_.size());
  std::vector<EdgeIndex> cursor(out_offsets_.begin(), out_offsets_.end() - 1);
  for (PersonId v = 0; v < node_count_; ++v) {
    EPI_REQUIRE(in_degree(v) <= std::numeric_limits<std::uint32_t>::max(),
                "in-degree of node " << v << " overflows the transpose");
    for (EdgeIndex e = in_begin(v); e < in_end(v); ++e) {
      out_edges_[cursor[contacts_[e].source]++] =
          OutEdge{v, static_cast<std::uint32_t>(e - in_begin(v))};
    }
  }
}

double ContactNetwork::contact_minutes(PersonId v) const {
  double total = 0.0;
  for (EdgeIndex e = in_begin(v); e < in_end(v); ++e) {
    total += contacts_[e].duration_minutes;
  }
  return total;
}

std::uint64_t ContactNetwork::content_hash() const {
  // FNV-1a over the raw edge array plus the node count; stable across
  // runs because finalize() orders edges deterministically.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  mix(&node_count_, sizeof(node_count_));
  if (!contacts_.empty()) {
    mix(contacts_.data(), contacts_.size() * sizeof(Contact));
  }
  return h;
}

void ContactNetwork::write_csv(std::ostream& out) const {
  out << "targetPID,sourcePID,targetActivity,sourceActivity,start,duration,weight\n";
  for (PersonId v = 0; v < node_count_; ++v) {
    for (EdgeIndex e = in_begin(v); e < in_end(v); ++e) {
      const Contact& c = contacts_[e];
      out << v << ',' << c.source << ','
          << kActivityNames[c.target_activity] << ','
          << kActivityNames[c.source_activity] << ',' << c.start_minute << ','
          << c.duration_minutes << ',' << c.weight << '\n';
    }
  }
}

ContactNetwork ContactNetwork::read_csv(std::istream& in, PersonId node_count) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const CsvTable table = parse_csv(buffer.str());
  // The CSV carries each directed edge explicitly; rebuild CSR directly
  // instead of via the builder (which would double them).
  std::vector<std::pair<PersonId, Contact>> edges;
  edges.reserve(table.row_count());
  for (std::size_t row = 0; row < table.row_count(); ++row) {
    const auto target = static_cast<PersonId>(table.cell_int(row, "targetPID"));
    EPI_REQUIRE(target < node_count, "targetPID out of range: " << target);
    Contact c;
    c.source = static_cast<PersonId>(table.cell_int(row, "sourcePID"));
    EPI_REQUIRE(c.source < node_count, "sourcePID out of range: " << c.source);
    c.target_activity = static_cast<std::uint8_t>(
        activity_from_name(table.cell(row, table.column("targetActivity"))));
    c.source_activity = static_cast<std::uint8_t>(
        activity_from_name(table.cell(row, table.column("sourceActivity"))));
    c.start_minute = static_cast<std::uint16_t>(table.cell_int(row, "start"));
    c.duration_minutes =
        static_cast<std::uint16_t>(table.cell_int(row, "duration"));
    c.weight = static_cast<float>(table.cell_double(row, "weight"));
    edges.emplace_back(target, c);
  }
  std::stable_sort(edges.begin(), edges.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ContactNetwork net;
  net.node_count_ = node_count;
  net.offsets_.assign(static_cast<std::size_t>(node_count) + 1, 0);
  net.contacts_.reserve(edges.size());
  for (const auto& [target, contact] : edges) {
    ++net.offsets_[static_cast<std::size_t>(target) + 1];
    net.contacts_.push_back(contact);
  }
  for (std::size_t v = 0; v < node_count; ++v) {
    net.offsets_[v + 1] += net.offsets_[v];
  }
  net.build_out_edges();
  return net;
}

namespace {
constexpr std::uint64_t kBinaryMagic = 0x45504948495052ULL;  // "EPIHIPR"
}

void ContactNetwork::write_binary(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ConfigError("cannot write network binary: " + path);
  const std::uint64_t magic = kBinaryMagic;
  const std::uint64_t nodes = node_count_;
  const std::uint64_t edges = contacts_.size();
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&nodes), sizeof(nodes));
  out.write(reinterpret_cast<const char*>(&edges), sizeof(edges));
  out.write(reinterpret_cast<const char*>(offsets_.data()),
            static_cast<std::streamsize>(offsets_.size() * sizeof(EdgeIndex)));
  out.write(reinterpret_cast<const char*>(contacts_.data()),
            static_cast<std::streamsize>(contacts_.size() * sizeof(Contact)));
  EPI_REQUIRE(out.good(), "short write to " << path);
}

ContactNetwork ContactNetwork::read_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot read network binary: " + path);
  std::uint64_t magic = 0, nodes = 0, edges = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&nodes), sizeof(nodes));
  in.read(reinterpret_cast<char*>(&edges), sizeof(edges));
  EPI_REQUIRE(in.good() && magic == kBinaryMagic,
              "not an EpiScale network binary: " << path);
  ContactNetwork net;
  net.node_count_ = static_cast<PersonId>(nodes);
  net.offsets_.resize(nodes + 1);
  net.contacts_.resize(edges);
  in.read(reinterpret_cast<char*>(net.offsets_.data()),
          static_cast<std::streamsize>(net.offsets_.size() * sizeof(EdgeIndex)));
  in.read(reinterpret_cast<char*>(net.contacts_.data()),
          static_cast<std::streamsize>(net.contacts_.size() * sizeof(Contact)));
  EPI_REQUIRE(in.good(), "truncated network binary: " << path);
  // The transpose build trusts the CSR: offsets must tile the edge array
  // and every source must be a node.
  EPI_REQUIRE(net.offsets_.front() == 0 && net.offsets_.back() == edges,
              "network binary offsets do not span its " << edges
                                                        << " edges: " << path);
  for (std::size_t v = 0; v < nodes; ++v) {
    EPI_REQUIRE(net.offsets_[v] <= net.offsets_[v + 1],
                "network binary offsets decrease at node " << v << ": "
                                                           << path);
  }
  for (const Contact& c : net.contacts_) {
    EPI_REQUIRE(c.source < nodes,
                "network binary source out of range: " << c.source << ": "
                                                       << path);
  }
  net.build_out_edges();
  return net;
}

ContactNetworkBuilder::ContactNetworkBuilder(PersonId node_count)
    : node_count_(node_count) {}

void ContactNetworkBuilder::add_contact(PersonId u, PersonId v,
                                        std::uint16_t start_minute,
                                        std::uint16_t duration_minutes,
                                        ActivityType u_activity,
                                        ActivityType v_activity, float weight) {
  EPI_REQUIRE(u < node_count_ && v < node_count_,
              "contact endpoint out of range: " << u << ", " << v);
  EPI_REQUIRE(u != v, "self-contact not allowed: " << u);
  Contact to_v;
  to_v.source = u;
  to_v.start_minute = start_minute;
  to_v.duration_minutes = duration_minutes;
  to_v.source_activity = static_cast<std::uint8_t>(u_activity);
  to_v.target_activity = static_cast<std::uint8_t>(v_activity);
  to_v.weight = weight;
  pending_.push_back({v, to_v});

  Contact to_u = to_v;
  to_u.source = v;
  to_u.source_activity = static_cast<std::uint8_t>(v_activity);
  to_u.target_activity = static_cast<std::uint8_t>(u_activity);
  pending_.push_back({u, to_u});
  ++undirected_count_;
}

ContactNetwork ContactNetworkBuilder::finalize() && {
  std::stable_sort(
      pending_.begin(), pending_.end(),
      [](const PendingEdge& a, const PendingEdge& b) { return a.target < b.target; });
  ContactNetwork net;
  net.node_count_ = node_count_;
  net.offsets_.assign(static_cast<std::size_t>(node_count_) + 1, 0);
  net.contacts_.reserve(pending_.size());
  for (const auto& edge : pending_) {
    ++net.offsets_[static_cast<std::size_t>(edge.target) + 1];
    net.contacts_.push_back(edge.contact);
  }
  for (std::size_t v = 0; v < node_count_; ++v) {
    net.offsets_[v + 1] += net.offsets_[v];
  }
  pending_.clear();
  net.build_out_edges();
  return net;
}

NetworkStats compute_stats(const ContactNetwork& network) {
  NetworkStats stats;
  stats.nodes = network.node_count();
  stats.directed_edges = network.edge_count();
  stats.undirected_contacts = network.contact_count();
  std::uint64_t degree_sum = 0;
  for (PersonId v = 0; v < network.node_count(); ++v) {
    const std::uint64_t d = network.in_degree(v);
    degree_sum += d;
    stats.max_degree = std::max(stats.max_degree, d);
    if (d == 0) ++stats.isolated_nodes;
  }
  stats.mean_degree = stats.nodes == 0
                          ? 0.0
                          : static_cast<double>(degree_sum) /
                                static_cast<double>(stats.nodes);
  for (EdgeIndex e = 0; e < network.edge_count(); ++e) {
    ++stats.edges_by_context[network.contact(e).target_activity];
  }
  return stats;
}

}  // namespace epi
