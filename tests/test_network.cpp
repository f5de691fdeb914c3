#include "network/contact_network.hpp"
#include "network/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "util/error.hpp"

namespace epi {
namespace {

ContactNetwork make_line_network(PersonId n) {
  // 0-1-2-...-(n-1) path with varied contexts.
  ContactNetworkBuilder builder(n);
  for (PersonId i = 0; i + 1 < n; ++i) {
    builder.add_contact(i, i + 1, 540, 60,
                        i % 2 == 0 ? ActivityType::kWork : ActivityType::kHome,
                        ActivityType::kShopping, 1.0f + static_cast<float>(i));
  }
  return std::move(builder).finalize();
}

TEST(ActivityType, NamesRoundTrip) {
  for (int i = 0; i < kActivityTypeCount; ++i) {
    const auto type = static_cast<ActivityType>(i);
    EXPECT_EQ(activity_from_name(activity_name(type)), type);
  }
  EXPECT_THROW(activity_from_name("gym"), ConfigError);
}

TEST(ContactNetwork, BuilderCreatesBothDirections) {
  ContactNetworkBuilder builder(3);
  builder.add_contact(0, 2, 100, 30, ActivityType::kWork,
                      ActivityType::kShopping);
  const ContactNetwork net = std::move(builder).finalize();
  EXPECT_EQ(net.node_count(), 3u);
  EXPECT_EQ(net.edge_count(), 2u);
  EXPECT_EQ(net.contact_count(), 1u);
  // Edge into 2 comes from 0 and carries 0's activity as source context.
  ASSERT_EQ(net.in_degree(2), 1u);
  const Contact& into2 = net.contact(net.in_begin(2));
  EXPECT_EQ(into2.source, 0u);
  EXPECT_EQ(into2.source_activity,
            static_cast<std::uint8_t>(ActivityType::kWork));
  EXPECT_EQ(into2.target_activity,
            static_cast<std::uint8_t>(ActivityType::kShopping));
  // Mirror edge into 0 swaps the contexts.
  const Contact& into0 = net.contact(net.in_begin(0));
  EXPECT_EQ(into0.source, 2u);
  EXPECT_EQ(into0.source_activity,
            static_cast<std::uint8_t>(ActivityType::kShopping));
  EXPECT_EQ(into0.target_activity,
            static_cast<std::uint8_t>(ActivityType::kWork));
}

TEST(ContactNetwork, RejectsInvalidContacts) {
  ContactNetworkBuilder builder(2);
  EXPECT_THROW(builder.add_contact(0, 0, 0, 10, ActivityType::kHome,
                                   ActivityType::kHome),
              Error);
  EXPECT_THROW(builder.add_contact(0, 5, 0, 10, ActivityType::kHome,
                                   ActivityType::kHome),
              Error);
}

TEST(ContactNetwork, CsrDegreesConsistent) {
  const ContactNetwork net = make_line_network(10);
  EXPECT_EQ(net.edge_count(), 18u);  // 9 undirected contacts
  EXPECT_EQ(net.in_degree(0), 1u);
  EXPECT_EQ(net.in_degree(5), 2u);
  std::uint64_t total = 0;
  for (PersonId v = 0; v < net.node_count(); ++v) total += net.in_degree(v);
  EXPECT_EQ(total, net.edge_count());
}

TEST(ContactNetwork, TargetOfInvertsCsr) {
  const ContactNetwork net = make_line_network(8);
  for (PersonId v = 0; v < net.node_count(); ++v) {
    for (EdgeIndex e = net.in_begin(v); e < net.in_end(v); ++e) {
      EXPECT_EQ(net.target_of(e), v);
    }
  }
}

TEST(ContactNetwork, ContactMinutes) {
  const ContactNetwork net = make_line_network(3);
  EXPECT_DOUBLE_EQ(net.contact_minutes(1), 120.0);  // two 60-minute edges
}

TEST(ContactNetwork, ContentHashStableAndSensitive) {
  const ContactNetwork a = make_line_network(6);
  const ContactNetwork b = make_line_network(6);
  const ContactNetwork c = make_line_network(7);
  EXPECT_EQ(a.content_hash(), b.content_hash());
  EXPECT_NE(a.content_hash(), c.content_hash());
}

TEST(ContactNetwork, CsvRoundTrip) {
  const ContactNetwork net = make_line_network(5);
  std::stringstream buffer;
  net.write_csv(buffer);
  const ContactNetwork restored = ContactNetwork::read_csv(buffer, 5);
  EXPECT_EQ(restored.edge_count(), net.edge_count());
  EXPECT_EQ(restored.content_hash(), net.content_hash());
}

TEST(ContactNetwork, BinaryRoundTrip) {
  const ContactNetwork net = make_line_network(12);
  const std::string path = "/tmp/episcale_test_net.bin";
  net.write_binary(path);
  const ContactNetwork restored = ContactNetwork::read_binary(path);
  EXPECT_EQ(restored.node_count(), net.node_count());
  EXPECT_EQ(restored.content_hash(), net.content_hash());
  std::filesystem::remove(path);
}

TEST(ContactNetwork, BinaryRejectsGarbage) {
  const std::string path = "/tmp/episcale_test_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a network";
  }
  EXPECT_THROW(ContactNetwork::read_binary(path), Error);
  std::filesystem::remove(path);
}

TEST(NetworkStats, CountsContextsAndDegrees) {
  ContactNetworkBuilder builder(4);
  builder.add_contact(0, 1, 0, 600, ActivityType::kHome, ActivityType::kHome);
  builder.add_contact(1, 2, 540, 240, ActivityType::kWork, ActivityType::kWork);
  const ContactNetwork net = std::move(builder).finalize();
  const NetworkStats stats = compute_stats(net);
  EXPECT_EQ(stats.nodes, 4u);
  EXPECT_EQ(stats.undirected_contacts, 2u);
  EXPECT_EQ(stats.isolated_nodes, 1u);  // node 3
  EXPECT_EQ(stats.max_degree, 2u);      // node 1
  EXPECT_EQ(stats.edges_by_context[static_cast<int>(ActivityType::kHome)], 2u);
  EXPECT_EQ(stats.edges_by_context[static_cast<int>(ActivityType::kWork)], 2u);
}

// ---------------------------------------------------------- partition ----

TEST(Partition, TilesNodesAndEdges) {
  const ContactNetwork net = make_line_network(100);
  const Partitioning parts = partition_network(net, 4);
  EXPECT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts.part(0).node_begin, 0u);
  EXPECT_EQ(parts.parts().back().node_end, 100u);
  EXPECT_EQ(parts.parts().back().edge_end, net.edge_count());
  for (std::size_t i = 1; i < parts.size(); ++i) {
    EXPECT_EQ(parts.part(i).node_begin, parts.part(i - 1).node_end);
    EXPECT_EQ(parts.part(i).edge_begin, parts.part(i - 1).edge_end);
  }
}

TEST(Partition, AllInEdgesOfNodeStayTogether) {
  const ContactNetwork net = make_line_network(50);
  const Partitioning parts = partition_network(net, 7);
  for (PersonId v = 0; v < net.node_count(); ++v) {
    const std::size_t owner = parts.partition_of(v);
    EXPECT_GE(net.in_begin(v), parts.part(owner).edge_begin);
    EXPECT_LE(net.in_end(v), parts.part(owner).edge_end);
  }
}

TEST(Partition, BalancedWithinThreshold) {
  const ContactNetwork net = make_line_network(1000);
  const Partitioning parts = partition_network(net, 8);
  // Path graph has max in-degree 2; imbalance should be tiny.
  EXPECT_LT(parts.edge_imbalance(), 1.1);
}

TEST(Partition, SinglePartition) {
  const ContactNetwork net = make_line_network(10);
  const Partitioning parts = partition_network(net, 1);
  EXPECT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts.part(0).edge_count(), net.edge_count());
}

TEST(Partition, MorePartitionsThanNodesClamps) {
  const ContactNetwork net = make_line_network(3);
  const Partitioning parts = partition_network(net, 64);
  EXPECT_LE(parts.size(), 3u);
}

TEST(Partition, PartitionOfCoversAllNodes) {
  const ContactNetwork net = make_line_network(30);
  const Partitioning parts = partition_network(net, 5);
  for (PersonId v = 0; v < 30; ++v) {
    const std::size_t owner = parts.partition_of(v);
    EXPECT_GE(v, parts.part(owner).node_begin);
    EXPECT_LT(v, parts.part(owner).node_end);
  }
}

TEST(Partition, SaveLoadRoundTrip) {
  const ContactNetwork net = make_line_network(40);
  const Partitioning parts = partition_network(net, 3);
  const std::string path = "/tmp/episcale_test_partition.bin";
  parts.save(path);
  const Partitioning restored = Partitioning::load(path);
  ASSERT_EQ(restored.size(), parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(restored.part(i).node_begin, parts.part(i).node_begin);
    EXPECT_EQ(restored.part(i).edge_end, parts.part(i).edge_end);
  }
  std::filesystem::remove(path);
}

TEST(Partition, CacheHitSkipsRecomputation) {
  const ContactNetwork net = make_line_network(60);
  const std::string cache_dir = "/tmp/episcale_test_cache";
  std::filesystem::remove_all(cache_dir);
  bool hit = true;
  const Partitioning first = partition_with_cache(net, 4, 0, cache_dir, &hit);
  EXPECT_FALSE(hit);
  const Partitioning second = partition_with_cache(net, 4, 0, cache_dir, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(second.size(), first.size());
  // Different P -> different cache entry.
  const Partitioning third = partition_with_cache(net, 2, 0, cache_dir, &hit);
  EXPECT_FALSE(hit);
  std::filesystem::remove_all(cache_dir);
}

TEST(Partition, CacheKeyedByContent) {
  const ContactNetwork a = make_line_network(20);
  const ContactNetwork b = make_line_network(21);
  EXPECT_NE(partition_cache_filename(a, 4, 0),
            partition_cache_filename(b, 4, 0));
  EXPECT_NE(partition_cache_filename(a, 4, 0),
            partition_cache_filename(a, 5, 0));
  EXPECT_NE(partition_cache_filename(a, 4, 0),
            partition_cache_filename(a, 4, 9));
}

// Runs `load`, which must throw an epi::Error whose message names `path`.
template <typename Fn>
void expect_error_naming(Fn load, const std::string& path) {
  try {
    load();
    ADD_FAILURE() << "corrupt partition cache accepted: " << path;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

// Rewrites the file at `path` with its 8-byte part count replaced.
void overwrite_part_count(const std::string& path, std::uint64_t count) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(sizeof(std::uint64_t));
  file.write(reinterpret_cast<const char*>(&count), sizeof(count));
}

TEST(Partition, LoadRejectsCountTheFileCannotHold) {
  const ContactNetwork net = make_line_network(40);
  const std::string path = "/tmp/episcale_test_partition_count.bin";
  partition_network(net, 3).save(path);
  // A huge count must be refused before anything is allocated for it.
  overwrite_part_count(path, std::uint64_t{1} << 60);
  expect_error_naming([&] { Partitioning::load(path); }, path);
  overwrite_part_count(path, 2);
  expect_error_naming([&] { Partitioning::load(path); }, path);
  overwrite_part_count(path, 3);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.put('x');  // trailing byte
  }
  expect_error_naming([&] { Partitioning::load(path); }, path);
  std::filesystem::remove(path);
}

TEST(Partition, CacheRejectsPartsThatDoNotCoverTheNetwork) {
  const ContactNetwork net = make_line_network(60);
  const std::string cache_dir = "/tmp/episcale_test_cache_corrupt";
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);
  const std::string path =
      cache_dir + "/" + partition_cache_filename(net, 4, 0);
  // Parts of a smaller network: they tile, but stop short of this one.
  partition_network(make_line_network(30), 4).save(path);
  expect_error_naming([&] { partition_with_cache(net, 4, 0, cache_dir); },
                      path);
  // Parts that cover both ranges but cut through a node's in-edges.
  const std::uint64_t mid = net.in_begin(30) + 1;
  Partitioning({Partition{0, 30, 0, mid},
                Partition{30, 60, mid, net.edge_count()}})
      .save(path);
  expect_error_naming([&] { partition_with_cache(net, 4, 0, cache_dir); },
                      path);
  std::filesystem::remove_all(cache_dir);
}

TEST(PartitionChunks, RoundTripPerPartition) {
  const ContactNetwork net = make_line_network(60);
  const Partitioning parts = partition_network(net, 4);
  const std::string dir = "/tmp/episcale_test_chunks";
  std::filesystem::remove_all(dir);
  EXPECT_FALSE(partition_chunks_cached(net, parts, dir));
  const auto paths = write_partition_chunks(net, parts, dir);
  ASSERT_EQ(paths.size(), parts.size());
  EXPECT_TRUE(partition_chunks_cached(net, parts, dir));
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto contacts = read_partition_chunk(paths[i]);
    EXPECT_EQ(contacts.size(), parts.part(i).edge_count());
    total += contacts.size();
    // Chunk contents match the network's edge range exactly.
    for (std::size_t j = 0; j < contacts.size(); ++j) {
      EXPECT_EQ(contacts[j].source,
                net.contact(parts.part(i).edge_begin + j).source);
    }
  }
  EXPECT_EQ(total, net.edge_count());
  std::filesystem::remove_all(dir);
}

TEST(PartitionChunks, RejectsGarbageFile) {
  const std::string path = "/tmp/episcale_test_badchunk.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "nope";
  }
  EXPECT_THROW(read_partition_chunk(path), Error);
  std::filesystem::remove(path);
}

// Property sweep over partition counts: tiling + in-edge locality hold.
class PartitionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionSweep, InvariantsHold) {
  const ContactNetwork net = make_line_network(123);
  const Partitioning parts = partition_network(net, GetParam());
  std::uint64_t edge_total = 0;
  for (const Partition& p : parts.parts()) {
    EXPECT_LE(p.node_begin, p.node_end);
    edge_total += p.edge_count();
  }
  EXPECT_EQ(edge_total, net.edge_count());
}

INSTANTIATE_TEST_SUITE_P(Counts, PartitionSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 40, 123));

// --- Out-edge transpose (the frontier kernel's push index) ---------------

TEST(ContactNetwork, OutEdgeTransposeConsistent) {
  const ContactNetwork net = make_line_network(17);
  std::uint64_t total = 0;
  for (PersonId u = 0; u < net.node_count(); ++u) {
    const auto edges = net.out_edges_of(u);
    EXPECT_EQ(edges.size(), net.out_degree(u));
    total += edges.size();
    for (std::size_t i = 0; i < edges.size(); ++i) {
      // Every listed edge really is sourced at u...
      EXPECT_EQ(net.contact(edges[i]).source, u);
      // ...and buckets are ascending (the frontier sort relies on it).
      if (i > 0) {
        EXPECT_LT(edges[i - 1], edges[i]);
      }
    }
  }
  EXPECT_EQ(total, net.edge_count());
  // Inverse direction: every edge appears in its source's bucket.
  for (EdgeIndex e = 0; e < net.edge_count(); ++e) {
    const auto edges = net.out_edges_of(net.contact(e).source);
    EXPECT_TRUE(std::binary_search(edges.begin(), edges.end(), e));
  }
}

TEST(ContactNetwork, OutEdgeTransposeSurvivesBinaryRoundTrip) {
  const ContactNetwork net = make_line_network(12);
  const std::string path = "/tmp/episcale_test_outcsr.bin";
  net.write_binary(path);
  const ContactNetwork loaded = ContactNetwork::read_binary(path);
  for (PersonId u = 0; u < net.node_count(); ++u) {
    const auto a = net.out_edges_of(u);
    const auto b = loaded.out_edges_of(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  std::filesystem::remove(path);
}

// --- Ghost sources (the halo each rank subscribes to) --------------------

TEST(Partition, GhostSourcesAreExactlyRemoteInEdgeSources) {
  const ContactNetwork net = make_line_network(40);
  const Partitioning parts = partition_network(net, 5);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const Partition& part = parts.part(i);
    // Brute-force reference: remote sources over this part's edge range.
    std::set<PersonId> expected;
    for (EdgeIndex e = part.edge_begin; e < part.edge_end; ++e) {
      const PersonId s = net.contact(e).source;
      if (s < part.node_begin || s >= part.node_end) expected.insert(s);
    }
    const auto ghosts = compute_ghost_sources(net, parts, i);
    EXPECT_TRUE(std::is_sorted(ghosts.begin(), ghosts.end()));
    EXPECT_EQ(std::set<PersonId>(ghosts.begin(), ghosts.end()), expected);
    EXPECT_EQ(ghosts.size(), expected.size());  // no duplicates
  }
}

TEST(Partition, GhostSourcesEmptyForSinglePartition) {
  const ContactNetwork net = make_line_network(10);
  const Partitioning parts = partition_network(net, 1);
  EXPECT_TRUE(compute_ghost_sources(net, parts, 0).empty());
}

}  // namespace
}  // namespace epi
