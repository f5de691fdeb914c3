// Shared-memory backend tests: backend selection, thread-vs-shm byte
// identity of every communication pattern at 1/2/4/8 ranks, the
// randomized-interleaving FIFO stress (satellite of the cross-process
// correctness work), the CommChecker detecting seeded violations across
// process boundaries, 64-bit traffic accounting, back-to-back Runtime
// reuse, and child-state merging (metrics, flow edges, exceptions).
//
// Rank bodies assert by throwing (see test_mpilite.cpp): under the shm
// backend every rank above 0 is a forked process, where a gtest EXPECT_*
// would be invisible. Cross-rank observations travel through allgatherv
// and are stored by rank 0, which runs on the launching thread in both
// backends.
#include "mpilite/shm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "epitrace/epitrace.hpp"
#include "mpilite/comm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace epi::mpilite {
namespace {

void require(bool condition, const std::string& what) {
  if (!condition) throw Error("rank assertion failed: " + what);
}

/// Pins EPI_MPILITE_BACKEND to `value` for one scope (nullptr = unset),
/// restoring the previous state on destruction.
class BackendGuard {
 public:
  explicit BackendGuard(const char* value) {
    const char* current = std::getenv("EPI_MPILITE_BACKEND");
    if (current != nullptr) saved_ = current;
    had_value_ = current != nullptr;
    if (value != nullptr) {
      setenv("EPI_MPILITE_BACKEND", value, 1);
    } else {
      unsetenv("EPI_MPILITE_BACKEND");
    }
  }
  ~BackendGuard() {
    if (had_value_) {
      setenv("EPI_MPILITE_BACKEND", saved_.c_str(), 1);
    } else {
      unsetenv("EPI_MPILITE_BACKEND");
    }
  }

 private:
  std::string saved_;
  bool had_value_ = false;
};

void expect_bytes_equal(const std::vector<double>& a,
                        const std::vector<double>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  ASSERT_FALSE(a.empty()) << label << ": digest must not be vacuously empty";
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << label;
}

// ------------------------------------------------- digest rank bodies ---

/// Every collective plus point-to-point traffic, folded into a per-rank
/// digest whose every double must be byte-identical across backends.
std::vector<double> mixed_traffic_digest(Comm& comm) {
  std::vector<double> digest;
  const int n = comm.size();
  const int rank = comm.rank();

  digest.push_back(comm.allreduce(0.1 * (rank + 1), ReduceOp::kSum));
  digest.push_back(comm.allreduce(static_cast<double>(rank), ReduceOp::kMin));
  digest.push_back(comm.allreduce(static_cast<double>(rank), ReduceOp::kMax));
  digest.push_back(
      comm.allreduce(rank == n - 1 ? 1.0 : 0.0, ReduceOp::kLogicalOr));

  // Exact int64 sum beyond double precision.
  constexpr std::int64_t big = (std::int64_t{1} << 53) + 1;
  digest.push_back(static_cast<double>(
      comm.allreduce(big, ReduceOp::kSum) - std::int64_t{n} * big));

  std::vector<double> mine(static_cast<std::size_t>(rank % 3 + 1),
                           1.0 / (rank + 2));
  for (double v : comm.allgatherv(mine)) digest.push_back(v);

  std::vector<std::vector<double>> outbox(static_cast<std::size_t>(n));
  for (int dest = 0; dest < n; ++dest) {
    outbox[static_cast<std::size_t>(dest)] = {rank * 100.0 + dest,
                                              0.5 * rank};
  }
  for (const auto& slice : comm.alltoallv(outbox)) {
    for (double v : slice) digest.push_back(v);
  }

  for (int root = 0; root < n; ++root) {
    std::vector<double> value;
    if (rank == root) value = {3.25 * root, static_cast<double>(n)};
    for (double v : comm.broadcast(value, root)) digest.push_back(v);
  }

  comm.barrier();

  // Point-to-point ring pass (also covers empty payloads).
  if (n > 1) {
    const int next = (rank + 1) % n;
    const int prev = (rank + n - 1) % n;
    comm.send<double>(next, 3, std::vector<double>{rank + 0.125});
    comm.send<double>(next, 4, std::vector<double>{});
    digest.push_back(comm.recv<double>(prev, 3).at(0));
    require(comm.recv<double>(prev, 4).empty(), "empty ring payload");
  }
  digest.push_back(static_cast<double>(comm.bytes_sent()));
  return digest;
}

/// The randomized-interleaving FIFO stress: every rank sends a seeded,
/// shuffled schedule of messages; receivers recompute each sender's
/// schedule from the shared seed, drain their share in their own seeded
/// interleaving, and digest (source, tag, sequence, payload) of every
/// delivery. Per-(source, tag) FIFO order makes the digest a pure
/// function of the seed — byte-identical under thread and shm backends.
std::vector<double> fifo_stress_digest(Comm& comm, unsigned seed) {
  const int n = comm.size();
  const int rank = comm.rank();
  constexpr int kTags[] = {2, 5, 11};

  struct Message {
    int dest;
    int tag;
    std::vector<double> payload;
  };
  // Deterministic per (seed, source): both the sender and every receiver
  // can reconstruct the same shuffled schedule.
  const auto schedule_for = [&](int source) {
    std::mt19937 rng(seed * 7919u + static_cast<unsigned>(source));
    std::vector<Message> plan;
    for (int dest = 0; dest < n; ++dest) {
      if (dest == source) continue;  // self-sends are a separate diagnostic
      for (int tag : kTags) {
        const auto count = rng() % 4;  // 0..3 messages per route
        for (std::uint32_t i = 0; i < count; ++i) {
          std::vector<double> payload(rng() % 9);  // 0..8 doubles
          for (double& v : payload) {
            v = static_cast<double>(rng()) / 16.0;
          }
          plan.push_back({dest, tag, std::move(payload)});
        }
      }
    }
    std::shuffle(plan.begin(), plan.end(), rng);
    return plan;
  };

  for (const Message& m : schedule_for(rank)) {
    comm.send<double>(m.dest, m.tag, m.payload);
  }

  // What this rank must drain, in per-(source, tag) send order.
  std::map<std::pair<int, int>, std::deque<std::vector<double>>> expected;
  std::vector<std::pair<int, int>> pending;  // one entry per message
  for (int source = 0; source < n; ++source) {
    if (source == rank) continue;
    for (const Message& m : schedule_for(source)) {
      if (m.dest != rank) continue;
      expected[{source, m.tag}].push_back(m.payload);
      pending.emplace_back(source, m.tag);
    }
  }
  // The receive interleaving is itself randomized (differently from any
  // sender), exercising the shm stash demultiplexer.
  std::mt19937 recv_rng(seed * 104729u + 1000u + static_cast<unsigned>(rank));
  std::shuffle(pending.begin(), pending.end(), recv_rng);

  std::map<std::pair<int, int>, int> delivered;
  std::vector<double> digest;
  for (const auto& [source, tag] : pending) {
    const std::vector<double> got = comm.recv<double>(source, tag);
    auto& queue = expected.at({source, tag});
    require(!queue.empty(), "unexpected extra message");
    require(got == queue.front(), "FIFO payload mismatch");
    queue.pop_front();
    digest.push_back(static_cast<double>(source));
    digest.push_back(static_cast<double>(tag));
    digest.push_back(static_cast<double>(delivered[{source, tag}]++));
    for (double v : got) digest.push_back(v);
  }
  digest.push_back(comm.allreduce(static_cast<double>(pending.size()),
                                  ReduceOp::kSum));
  return digest;
}

/// Runs `body`'s digest on every rank and returns the rank-ordered
/// concatenation as observed by rank 0.
std::vector<double> run_gathered(
    int num_ranks, const std::function<std::vector<double>(Comm&)>& body) {
  std::vector<double> gathered;
  Runtime::run(num_ranks, [&](Comm& comm) {
    const auto all = comm.allgatherv(body(comm));
    if (comm.rank() == 0) gathered = all;
  });
  return gathered;
}

// ---------------------------------------------------- backend selection ---

TEST(MpiliteShm, BackendSelectionFollowsEnvironment) {
  const auto observed_backend = [] {
    BackendKind kind = BackendKind::kThread;
    Runtime::run(1, [&](Comm& comm) { kind = comm.backend(); });
    return kind;
  };
  {
    BackendGuard unset(nullptr);
    EXPECT_EQ(observed_backend(), BackendKind::kThread);
  }
  {
    BackendGuard thread("thread");
    EXPECT_EQ(observed_backend(), BackendKind::kThread);
  }
  {
    BackendGuard shm("shm");
    EXPECT_EQ(observed_backend(), BackendKind::kShm);
  }
}

TEST(MpiliteShm, BogusBackendValueThrowsNamingTheVariable) {
  BackendGuard bogus("sideways");
  try {
    Runtime::run(1, [](Comm&) {});
    FAIL() << "bogus backend value should throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("EPI_MPILITE_BACKEND"), std::string::npos) << what;
    EXPECT_NE(what.find("sideways"), std::string::npos) << what;
  }
}

// ------------------------------------------------- cross-backend identity ---

TEST(MpiliteShm, MixedTrafficByteIdenticalAcrossBackendsAt1248Ranks) {
  for (int ranks : {1, 2, 4, 8}) {
    std::vector<double> thread_digest, shm_digest;
    {
      BackendGuard thread("thread");
      thread_digest = run_gathered(ranks, mixed_traffic_digest);
    }
    {
      BackendGuard shm("shm");
      shm_digest = run_gathered(ranks, mixed_traffic_digest);
    }
    expect_bytes_equal(thread_digest, shm_digest,
                       ("mixed traffic at " + std::to_string(ranks) + " ranks")
                           .c_str());
  }
}

TEST(MpiliteShm, RandomizedFifoStressByteIdenticalAcrossBackends) {
  for (const unsigned seed : {1u, 42u}) {
    for (const int ranks : {2, 4, 8}) {
      const auto body = [seed](Comm& comm) {
        return fifo_stress_digest(comm, seed);
      };
      std::vector<double> thread_digest, shm_digest;
      {
        BackendGuard thread("thread");
        thread_digest = run_gathered(ranks, body);
      }
      {
        BackendGuard shm("shm");
        shm_digest = run_gathered(ranks, body);
      }
      expect_bytes_equal(thread_digest, shm_digest,
                         ("fifo stress seed " + std::to_string(seed) + " at " +
                          std::to_string(ranks) + " ranks")
                             .c_str());
    }
  }
}

TEST(MpiliteShm, FifoStressCleanUnderCheckerOnBothBackends) {
  // The checker-instrumented path must neither perturb the digest nor
  // produce reports — every randomized message is received.
  const auto body = [](Comm& comm) { return fifo_stress_digest(comm, 7u); };
  std::vector<double> digests[2];
  const char* backends[] = {"thread", "shm"};
  for (int b = 0; b < 2; ++b) {
    BackendGuard guard(backends[b]);
    const auto reports = Runtime::run_checked(4, [&](Comm& comm) {
      const auto all = comm.allgatherv(body(comm));
      if (comm.rank() == 0) digests[b] = all;
    });
    EXPECT_TRUE(reports.empty()) << backends[b] << ": "
                                 << format_reports(reports);
  }
  expect_bytes_equal(digests[0], digests[1], "checked fifo stress");
}

// ----------------------------------------------- checker across processes ---

TEST(MpiliteShm, CollectiveMismatchDetectedAcrossProcesses) {
  BackendGuard shm("shm");
  const auto reports = Runtime::run_checked(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.barrier();
    } else {
      comm.allreduce(1.0, ReduceOp::kSum);
    }
  });
  ASSERT_FALSE(reports.empty());
  bool mismatch_seen = false;
  for (const auto& report : reports) {
    if (report.kind != CheckKind::kCollectiveMismatch) continue;
    mismatch_seen = true;
    // The report must name the user-level collectives, not the
    // allgatherv transport allreduce rides on.
    EXPECT_TRUE(report.message.find("allreduce") != std::string::npos ||
                report.message.find("barrier") != std::string::npos)
        << report.message;
  }
  EXPECT_TRUE(mismatch_seen) << format_reports(reports);
}

TEST(MpiliteShm, DeadlockDetectedAcrossProcesses) {
  BackendGuard shm("shm");
  CheckOptions fast;
  fast.deadlock_timeout_s = 0.25;
  // Classic recv-recv cycle: rank 0 (the parent) and rank 1 (a forked
  // child) each wait on the other. The parent's watchdog must diagnose
  // the child's blocked state through the shared segment.
  const auto reports = Runtime::run_checked(
      2,
      [](Comm& comm) {
        comm.recv<int>(1 - comm.rank(), 0);
      },
      fast);
  bool deadlock_seen = false;
  for (const auto& report : reports) {
    if (report.kind != CheckKind::kDeadlock) continue;
    deadlock_seen = true;
    EXPECT_NE(report.message.find("recv"), std::string::npos)
        << report.message;
  }
  EXPECT_TRUE(deadlock_seen) << format_reports(reports);
}

TEST(MpiliteShm, MessageLeakDetectedFromForkedSender) {
  BackendGuard shm("shm");
  // Rank 1 — a forked process — sends a message nobody receives; its
  // send tally must ship back to the parent for the finalize-time leak
  // analysis.
  const auto reports = Runtime::run_checked(2, [](Comm& comm) {
    if (comm.rank() == 1) comm.send<int>(0, 6, std::vector<int>{9});
    comm.barrier();
  });
  ASSERT_EQ(reports.size(), 1u) << format_reports(reports);
  EXPECT_EQ(reports[0].kind, CheckKind::kMessageLeak);
  EXPECT_NE(reports[0].message.find("tag 6"), std::string::npos)
      << reports[0].message;
}

// --------------------------------------------------- error propagation ---

TEST(MpiliteShm, ChildExceptionMessageCrossesProcessBoundary) {
  BackendGuard shm("shm");
  try {
    Runtime::run(4, [](Comm& comm) {
      if (comm.rank() == 2) throw Error("boom from rank 2");
      comm.barrier();  // other ranks block; the abort must wake them
    });
    FAIL() << "child exception should propagate to the launcher";
  } catch (const Error& e) {
    // The primary error must win over the other ranks' secondary
    // AbortedErrors — including rank 0's, which sorts first.
    EXPECT_NE(std::string(e.what()).find("boom from rank 2"),
              std::string::npos)
        << e.what();
  }
}

// ----------------------------------------------------- runtime reuse ---

TEST(MpiliteShm, BackToBackRuntimesAreIndependentAndIdentical) {
  // Two full digest runs in one process, interleaving backends: no state
  // may leak from one Runtime group into the next (segments, stashes,
  // counters), so every repeat is byte-identical to its first run.
  const auto body = [](Comm& comm) {
    auto digest = mixed_traffic_digest(comm);
    const auto stress = fifo_stress_digest(comm, 13u);
    digest.insert(digest.end(), stress.begin(), stress.end());
    return digest;
  };
  std::vector<double> thread_digest, shm_digest;
  {
    BackendGuard thread("thread");
    thread_digest = run_gathered(4, body);
  }
  {
    BackendGuard shm("shm");
    shm_digest = run_gathered(4, body);
  }
  expect_bytes_equal(thread_digest, shm_digest, "first round");
  {
    BackendGuard shm("shm");
    expect_bytes_equal(run_gathered(4, body), shm_digest, "shm repeat");
  }
  {
    BackendGuard thread("thread");
    expect_bytes_equal(run_gathered(4, body), thread_digest,
                       "thread repeat");
  }
}

// ------------------------------------------------ 64-bit traffic sizes ---

TEST(MpiliteShm, FrameHeaderCarries64BitLengths) {
  // The ring frame header must not truncate sizes to 32 bits — a
  // population-scale alltoallv slice can exceed 4 GiB. Exercised on the
  // codec directly so the test does not need a real 4 GiB payload.
  using detail::ShmBackend;
  std::byte header[ShmBackend::kFrameHeaderSize];
  const std::uint64_t big_length = (std::uint64_t{1} << 32) + 12345u;
  const std::uint64_t tag = (std::uint64_t{1} << 29) + 7u;
  ShmBackend::encode_frame_header(big_length, tag, header);
  std::uint64_t length_out = 0;
  std::uint64_t tag_out = 0;
  ShmBackend::decode_frame_header(header, length_out, tag_out);
  EXPECT_EQ(length_out, big_length);
  EXPECT_EQ(tag_out, tag);
  // Little-endian on the wire: byte 4 carries the 2^32 bit.
  EXPECT_EQ(std::to_integer<unsigned>(header[4]), 1u);
  EXPECT_EQ(std::to_integer<unsigned>(header[0]), 12345u & 0xffu);

  // Round-trip at the extremes.
  ShmBackend::encode_frame_header(~std::uint64_t{0}, 0u, header);
  ShmBackend::decode_frame_header(header, length_out, tag_out);
  EXPECT_EQ(length_out, ~std::uint64_t{0});
  EXPECT_EQ(tag_out, 0u);
}

TEST(MpiliteShm, TrafficAccountingIs64BitEndToEnd) {
  // bytes_sent() must be 64-bit at the API boundary...
  static_assert(
      std::is_same_v<decltype(std::declval<const Comm&>().bytes_sent()),
                     std::uint64_t>);
  // ...and the per-rank-pair metrics counters must accumulate and merge
  // past 2^32 (the cross-process path ships child registries as blobs).
  const std::uint64_t big = (std::uint64_t{1} << 32) + 99u;
  obs::MetricsRegistry parent, child;
  parent.add("mpilite.bytes.000->001", big);
  child.add("mpilite.bytes.000->001", big);
  child.add("mpilite.msgs.000->001", 3);
  parent.merge_state(child.serialize_state());
  EXPECT_EQ(parent.counter("mpilite.bytes.000->001"), 2 * big);
  EXPECT_EQ(parent.counter("mpilite.msgs.000->001"), 3u);
}

// ------------------------------------------- observability across fork ---

TEST(MpiliteShm, ChildMetricsAndFlowEdgesMergeIntoParent) {
  // The same observed run under both backends: every counter, histogram,
  // and flow edge a forked child produces must merge into the parent's
  // registry/recorder such that the serialized output is byte-identical
  // to the thread backend's.
  const auto body = [](Comm& comm) {
    // Rank 1 is the forked process under shm; its sends must be visible
    // in the parent's registry and trace after the merge.
    if (comm.rank() == 1) {
      comm.send<int>(0, 7, std::vector<int>{1, 2, 3});
      comm.send<int>(0, 7, std::vector<int>{4});
    } else {
      require(comm.recv<int>(1, 7).size() == 3, "first payload size");
      require(comm.recv<int>(1, 7).size() == 1, "second payload size");
    }
    comm.allreduce(1.0, ReduceOp::kSum);
  };
  std::string metrics_text[2], trace_text[2];
  const char* backends[] = {"thread", "shm"};
  for (int b = 0; b < 2; ++b) {
    BackendGuard guard(backends[b]);
    obs::MetricsRegistry metrics;
    obs::TraceRecorder trace(true);
    ObsHooks hooks;
    hooks.metrics = &metrics;
    hooks.deterministic_timing = true;
    hooks.trace = &trace;
    Runtime::run(2, body, hooks);

    // The child's traffic reached the parent's registry: two user sends
    // plus the allreduce's accounted per-pair contribution.
    EXPECT_EQ(metrics.counter("mpilite.msgs.001->000"), 3u) << backends[b];
    // One top-level allreduce observation per rank — the forked child's
    // histogram entry merged into the parent's.
    EXPECT_EQ(metrics.histogram_count("mpilite.allreduce_s"), 2u)
        << backends[b];

    const Json doc = trace.to_json();
    const epitrace::TraceModel model = epitrace::load_trace(doc);
    EXPECT_TRUE(model.errors.empty()) << backends[b];
    EXPECT_EQ(model.flow_chains.size(), 2u) << backends[b];
    metrics_text[b] = metrics.snapshot().dump();
    trace_text[b] = doc.dump();
  }
  EXPECT_EQ(metrics_text[0], metrics_text[1]);
  EXPECT_EQ(trace_text[0], trace_text[1]);
}

}  // namespace
}  // namespace epi::mpilite
