// Contact network representation.
//
// The paper (§III) supplies each region's contact network as one CSV file;
// every edge carries the two person identifiers, the start time and
// duration of the interaction, and the (possibly asymmetric) activity
// context of each endpoint (home, work, shopping, other, school, college,
// religion). Because the partitioner must keep "all incoming edges of any
// given node in the same partition", the in-memory layout is a CSR over
// *incoming* edges: for each node v we store the contiguous list of
// contacts (u -> v). An undirected contact contributes one directed edge in
// each direction.
//
// The static network is immutable after finalize(); dynamic state (the
// per-edge active flag toggled by interventions) lives in the simulator,
// keyed by edge index, exactly as the paper describes ("each edge in the
// contact network can be turned on and off dynamically").
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace epi {

using PersonId = std::uint32_t;
using EdgeIndex = std::uint64_t;

/// Activity context of an endpoint at contact time (paper §III).
enum class ActivityType : std::uint8_t {
  kHome = 0,
  kWork = 1,
  kShopping = 2,
  kOther = 3,
  kSchool = 4,
  kCollege = 5,
  kReligion = 6,
};

inline constexpr int kActivityTypeCount = 7;

const char* activity_name(ActivityType a);
ActivityType activity_from_name(const std::string& name);

/// One directed contact (source -> target); target is implied by the CSR
/// bucket the edge lives in. 16 bytes, trivially copyable for binary I/O.
struct Contact {
  PersonId source = 0;
  std::uint16_t start_minute = 0;    // minute of day the interaction begins
  std::uint16_t duration_minutes = 0;
  std::uint8_t source_activity = 0;  // ActivityType of the source person
  std::uint8_t target_activity = 0;  // ActivityType of the target person
  std::uint16_t reserved = 0;        // keeps the struct 4-byte aligned
  float weight = 1.0f;               // edge weight w_e in the propensity law
};
static_assert(sizeof(Contact) == 16, "Contact must stay 16 bytes");

/// One out-edge transpose entry: the edge sourced at some person u that
/// points at `target`, stored as its position inside target's in-CSR
/// bucket, so the edge index is in_begin(target) + offset. 8 bytes, the
/// size of a bare EdgeIndex, but the target comes for free.
struct OutEdge {
  PersonId target = 0;
  std::uint32_t offset = 0;  // rank of the edge inside target's in-bucket
};
static_assert(sizeof(OutEdge) == 8, "OutEdge must stay 8 bytes");

/// Immutable contact network in incoming-edge CSR form.
class ContactNetwork {
 public:
  ContactNetwork() = default;

  PersonId node_count() const { return node_count_; }
  /// Number of directed edges (= 2x undirected contacts).
  EdgeIndex edge_count() const { return static_cast<EdgeIndex>(contacts_.size()); }
  /// Number of undirected contacts.
  EdgeIndex contact_count() const { return edge_count() / 2; }

  /// [begin, end) range of incoming-edge indices for node v.
  EdgeIndex in_begin(PersonId v) const { return offsets_[v]; }
  EdgeIndex in_end(PersonId v) const { return offsets_[v + 1]; }
  std::uint64_t in_degree(PersonId v) const { return in_end(v) - in_begin(v); }

  const Contact& contact(EdgeIndex e) const { return contacts_[e]; }

  // --- Out-edge transpose -----------------------------------------------
  // The CSR above is over *incoming* edges (grouped by target, the
  // partitioning invariant). The transpose answers the push direction the
  // frontier transmission kernel needs: "which edges does person u appear
  // on as Contact::source, and whom do they point at?". Built once at
  // finalize/load. Each bucket is in ascending edge order, which is the
  // same as ascending (target, offset): walking a bucket enumerates a
  // source's out-edges in global edge order, and a lower_bound on target
  // finds the first edge into any node range.

  std::uint64_t out_degree(PersonId u) const {
    return out_offsets_[u + 1] - out_offsets_[u];
  }
  /// u's out-edges, ascending by (target, offset) = ascending edge index.
  std::span<const OutEdge> out_edges_of(PersonId u) const {
    return std::span<const OutEdge>(out_edges_.data() + out_offsets_[u],
                                    out_offsets_[u + 1] - out_offsets_[u]);
  }
  /// The edge index a transpose entry names.
  EdgeIndex edge_of(const OutEdge& out) const {
    return offsets_[out.target] + out.offset;
  }

  /// Total duration-weighted contact minutes incident to v (incoming).
  double contact_minutes(PersonId v) const;

  /// A stable 64-bit content hash (used as the partition-cache key).
  std::uint64_t content_hash() const;

  // --- I/O --------------------------------------------------------------

  /// Writes the paper's CSV edge format:
  /// targetPID,sourcePID,targetActivity,sourceActivity,start,duration,weight
  void write_csv(std::ostream& out) const;
  static ContactNetwork read_csv(std::istream& in, PersonId node_count);

  /// Compact binary format ("due to its large size, [the network] is in
  /// csv or binary format"). Round-trips exactly.
  void write_binary(const std::string& path) const;
  static ContactNetwork read_binary(const std::string& path);

  friend class ContactNetworkBuilder;

 private:
  void build_out_edges();

  PersonId node_count_ = 0;
  std::vector<EdgeIndex> offsets_;  // node_count_ + 1 entries
  std::vector<Contact> contacts_;  // grouped by target node
  // Transpose: out_edges_[out_offsets_[u] .. out_offsets_[u+1]) are the
  // edges sourced at u, in ascending edge order.
  std::vector<EdgeIndex> out_offsets_;  // node_count_ + 1 entries
  std::vector<OutEdge> out_edges_;      // edge_count() entries
};

/// Accumulates undirected contacts, then finalizes into CSR form.
class ContactNetworkBuilder {
 public:
  explicit ContactNetworkBuilder(PersonId node_count);

  /// Records an undirected contact between u and v. `u_activity` is what u
  /// was doing, `v_activity` what v was doing (they may differ: the grocer
  /// is working while the customer is shopping).
  void add_contact(PersonId u, PersonId v, std::uint16_t start_minute,
                   std::uint16_t duration_minutes, ActivityType u_activity,
                   ActivityType v_activity, float weight = 1.0f);

  std::uint64_t contact_count() const { return undirected_count_; }

  /// Builds the CSR network. The builder is consumed.
  ContactNetwork finalize() &&;

 private:
  struct PendingEdge {
    PersonId target;
    Contact contact;
  };
  PersonId node_count_;
  std::vector<PendingEdge> pending_;
  std::uint64_t undirected_count_ = 0;
};

/// Per-context directed-edge counts plus degree summary — the numbers
/// behind Fig 6 and the synthetic-population validation tests.
struct NetworkStats {
  std::uint64_t nodes = 0;
  std::uint64_t directed_edges = 0;
  std::uint64_t undirected_contacts = 0;
  double mean_degree = 0.0;
  std::uint64_t max_degree = 0;
  std::uint64_t isolated_nodes = 0;
  std::uint64_t edges_by_context[kActivityTypeCount] = {};  // by target activity
};

NetworkStats compute_stats(const ContactNetwork& network);

}  // namespace epi
