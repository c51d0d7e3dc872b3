// The serving layer's unit of publication: one immutable, self-contained
// copy of everything the mechanism computed — selected next hops, LCP
// transit costs c(i,j), per-packet VCG prices p^k_ij (Theorem 1), and
// per-node payment totals from the payments ledger — exported from a
// *converged* pricing session.
//
// Layout is destination-major, mirroring the sink-tree structure of the
// routing state: each destination j owns one immutable block holding the
// next-hop/cost columns (indexed by source i) and a local CSR whose rows
// are exactly the intermediate nodes of the selected i -> j path in path
// order (so the price rows double as the stored paths). Queries are array
// lookups plus a short row scan; nothing allocates except path()
// materialization.
//
// Blocks are individually refcounted (shared_ptr) so snapshots can be
// built *copy-on-write*: from_session re-extracts only the destinations
// whose sink tree changed since its base snapshot and shares every other
// block with it. One sharing rule covers every producer: a block whose
// digest equals the base's block for the same destination *is* the base's
// block. The content checksum is hierarchical (per-block digests folded
// into the root) for the same reason — an incremental export checksums
// O(dirty) data, not O(n^2).
//
// Snapshots travel as one block stream (service/replication.h), to a
// replica over the wire and to disk as an "fpss-snap v6" file
// (service/checkpoint.h), so a warm restart can serve traffic before the
// first reconvergence.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graph/path.h"
#include "payments/ledger.h"
#include "util/cost.h"
#include "util/types.h"

namespace fpss::pricing {
class Session;
}

namespace fpss::util {
class ThreadPool;
}

namespace fpss::service {

/// What an export did: how many destination rows (sink trees) it had to
/// re-extract from the session versus share with its base unexamined.
struct SnapshotExportStats {
  std::size_t rows_rebuilt = 0;  ///< destination rows extracted from session
  std::size_t rows_reused = 0;   ///< rows shared with base without extraction
  /// A base existed, yet every row was extracted (no usable dirty set, or
  /// the base describes another topology generation or node count).
  bool full_rebuild = false;
};

class RouteSnapshot {
 public:
  /// Exports the current routes/prices of `session` plus (optionally) the
  /// payment totals of `ledger`. Precondition: the session's engine has
  /// converged (the snapshot of a half-converged network is not a
  /// meaningful good to serve); `version` labels the export — RouteService
  /// passes its served version + 1, so every publish takes the next one
  /// whether or not the session converged a new epoch.
  ///
  /// Copy-on-write against `base` (the snapshot being served, or null):
  /// when `base` has the session's node count and topology generation and
  /// `dirty` has a value, only the destinations in `dirty` are re-extracted
  /// and every other block is shared with `base`. The result equals a full
  /// export provided `dirty` is a superset of the destinations whose sink
  /// tree changed since `base` — pricing::Session::dirty_destinations
  /// provides exactly that set. Otherwise every row is re-extracted. Either
  /// way a re-extracted block whose digest equals `base`'s for the same
  /// destination is replaced by `base`'s, so unchanged rows stay shared
  /// however they were found. With a `pool`, extraction runs data-parallel
  /// across rows (bit-identical at any width). Preconditions: every dirty
  /// id in range.
  static std::shared_ptr<const RouteSnapshot> from_session(
      const pricing::Session& session, std::uint64_t version,
      const std::shared_ptr<const RouteSnapshot>& base = nullptr,
      const std::optional<std::vector<NodeId>>& dirty = std::nullopt,
      const payments::Ledger* ledger = nullptr,
      util::ThreadPool* pool = nullptr, SnapshotExportStats* stats = nullptr);

  std::size_t node_count() const { return n_; }
  /// Publish label assigned at export (see from_session).
  std::uint64_t version() const { return version_; }
  /// Graph::version() of the topology the snapshot was taken from.
  std::uint64_t graph_version() const { return graph_version_; }
  /// Wall-clock stamp (ns since the Unix epoch) taken at export — the
  /// publication time for staleness purposes. Persisted, so a warm-started
  /// daemon reports the true age of the prices it serves.
  std::uint64_t published_at_ns() const { return published_at_ns_; }
  /// FNV-1a digest of the full logical content, fixed at construction.
  std::uint64_t checksum() const { return checksum_; }
  /// The digest of everything except the publish provenance (version and
  /// wall-clock stamp): two snapshots of the same converged state compare
  /// equal here no matter when or by which path they were exported — the
  /// incremental-equals-full property tests pin exactly this.
  std::uint64_t content_checksum() const;

  /// Declared per-packet transit cost of node v.
  Cost node_cost(NodeId v) const { return node_cost_[v]; }

  /// c(i, j): transit cost of the selected LCP. Zero for i == j, infinite
  /// when unreachable.
  Cost cost(NodeId i, NodeId j) const { return blocks_[j]->cost[i]; }
  bool reachable(NodeId i, NodeId j) const { return cost(i, j).is_finite(); }

  /// i's selected next hop toward j (kInvalidNode for i == j / unreachable).
  NodeId next_hop(NodeId i, NodeId j) const { return blocks_[j]->next_hop[i]; }

  /// Full selected path i .. j, materialized from the stored transit row.
  /// Empty when unreachable; {i} when i == j.
  graph::Path path(NodeId i, NodeId j) const;

  /// Per-packet price p^k_ij owed to transit node k. Zero when k is not an
  /// intermediate node of the selected path; infinite when k is a monopoly
  /// for the pair.
  Cost price(NodeId k, NodeId i, NodeId j) const;

  /// sum_k p^k_ij — the total per-packet payment for the pair.
  Cost pair_payment(NodeId i, NodeId j) const;

  /// Payment totals of node k as of the export (zero without a ledger).
  Cost::rep payment_owed(NodeId k) const { return owed_[k]; }
  Cost::rep payment_settled(NodeId k) const { return settled_[k]; }
  /// owed + settled: everything the mechanism has credited to k.
  Cost::rep payment_total(NodeId k) const { return owed_[k] + settled_[k]; }

  /// Adapter for payments::Ledger::record_packets and settle_traffic.
  payments::PriceFn price_fn() const;

  /// Digest of destination j's block — the word the root checksum folds
  /// for j, so equal digests mean equal rows.
  std::uint64_t block_digest(NodeId j) const { return blocks_[j]->digest; }

  /// True iff destination j's block is the same object in both snapshots —
  /// the observable CoW contract (shared, not merely equal). Blocks are
  /// immutable, so this is how ShardedSnapshotStore::publish finds the
  /// shards a new snapshot changed.
  bool shares_block_with(const RouteSnapshot& other, NodeId j) const {
    return blocks_[j] == other.blocks_[j];
  }

  /// Recomputes the content digest and structural invariants (offsets
  /// monotone, hop counts consistent, costs equal the sum of their row's
  /// transit costs). A reader that can observe a torn snapshot would fail
  /// here; the publication tests lean on it.
  bool self_check() const;

 private:
  friend struct ReplicationCodec;  ///< the block stream (replication.h)

  /// Everything destination j's sink tree exports, immutable once built.
  /// The CSR is local (offset[0] == 0); `digest` folds the arrays once so
  /// snapshots reusing the block fold one word instead of re-hashing it.
  struct DestinationBlock {
    std::vector<NodeId> next_hop;       ///< by source i, size n
    std::vector<Cost> cost;             ///< by source i, size n
    std::vector<std::uint64_t> offset;  ///< local CSR fence, size n+1
    std::vector<NodeId> transit;        ///< CSR entries: path intermediates
    std::vector<Cost> price;            ///< CSR entries: p^k_ij, aligned
    std::uint64_t digest = 0;

    std::uint64_t compute_digest() const;
  };
  using BlockPtr = std::shared_ptr<const DestinationBlock>;

  RouteSnapshot() = default;

  /// Builds the blocks of `destinations` from the (converged) session,
  /// digests included, in the order given.
  static std::vector<BlockPtr> extract_destinations(
      const pricing::Session& session, std::span<const NodeId> destinations,
      std::size_t n);
  /// Entry total + checksum over blocks and globals already in place (the
  /// export's tail; the Assembler fills the blocks itself and seals
  /// afterwards).
  void seal();
  /// Folds every field into the root digest.
  std::uint64_t compute_checksum() const;

  std::size_t n_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t graph_version_ = 0;
  std::uint64_t published_at_ns_ = 0;
  std::uint64_t checksum_ = 0;
  std::uint64_t total_entries_ = 0;      ///< sum of block CSR sizes
  std::vector<Cost> node_cost_;          ///< declared costs, size n
  std::vector<BlockPtr> blocks_;         ///< per destination, size n
  std::vector<Cost::rep> owed_;          ///< size n
  std::vector<Cost::rep> settled_;       ///< size n
};

}  // namespace fpss::service
