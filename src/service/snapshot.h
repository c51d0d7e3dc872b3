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
// built *copy-on-write*: from_session_incremental re-extracts only the
// destinations whose sink tree changed since the previous snapshot and
// shares every clean block with it. The content checksum is hierarchical
// (per-block digests folded into the root) for the same reason — an
// incremental export checksums O(dirty) data, not O(n^2).
//
// Snapshots also serialize ("fpss-snap v4", binary header + FNV-1a
// checksum, the service-layer sibling of graph/io.h's "fpss-graph v1") so
// a warm restart can serve traffic before the first reconvergence. v3
// switched the stored digest to the hierarchical per-destination scheme;
// v4 (payload layout unchanged from v3) marks the incremental-checkpoint
// era, where a base image may be accompanied by a per-destination patch
// journal sidecar (see service/checkpoint.h). Older files are rejected
// with a version error.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
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
/// re-extract from the session versus share with the previous snapshot.
struct SnapshotExportStats {
  std::size_t rows_rebuilt = 0;  ///< destination rows extracted from session
  std::size_t rows_reused = 0;   ///< destination rows shared with prev
  /// The incremental path degraded to a full rebuild (topology generation
  /// moved, so per-row sharing against prev was not attempted).
  bool full_rebuild = false;
};

class RouteSnapshot {
 public:
  /// Exports the current routes/prices of `session` plus (optionally) the
  /// payment totals of `ledger`. Precondition: the session's engine has
  /// converged (the snapshot of a half-converged network is not a
  /// meaningful good to serve); `version` labels the export — callers use
  /// bgp::Engine::converged_epochs(). With a `pool`, per-destination
  /// extraction runs data-parallel (bit-identical at any width).
  static std::shared_ptr<const RouteSnapshot> from_session(
      const pricing::Session& session, std::uint64_t version,
      const payments::Ledger* ledger = nullptr,
      util::ThreadPool* pool = nullptr);

  /// Copy-on-write export: re-extracts only the destinations in `dirty`
  /// and shares `prev`'s blocks for every other destination. The result is
  /// logically identical to a full from_session export *provided* `dirty`
  /// is a superset of the destinations whose sink tree actually changed —
  /// pricing::Session::dirty_destinations provides exactly that set.
  /// Falls back to a full rebuild (ignoring `dirty`) when the topology
  /// generation moved, since prev's rows then describe a different graph.
  /// Preconditions: prev != nullptr, same node count, session converged,
  /// every dirty id in range.
  static std::shared_ptr<const RouteSnapshot> from_session_incremental(
      const std::shared_ptr<const RouteSnapshot>& prev,
      const pricing::Session& session, std::uint64_t version,
      std::span<const NodeId> dirty, const payments::Ledger* ledger = nullptr,
      util::ThreadPool* pool = nullptr, SnapshotExportStats* stats = nullptr);

  std::size_t node_count() const { return n_; }
  /// Converged-epoch label assigned at export.
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
  friend struct SnapshotCodec;
  friend struct CheckpointCodec;   ///< per-block patch journal (checkpoint.cpp)
  friend struct BlockCodec;        ///< shared v4 block encoding (blockio.h)
  friend struct ReplicationCodec;  ///< per-shard wire chunks (replication.h)
  friend class PublishPipeline;    ///< adopts warm blocks (pipeline.cpp)

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

  /// Builds destination j's block from the (converged) session — the one
  /// extraction path both the full and the incremental export share.
  static BlockPtr extract_destination(const pricing::Session& session,
                                      NodeId j, std::size_t n);
  /// Common tail of both exports: payments, entry total, checksum.
  void finish(const payments::Ledger* ledger);
  /// The second half of finish(): entry total + checksum over blocks
  /// already in place (the checkpoint and replication decoders fill the
  /// blocks themselves and seal afterwards).
  void seal();
  /// Folds every field into the digest in serialization order.
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

// --- binary persistence ----------------------------------------------------

/// Outcome of a save: `error` is empty on success (same convention the
/// graph::SaveResult uses — failures are runtime conditions with a reason,
/// not bare booleans).
struct SnapshotSaveResult {
  std::string error;
  std::uint64_t bytes = 0;  ///< header + payload bytes written on success
  bool ok() const { return error.empty(); }
};

/// Outcome of a load; mirrors graph::ParseResult.
struct SnapshotLoadResult {
  std::shared_ptr<const RouteSnapshot> snapshot;  ///< null on failure
  std::string error;  ///< "checksum mismatch (stored .. != computed ..)"
  bool ok() const { return snapshot != nullptr; }
};

/// Writes the "fpss-snap v4" binary image: an 8-byte magic, format
/// version, payload byte count, and content checksum, then the payload.
SnapshotSaveResult save_snapshot(const RouteSnapshot& snapshot,
                                 const std::string& path);

/// Reads and validates a saved snapshot: magic/version/length checks,
/// structural bounds on every array, and the checksum must reproduce.
SnapshotLoadResult load_snapshot(const std::string& path);

/// The in-memory half of load_snapshot(): validates a complete fpss-snap
/// image already in memory. This is the attack surface a hostile file (or
/// fuzz input) exercises — everything after the read(2) — so the fuzz
/// harness drives exactly this function.
SnapshotLoadResult load_snapshot_bytes(std::string_view bytes);

}  // namespace fpss::service
