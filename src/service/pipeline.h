// PublishPipeline: the export-and-publish step between a converged pricing
// session and the ShardedSnapshotStore readers serve from.
//
//   no usable CoW base / dirty set (first build, topology generation
//   moved, warm start)   -> one full export (data-parallel on the pool),
//                           a new block per row;
//   otherwise            -> incremental export: re-extract only the dirty
//                           destinations (data-parallel across rows) and
//                           share every other row.
//
// Either way the store sees one publish, which stamps the shards whose
// blocks changed: readers move from one complete epoch to the next under a
// single lock, and every reply's version stamp names exactly the epoch
// whose rows answered it (DESIGN.md §11 records why shards are not
// published one by one as their exports land).
//
// On a warm start the full build additionally *adopts* the loaded
// snapshot's blocks wherever the per-block digests match — digest equality
// is direct content proof, independent of Graph::version() — so only the
// shards whose sink trees genuinely changed across the restart are
// stamped.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "service/snapshot.h"
#include "service/store.h"
#include "util/types.h"

namespace fpss::payments {
class Ledger;
}
namespace fpss::pricing {
class Session;
}
namespace fpss::util {
class ThreadPool;
}

namespace fpss::service {

/// What one pipeline run did — the publish-side counter deltas.
struct PipelineStats {
  std::size_t rows_rebuilt = 0;  ///< destination rows extracted from session
  std::size_t rows_reused = 0;   ///< rows CoW-shared with the previous export
  std::size_t rows_adopted = 0;  ///< rows adopted from the warm base by digest
  std::size_t shards_swapped = 0;  ///< shards the store's publish stamped
  /// Fell back to a full rebuild despite a previous export existing.
  bool full_rebuild = false;
};

class PublishPipeline {
 public:
  /// Exports the session's converged state as version `version` and
  /// publishes it into `store` by whichever of the two paths applies (see
  /// file comment); returns the published snapshot (the store's new
  /// `newest`). `prev` is the previous export of this session or null;
  /// `warm_base` is the disk-loaded snapshot the store currently serves
  /// (first real publish after a warm start) or null; `dirty` is
  /// Session::dirty_destinations' answer (nullopt = unknown -> full).
  /// Preconditions: session converged; store/session node counts agree;
  /// caller holds whatever lock guards `ledger`.
  static std::shared_ptr<const RouteSnapshot> run(
      ShardedSnapshotStore& store,
      const std::shared_ptr<const RouteSnapshot>& prev,
      const std::shared_ptr<const RouteSnapshot>& warm_base,
      const pricing::Session& session, std::uint64_t version,
      const std::optional<std::vector<NodeId>>& dirty,
      const payments::Ledger* ledger, util::ThreadPool* pool,
      PipelineStats* stats = nullptr);
};

}  // namespace fpss::service
