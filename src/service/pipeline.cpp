#include "service/pipeline.h"

#include "graph/graph.h"
#include "payments/ledger.h"
#include "pricing/session.h"
#include "util/contract.h"

namespace fpss::service {

std::shared_ptr<const RouteSnapshot> PublishPipeline::run(
    ShardedSnapshotStore& store,
    const std::shared_ptr<const RouteSnapshot>& prev,
    const std::shared_ptr<const RouteSnapshot>& warm_base,
    const pricing::Session& session, std::uint64_t version,
    const std::optional<std::vector<NodeId>>& dirty,
    const payments::Ledger* ledger, util::ThreadPool* pool,
    PipelineStats* stats) {
  FPSS_EXPECTS(session.engine().stats().converged);
  const graph::Graph& g = session.network().topology();
  const std::size_t n = g.node_count();
  PipelineStats local;

  // The incremental path needs a CoW base from this session and a usable
  // dirty set on the same topology generation; anything else is a full
  // parallel export, which makes a new block per row.
  const bool incremental_ok = prev != nullptr && dirty.has_value() &&
                              prev->graph_version() == g.version();
  std::shared_ptr<const RouteSnapshot> snap;
  if (!incremental_ok) {
    snap = RouteSnapshot::from_session(session, version, ledger, pool);
    local.rows_rebuilt = n;
    local.full_rebuild = prev != nullptr;
    if (warm_base != nullptr && warm_base->node_count() == n) {
      // Warm-start adoption: wherever the fresh export reproduced the disk
      // snapshot's per-block digest, adopt the disk block instead, so the
      // store (still serving warm_base) sees those destinations unchanged
      // and stamps only the shards whose sink trees moved. Digest equality
      // is direct content proof — no Graph::version() gate, a restart's
      // cost deltas only dirty the trees they touch. Mutating past
      // from_session's seal is safe: we hold the only reference, and equal
      // digests leave the folded checksum unchanged.
      auto* fresh = const_cast<RouteSnapshot*>(snap.get());
      for (NodeId j = 0; j < n; ++j) {
        if (warm_base->blocks_[j] != nullptr &&
            warm_base->blocks_[j]->digest == fresh->blocks_[j]->digest) {
          fresh->blocks_[j] = warm_base->blocks_[j];
          ++local.rows_adopted;
        }
      }
    }
  } else {
    // The incremental export parallelizes across dirty rows and shares
    // every clean row, so the store stamps only the dirty rows' shards.
    SnapshotExportStats es;
    snap = RouteSnapshot::from_session_incremental(
        prev, session, version, *dirty, ledger, pool, &es);
    local.rows_rebuilt = es.rows_rebuilt;
    local.rows_reused = es.rows_reused;
    local.full_rebuild = es.full_rebuild;
  }
  local.shards_swapped = store.publish(snap);
  if (stats != nullptr) *stats = local;
  return snap;
}

}  // namespace fpss::service
