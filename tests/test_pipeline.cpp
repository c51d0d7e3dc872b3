// The publish pipeline: a converged session's export published into the
// sharded store in one step — a full build (with warm-start digest
// adoption) when no copy-on-write base is usable, otherwise an incremental
// export of the dirty rows, whose publish stamps only their shards.
//
// The load-bearing properties:
//   1. A pooled incremental publish is *logically identical* to a full
//      export — same content checksum, same self_check — for any dirty set,
//      and stamps exactly the shards holding a dirty destination.
//   2. A warm start adopts the disk image's blocks wherever the digests
//      match, so only genuinely changed shards are stamped.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common.h"
#include "bgp/engine.h"
#include "graph/graph.h"
#include "pricing/session.h"
#include "service/pipeline.h"
#include "service/snapshot.h"
#include "service/store.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fpss {
namespace {

using pricing::RestartPolicy;
using pricing::Session;
using service::PipelineStats;
using service::PublishPipeline;
using service::RouteSnapshot;
using service::ShardedSnapshotStore;

// Two disjoint 6-cycles (same shape as test_publish's fixture): a cost
// change in one component cannot dirty the other's sink trees, so shard
// dirtiness is controllable per component.
graph::Graph two_cycles() {
  graph::Graph g{12};
  for (NodeId v = 0; v < 6; ++v) {
    g.add_edge(v, (v + 1) % 6);
    g.add_edge(6 + v, 6 + (v + 1) % 6);
    g.set_cost(v, Cost{static_cast<Cost::rep>(1 + v)});
    g.set_cost(6 + v, Cost{static_cast<Cost::rep>(2 + v)});
  }
  return g;
}

TEST(EnginePool, EnsurePoolWidensButNeverShrinks) {
  Session session(two_cycles(), pricing::Protocol::kPriceVector);
  ASSERT_TRUE(session.run().converged);
  util::ThreadPool* pool = session.engine().ensure_pool(3);
  ASSERT_NE(pool, nullptr);
  EXPECT_GE(pool->width(), 3u);
  // Asking for less is a no-op: same pool object.
  EXPECT_EQ(session.engine().ensure_pool(2), pool);
  // The widened pool does not disturb the protocol result.
  ASSERT_TRUE(
      session.change_cost(0, Cost{9}, RestartPolicy::kRestartBarrier)
          .converged);
}

// --- pooled incremental == full -------------------------------------------

TEST(PublishPipeline, PooledExportEqualsFullExport) {
  const std::vector<test::InstanceSpec> specs = {
      {"er", 24, 211, 10},
      {"ba", 24, 212, 8},
      {"grid", 24, 213, 5},
  };
  for (const auto& spec : specs) {
    SCOPED_TRACE(std::string(spec.family) + " n=" + std::to_string(spec.n));
    const graph::Graph g = test::make_instance(spec);
    const std::size_t n = g.node_count();
    Session session(g, pricing::Protocol::kPriceVector);
    session.track_dirty_destinations(true);
    ASSERT_TRUE(session.run().converged);
    util::ThreadPool* pool = session.engine().ensure_pool(3);

    ShardedSnapshotStore store(n, 4);
    std::uint64_t prev_epoch = session.engine().converged_epochs();

    // First publish: the full path, every shard swapped.
    PipelineStats first;
    std::shared_ptr<const RouteSnapshot> prev = PublishPipeline::run(
        store, nullptr, nullptr, session, prev_epoch, std::nullopt, nullptr,
        pool, &first);
    ASSERT_TRUE(prev->self_check());
    EXPECT_FALSE(first.full_rebuild);
    EXPECT_EQ(first.rows_rebuilt, n);
    EXPECT_EQ(first.shards_swapped, store.shard_count());

    util::Rng rng(spec.seed * 6151);
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      std::vector<Session::Event> burst;
      const std::size_t count = 1 + rng.below(3);
      for (std::size_t e = 0; e < count; ++e)
        burst.push_back(Session::Event::cost_change(
            static_cast<NodeId>(rng.below(n)),
            Cost{static_cast<Cost::rep>(rng.below(25))}));
      ASSERT_TRUE(
          session.apply_events(burst, RestartPolicy::kRestartBarrier)
              .converged);
      const std::uint64_t epoch = session.engine().converged_epochs();
      const auto dirty = session.dirty_destinations(prev_epoch);
      ASSERT_TRUE(dirty.has_value());

      std::vector<bool> shard_dirty(store.shard_count(), false);
      for (const NodeId j : *dirty) shard_dirty[store.shard_of(j)] = true;
      const std::size_t dirty_shards = static_cast<std::size_t>(
          std::count(shard_dirty.begin(), shard_dirty.end(), true));

      PipelineStats stats;
      const auto snap = PublishPipeline::run(store, prev, nullptr, session,
                                             epoch, dirty, nullptr, pool,
                                             &stats);
      const auto full = RouteSnapshot::from_session(session, epoch);

      // Logically identical to a one-shot export.
      EXPECT_TRUE(snap->self_check());
      EXPECT_EQ(snap->content_checksum(), full->content_checksum());
      EXPECT_FALSE(stats.full_rebuild);
      EXPECT_EQ(stats.rows_rebuilt, dirty->size());
      EXPECT_EQ(stats.rows_reused, n - dirty->size());
      EXPECT_EQ(stats.shards_swapped, dirty_shards);
      EXPECT_EQ(store.acquire().newest, snap);
      prev = snap;
      prev_epoch = epoch;
    }
  }
}

// --- warm-start digest adoption (the satellite fix) ------------------------

TEST(PublishPipeline, WarmStartAdoptionSwapsOnlyGenuinelyChangedShards) {
  // "Yesterday's" daemon: converge and snapshot.
  graph::Graph g = two_cycles();
  Session before(g, pricing::Protocol::kPriceVector);
  ASSERT_TRUE(before.run().converged);
  const auto warm = RouteSnapshot::from_session(
      before, before.engine().converged_epochs());

  // Restart with one cost changed in the first component only.
  graph::Graph g2 = two_cycles();
  g2.set_cost(0, Cost{50});
  Session after(g2, pricing::Protocol::kPriceVector);
  ASSERT_TRUE(after.run().converged);

  ShardedSnapshotStore store(g.node_count(), 4);  // 3 destinations per shard
  store.publish(warm);

  PipelineStats stats;
  const auto snap = PublishPipeline::run(
      store, nullptr, warm, after, warm->version() + 1, std::nullopt, nullptr,
      after.engine().ensure_pool(2), &stats);

  // The second component's six sink trees are bit-identical across the
  // restart: their blocks are adopted from the warm image and the two
  // shards holding them are not stamped (pre-fix, every shard was).
  EXPECT_TRUE(snap->self_check());
  EXPECT_GE(stats.rows_adopted, 6u);
  EXPECT_GE(stats.shards_swapped, 1u);
  EXPECT_LE(stats.shards_swapped, 2u);
  EXPECT_EQ(store.acquire().newest, snap);
  const auto versions = store.export_cut().shard_versions;
  EXPECT_EQ(versions[2], warm->version());  // destinations 6-8: unchanged
  EXPECT_EQ(versions[3], warm->version());  // destinations 9-11
  for (NodeId j = 6; j < 12; ++j)
    EXPECT_TRUE(snap->shares_block_with(*warm, j)) << "j=" << j;

  // The adopted snapshot is still exactly the new session's state.
  const auto full = RouteSnapshot::from_session(
      after, after.engine().converged_epochs());
  EXPECT_EQ(snap->content_checksum(), full->content_checksum());
  EXPECT_EQ(snap->node_cost(0), Cost{50});
}

TEST(PublishPipeline, IdenticalRestartAdoptsEverythingAndSwapsNothing) {
  graph::Graph g = two_cycles();
  Session before(g, pricing::Protocol::kPriceVector);
  ASSERT_TRUE(before.run().converged);
  const auto warm = RouteSnapshot::from_session(
      before, before.engine().converged_epochs());

  Session after(two_cycles(), pricing::Protocol::kPriceVector);
  ASSERT_TRUE(after.run().converged);

  ShardedSnapshotStore store(g.node_count(), 4);
  store.publish(warm);
  PipelineStats stats;
  const auto snap = PublishPipeline::run(store, nullptr, warm, after,
                                         warm->version() + 1, std::nullopt,
                                         nullptr, nullptr, &stats);
  EXPECT_EQ(stats.rows_adopted, g.node_count());
  EXPECT_EQ(stats.shards_swapped, 0u);
  EXPECT_EQ(store.newest(), snap);
  EXPECT_EQ(store.export_cut().shard_versions,
            std::vector<std::uint64_t>(4, warm->version()));
  for (NodeId j = 0; j < g.node_count(); ++j)
    EXPECT_TRUE(snap->shares_block_with(*warm, j));
  EXPECT_TRUE(snap->self_check());
}

}  // namespace
}  // namespace fpss
