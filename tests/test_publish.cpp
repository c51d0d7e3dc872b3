// Incremental sharded publication (PR 6): dirty sink-tree tracking,
// copy-on-write snapshot export, and per-shard publishes.
//
// The load-bearing property: an incremental export built from a dirty
// superset is *logically identical* to a full export of the same converged
// state (same content checksum, same self_check), while physically sharing
// every clean destination block with its predecessor — which is how the
// store tells which shards a publish moved. The concurrency tests hunt
// for torn store reads under TSan (the CI tsan job runs this suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "graph/analysis.h"
#include "graphgen/fixtures.h"
#include "pricing/session.h"
#include "service/service.h"
#include "service/snapshot.h"
#include "service/store.h"
#include "util/rng.h"

namespace fpss {
namespace {

using pricing::RestartPolicy;
using pricing::Session;
using service::RouteService;
using service::RouteSnapshot;
using service::ServiceConfig;
using service::ShardedSnapshotStore;
using service::SnapshotExportStats;

// --- incremental == full ---------------------------------------------------

TEST(IncrementalExport, EqualsFullAcrossRandomizedDeltaSequences) {
  const std::vector<test::InstanceSpec> specs = {
      {"er", 24, 101, 10},
      {"ba", 24, 102, 8},
      {"tiered", 24, 103, 9},
      {"grid", 24, 104, 5},
  };
  for (const auto& spec : specs) {
    SCOPED_TRACE(std::string(spec.family) + " n=" + std::to_string(spec.n));
    const graph::Graph g = test::make_instance(spec);
    const std::size_t n = g.node_count();
    Session session(g, pricing::Protocol::kPriceVector);
    session.track_dirty_destinations(true);
    ASSERT_TRUE(session.run().converged);

    std::uint64_t prev_epoch = session.engine().converged_epochs();
    std::shared_ptr<const RouteSnapshot> prev =
        RouteSnapshot::from_session(session, prev_epoch);
    ASSERT_TRUE(prev->self_check());

    util::Rng rng(spec.seed * 7919);
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      // A burst of 1-3 cost changes, reconverged once (the serving layer's
      // coalescing primitive). Topology stays fixed, so the incremental
      // path must engage.
      std::vector<Session::Event> burst;
      const std::size_t count = 1 + rng.below(3);
      for (std::size_t e = 0; e < count; ++e) {
        const NodeId v = static_cast<NodeId>(rng.below(n));
        burst.push_back(Session::Event::cost_change(
            v, Cost{static_cast<Cost::rep>(rng.below(25))}));
      }
      ASSERT_TRUE(
          session.apply_events(burst, RestartPolicy::kRestartBarrier)
              .converged);

      const std::uint64_t epoch = session.engine().converged_epochs();
      const auto dirty = session.dirty_destinations(prev_epoch);
      ASSERT_TRUE(dirty.has_value());

      SnapshotExportStats stats;
      const auto incremental = RouteSnapshot::from_session(
          session, epoch, prev, dirty, nullptr, nullptr, &stats);
      const auto full = RouteSnapshot::from_session(session, epoch);

      EXPECT_TRUE(incremental->self_check());
      EXPECT_EQ(incremental->content_checksum(), full->content_checksum());
      EXPECT_FALSE(stats.full_rebuild);
      EXPECT_EQ(stats.rows_rebuilt, dirty->size());
      EXPECT_EQ(stats.rows_reused, n - dirty->size());
      // Every clean destination's block is the *same object* as prev's —
      // the CoW contract the sharded store's readers lean on.
      for (NodeId j = 0; j < n; ++j) {
        const bool is_dirty =
            std::binary_search(dirty->begin(), dirty->end(), j);
        if (!is_dirty) {
          EXPECT_TRUE(incremental->shares_block_with(*prev, j)) << "j=" << j;
        }
      }
      prev = incremental;
      prev_epoch = epoch;
    }
  }
}

TEST(IncrementalExport, NoOpDeltaRebuildsNothing) {
  const auto f = graphgen::fig1();
  Session session(f.g, pricing::Protocol::kPriceVector);
  session.track_dirty_destinations(true);
  ASSERT_TRUE(session.run().converged);
  const std::uint64_t epoch = session.engine().converged_epochs();
  const auto prev = RouteSnapshot::from_session(session, epoch);

  // Nothing happened since the export: the dirty set is empty and the
  // incremental export shares every block.
  const auto dirty = session.dirty_destinations(epoch);
  ASSERT_TRUE(dirty.has_value());
  EXPECT_TRUE(dirty->empty());

  SnapshotExportStats stats;
  const auto next = RouteSnapshot::from_session(session, epoch, prev, dirty,
                                                nullptr, nullptr, &stats);
  EXPECT_EQ(stats.rows_rebuilt, 0u);
  EXPECT_EQ(stats.rows_reused, f.g.node_count());
  EXPECT_FALSE(stats.full_rebuild);
  EXPECT_EQ(next->content_checksum(), prev->content_checksum());
  for (NodeId j = 0; j < f.g.node_count(); ++j)
    EXPECT_TRUE(next->shares_block_with(*prev, j));
  EXPECT_TRUE(next->self_check());
}

TEST(IncrementalExport, TopologyChangeFallsBackToFullRebuild) {
  const auto f = graphgen::fig1();
  Session session(f.g, pricing::Protocol::kPriceVector);
  session.track_dirty_destinations(true);
  ASSERT_TRUE(session.run().converged);
  const std::uint64_t epoch0 = session.engine().converged_epochs();
  const auto prev = RouteSnapshot::from_session(session, epoch0);

  // A link removal moves the graph generation: prev's rows describe a
  // different topology, so the export must not trust the dirty set and
  // re-extracts every row (rows that come out byte-identical still keep
  // prev's block).
  ASSERT_TRUE(
      session.remove_link(f.x, f.a, RestartPolicy::kRestartBarrier).converged);
  const std::uint64_t epoch1 = session.engine().converged_epochs();
  const auto dirty = session.dirty_destinations(epoch0);
  ASSERT_TRUE(dirty.has_value());

  SnapshotExportStats stats;
  const auto incremental = RouteSnapshot::from_session(
      session, epoch1, prev, dirty, nullptr, nullptr, &stats);
  EXPECT_TRUE(stats.full_rebuild);
  EXPECT_EQ(stats.rows_rebuilt, f.g.node_count());
  EXPECT_EQ(stats.rows_reused, 0u);
  const auto full = RouteSnapshot::from_session(session, epoch1);
  EXPECT_EQ(incremental->content_checksum(), full->content_checksum());
  EXPECT_TRUE(incremental->self_check());
}

// --- ShardedSnapshotStore --------------------------------------------------

TEST(ShardedStore, PublishSwapsOnlyDirtyShards) {
  const test::InstanceSpec spec{"er", 20, 555, 10};
  const graph::Graph g = test::make_instance(spec);
  const std::size_t n = g.node_count();
  Session session(g, pricing::Protocol::kPriceVector);
  session.track_dirty_destinations(true);
  ASSERT_TRUE(session.run().converged);
  const std::uint64_t epoch0 = session.engine().converged_epochs();
  const auto first = RouteSnapshot::from_session(session, epoch0);

  ShardedSnapshotStore store;
  const std::size_t shard_size = service::shard_size_of(n, 4);
  EXPECT_EQ(shard_size, 5u);
  EXPECT_TRUE(store.acquire().empty());
  EXPECT_EQ(store.version(), 0u);

  EXPECT_TRUE(store.export_cut().shard_versions.empty());

  // The first publish stamps every shard.
  EXPECT_EQ(store.publish(first, 4), 4u);
  ASSERT_EQ(store.shard_count(), 4u);
  EXPECT_EQ(store.version(), epoch0);
  EXPECT_EQ(store.export_cut().shard_versions,
            std::vector<std::uint64_t>(4, epoch0));

  // One cost change; only the shards holding dirty destinations, which are
  // exactly the re-extracted blocks, are stamped.
  ASSERT_TRUE(
      session.change_cost(0, Cost{40}, RestartPolicy::kRestartBarrier)
          .converged);
  const std::uint64_t epoch1 = session.engine().converged_epochs();
  const auto dirty = session.dirty_destinations(epoch0);
  ASSERT_TRUE(dirty.has_value());
  ASSERT_FALSE(dirty->empty());

  SnapshotExportStats stats;
  const auto second = RouteSnapshot::from_session(
      session, epoch1, first, dirty, nullptr, nullptr, &stats);
  std::vector<bool> shard_dirty(store.shard_count(), false);
  for (const NodeId j : *dirty) shard_dirty[j / shard_size] = true;
  const std::size_t dirty_shards =
      static_cast<std::size_t>(
          std::count(shard_dirty.begin(), shard_dirty.end(), true));

  EXPECT_EQ(store.publish(second, 4), dirty_shards);
  EXPECT_EQ(store.version(), epoch1);
  EXPECT_EQ(store.acquire().newest, second);
  const auto versions = store.export_cut().shard_versions;
  for (std::size_t s = 0; s < store.shard_count(); ++s)
    EXPECT_EQ(versions[s], shard_dirty[s] ? epoch1 : epoch0) << "s=" << s;

  // What a republish exports: every block shared with `newest`. No shard
  // is stamped, yet newest and the version advance.
  const auto republished = RouteSnapshot::from_session(
      session, epoch1 + 1, second, std::vector<NodeId>{});
  for (NodeId j = 0; j < n; ++j)
    ASSERT_TRUE(republished->shares_block_with(*second, j)) << "j=" << j;
  EXPECT_EQ(store.publish(republished, 4), 0u);
  EXPECT_EQ(store.acquire().newest, republished);
  EXPECT_EQ(store.version(), epoch1 + 1);
  EXPECT_EQ(store.export_cut().shard_versions, versions);

  // An export without a base makes a new block per row even for the
  // unchanged state, so every shard is stamped: block identity decides,
  // not content.
  const auto full = RouteSnapshot::from_session(session, epoch1 + 2);
  EXPECT_EQ(full->content_checksum(), republished->content_checksum());
  EXPECT_EQ(store.publish(full, 4), 4u);
  EXPECT_EQ(store.export_cut().shard_versions,
            std::vector<std::uint64_t>(4, epoch1 + 2));
}

// The store is never replaced: a publish that changes the layout or the
// node count, or goes back in version, re-bases it in place.
TEST(ShardedStore, RebasesOnLayoutNodeCountOrLowerVersion) {
  Session session(test::make_instance({"er", 12, 556, 8}),
                  pricing::Protocol::kPriceVector);
  ASSERT_TRUE(session.run().converged);
  // Exports of one converged state that share every block with `base`.
  const auto base = RouteSnapshot::from_session(session, 5);
  const auto at = [&](std::uint64_t version) {
    return RouteSnapshot::from_session(session, version, base,
                                       std::vector<NodeId>{});
  };
  const auto stamped_all = [](const ShardedSnapshotStore& s,
                              std::uint64_t version) {
    return s.export_cut().shard_versions ==
           std::vector<std::uint64_t>(s.shard_count(), version);
  };

  ShardedSnapshotStore store;
  EXPECT_EQ(store.publish(base, 3), 3u);   // the first publish
  EXPECT_EQ(store.publish(at(6), 3), 0u);  // same layout, shared blocks
  EXPECT_TRUE(stamped_all(store, 5));
  EXPECT_EQ(store.publish(at(7), 4), 4u);  // another layout
  EXPECT_TRUE(stamped_all(store, 7));
  EXPECT_EQ(store.publish(at(2), 4), 4u);  // a lower version
  EXPECT_TRUE(stamped_all(store, 2));
  EXPECT_EQ(store.version(), 2u);

  const auto f = graphgen::fig1();  // 6 nodes
  Session small(f.g, pricing::Protocol::kPriceVector);
  ASSERT_TRUE(small.run().converged);
  const auto other = RouteSnapshot::from_session(small, 3);
  EXPECT_EQ(store.publish(other, 4), 4u);  // another node count
  EXPECT_TRUE(stamped_all(store, 3));

  // Layouts clamp to [1, n], so a layout beyond n compares as n.
  const auto other_again =
      RouteSnapshot::from_session(small, 4, other, std::vector<NodeId>{});
  EXPECT_EQ(store.publish(other_again, 0), 1u);
  EXPECT_EQ(store.shard_count(), 1u);
  EXPECT_EQ(store.publish(at(8), 999), 12u);
  EXPECT_EQ(store.shard_count(), 12u);
  EXPECT_EQ(store.publish(at(9), 999), 0u);
  EXPECT_TRUE(stamped_all(store, 8));
}

TEST(ShardedStore, WaitBlocksUntilAPublishPassesTheCount) {
  const auto f = graphgen::fig1();
  Session session(f.g, pricing::Protocol::kPriceVector);
  ASSERT_TRUE(session.run().converged);
  const auto v1 = RouteSnapshot::from_session(session, 1);
  const auto v2 = RouteSnapshot::from_session(session, 2);
  ShardedSnapshotStore store;

  // An empty store serves version 0 and times out.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(store.wait_for_version_beyond(0, 30), 0u);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(30));

  // Version 1 does not pass 1; the waiter sleeps through it and wakes at 2.
  std::thread publisher([&] {
    store.publish(v1, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    store.publish(v2, 1);
  });
  EXPECT_EQ(store.wait_for_version_beyond(1, 10000), 2u);
  publisher.join();

  // At timeout the served version comes back.
  EXPECT_EQ(store.wait_for_version_beyond(2, 20), 2u);
}

// --- RouteService acceptance ----------------------------------------------

// Two disjoint 6-cycles: a cost change in one component cannot touch the
// other's sink trees, so the rows-reused floor is deterministic.
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

TEST(RouteServicePublish, SingleDeltaRebuildsOnlyDirtySinkTrees) {
  ServiceConfig config;
  config.shards = 4;  // destinations 0-2, 3-5, 6-8, 9-11
  RouteService svc(two_cycles(), config);
  ASSERT_EQ(svc.store().shard_count(), 4u);

  // The unavoidable first build: everything rebuilt, every shard swapped.
  const auto c0 = svc.counters();
  EXPECT_EQ(c0.publishes, 1u);
  EXPECT_EQ(c0.rows_rebuilt, 12u);
  EXPECT_EQ(c0.rows_reused, 0u);
  EXPECT_EQ(c0.shards_republished, 4u);
  EXPECT_EQ(c0.full_rebuilds, 0u);

  // One cost delta in the first component: the second component's six
  // sink trees are untouched and must be reused, and the two shards that
  // hold them must not be republished.
  svc.submit(RouteService::Delta::cost_change(0, Cost{50}));
  svc.drain();
  const auto c1 = svc.counters();
  EXPECT_EQ(c1.publishes, 2u);
  EXPECT_EQ(c1.full_rebuilds, 0u);
  EXPECT_GE(c1.rows_reused, 6u);
  EXPECT_LE(c1.rows_rebuilt - c0.rows_rebuilt, 6u);
  EXPECT_EQ(c1.rows_rebuilt + c1.rows_reused, c0.rows_rebuilt + 12u);
  EXPECT_LE(c1.shards_republished - c0.shards_republished, 2u);
  EXPECT_GE(c1.shards_republished, c0.shards_republished + 1u);
  EXPECT_GT(c1.publish_total_ns, 0u);
  EXPECT_GT(c1.max_publish_ns, 0u);

  // The served answers reflect the delta (the incremental snapshot is not
  // just cheap — it is current).
  EXPECT_EQ(svc.snapshot()->node_cost(0), Cost{50});

  // A topology delta re-extracts every row, but the second component's
  // rows come out byte-identical and keep their blocks, so only the first
  // component's shards are stamped.
  svc.submit(RouteService::Delta::add_link(0, 3));
  svc.drain();
  const auto c2 = svc.counters();
  EXPECT_EQ(c2.full_rebuilds, 1u);
  EXPECT_EQ(c2.rows_rebuilt, c1.rows_rebuilt + 12u);
  EXPECT_GE(c2.shards_republished, c1.shards_republished + 1u);
  EXPECT_LE(c2.shards_republished, c1.shards_republished + 2u);
}

// The one sharing rule as a property: after every publish a destination
// keeps its block exactly when its digest is unchanged, whether the export
// re-extracted a dirty set (cost change) or every row (link removal).
TEST(RouteServicePublish, SharingIsExactAcrossTopologyChanges) {
  const std::vector<test::InstanceSpec> specs = {
      {"er", 24, 301, 10},
      {"ba", 24, 302, 8},
      {"grid", 24, 303, 5},
  };
  for (const auto& spec : specs) {
    SCOPED_TRACE(std::string(spec.family) + " n=" + std::to_string(spec.n));
    graph::Graph g = test::make_instance(spec);
    const NodeId n = static_cast<NodeId>(g.node_count());
    ServiceConfig config;
    config.shards = 4;
    RouteService svc(g, config);

    util::Rng rng(spec.seed * 4099);
    for (int round = 0; round < 8; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const auto prev = svc.snapshot();
      if (round % 2 == 0) {
        const NodeId v = static_cast<NodeId>(rng.below(n));
        const Cost cost{static_cast<Cost::rep>(
            1 + rng.below(static_cast<std::uint64_t>(spec.max_cost)))};
        g.set_cost(v, cost);
        svc.submit(RouteService::Delta::cost_change(v, cost));
      } else {
        // Remove a link whose removal keeps the graph biconnected.
        const auto edges = g.edges();
        bool removed = false;
        for (std::size_t tries = 0; tries < 4 * edges.size() && !removed;
             ++tries) {
          const auto [u, v] = edges[rng.below(edges.size())];
          graph::Graph trial = g;
          trial.remove_edge(u, v);
          if (!graph::is_biconnected(trial)) continue;
          g = std::move(trial);
          svc.submit(RouteService::Delta::remove_link(u, v));
          removed = true;
        }
        ASSERT_TRUE(removed);
      }
      svc.drain();
      const auto next = svc.snapshot();
      ASSERT_NE(next, prev);
      for (NodeId j = 0; j < n; ++j)
        EXPECT_EQ(next->shares_block_with(*prev, j),
                  next->block_digest(j) == prev->block_digest(j))
            << "j=" << j;
      const RouteService cold(g, config);
      EXPECT_EQ(next->content_checksum(),
                cold.snapshot()->content_checksum());
    }
  }
}

// --- concurrent readers over sharded publishes (the TSan hunt) -------------

TEST(ShardedStore, ConcurrentReadersNeverSeeTornViews) {
  const test::InstanceSpec spec{"er", 24, 777, 12};
  const graph::Graph g = test::make_instance(spec);
  const std::size_t n = g.node_count();
  Session session(g, pricing::Protocol::kPriceVector);
  session.track_dirty_destinations(true);
  ASSERT_TRUE(session.run().converged);
  std::uint64_t prev_epoch = session.engine().converged_epochs();
  std::shared_ptr<const RouteSnapshot> prev =
      RouteSnapshot::from_session(session, prev_epoch);

  ShardedSnapshotStore store;
  store.publish(prev, 6);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> views_checked{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&store, &done, &views_checked, n] {
      std::uint64_t last_version = 0;
      while (!done.load(std::memory_order_relaxed)) {
        const auto view = store.acquire();
        if (view.empty()) continue;
        // Versions move forward only, and every route read from the
        // acquired snapshot costs the sum of its transit nodes' costs.
        const RouteSnapshot& snap = *view.newest;
        EXPECT_GE(snap.version(), last_version);
        last_version = snap.version();
        for (NodeId j = 1; j < n; ++j) {
          const Cost c = snap.cost(0, j);
          if (c.is_infinite()) continue;
          Cost::rep along = 0;
          for (const NodeId k : snap.path(0, j))
            if (k != 0 && k != j) along += snap.node_cost(k).value();
          ASSERT_EQ(Cost{along}, c) << "j=" << j;
        }
        views_checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  util::Rng rng(4242);
  for (int round = 0; round < 8; ++round) {
    const NodeId v = static_cast<NodeId>(rng.below(n));
    ASSERT_TRUE(session
                    .change_cost(v, Cost{static_cast<Cost::rep>(rng.below(30))},
                                 RestartPolicy::kRestartBarrier)
                    .converged);
    const std::uint64_t epoch = session.engine().converged_epochs();
    const auto dirty = session.dirty_destinations(prev_epoch);
    ASSERT_TRUE(dirty.has_value());
    const auto next =
        RouteSnapshot::from_session(session, epoch, prev, dirty);
    store.publish(next, 6);
    prev = next;
    prev_epoch = epoch;
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_GT(views_checked.load(), 0u);
  EXPECT_TRUE(store.newest()->self_check());
}

TEST(RouteServicePublish, ConcurrentQueriesDuringShardedPublishes) {
  ServiceConfig config;
  config.shards = 3;
  const test::InstanceSpec spec{"ba", 18, 888, 9};
  RouteService svc(test::make_instance(spec), config);
  const NodeId n = static_cast<NodeId>(svc.node_count());

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&svc, &done, n, r] {
      util::Rng rng(static_cast<std::uint64_t>(900 + r));
      std::uint64_t last_version = 0;
      while (!done.load(std::memory_order_relaxed)) {
        std::vector<service::Request> batch;
        for (int q = 0; q < 8; ++q) {
          service::Request req;
          req.kind = (q % 2 == 0) ? service::RequestKind::kCost
                                  : service::RequestKind::kPrice;
          req.k = static_cast<NodeId>(rng.below(n));
          req.i = static_cast<NodeId>(rng.below(n));
          req.j = static_cast<NodeId>(rng.below(n));
          batch.push_back(req);
        }
        const auto replies = svc.query(batch);
        for (const auto& reply : replies) {
          // All replies in one batch carry the same composite provenance,
          // and it never moves backwards across batches.
          EXPECT_EQ(reply.snapshot_version, replies.front().snapshot_version);
          EXPECT_GE(reply.snapshot_version, last_version);
        }
        last_version = replies.front().snapshot_version;
      }
    });
  }

  util::Rng rng(31337);
  for (int round = 0; round < 10; ++round) {
    svc.submit(RouteService::Delta::cost_change(
        static_cast<NodeId>(rng.below(n)),
        Cost{static_cast<Cost::rep>(rng.below(20))}));
    svc.drain();
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_GE(svc.counters().publishes, 2u);
}

}  // namespace
}  // namespace fpss
