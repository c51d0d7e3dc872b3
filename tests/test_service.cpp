// The serving layer: RouteSnapshot export fidelity, binary persistence,
// store publication, and the RouteService's concurrent
// publish/read contract (the suite the CI TSan job runs).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "common.h"
#include "graphgen/fixtures.h"
#include "mechanism/vcg.h"
#include "pricing/session.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "service/snapshot.h"
#include "service/store.h"
#include "util/rng.h"

namespace fpss {
namespace {

using service::RouteService;
using service::RouteSnapshot;
using service::ServiceConfig;
using service::ShardedSnapshotStore;

std::shared_ptr<const RouteSnapshot> converge_and_export(
    const graph::Graph& g,
    pricing::Protocol protocol = pricing::Protocol::kPriceVector) {
  pricing::Session session(g, protocol);
  EXPECT_TRUE(session.run().converged);
  return RouteSnapshot::from_session(session,
                                     session.engine().converged_epochs());
}

TEST(RouteSnapshot, MatchesMechanismOnFig1) {
  const auto f = graphgen::fig1();
  const auto snap = converge_and_export(f.g);
  const mechanism::VcgMechanism mech(f.g);
  const std::size_t n = f.g.node_count();

  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      if (i == j) {
        // Self-pairs are the snapshot's own convention: zero everywhere
        // (the centralized mechanism rejects them by precondition).
        EXPECT_EQ(snap->cost(i, j), Cost::zero());
        EXPECT_EQ(snap->pair_payment(i, j), Cost::zero());
        continue;
      }
      EXPECT_EQ(snap->cost(i, j), mech.routes().cost(i, j));
      EXPECT_EQ(snap->path(i, j), mech.routes().path(i, j));
      EXPECT_EQ(snap->pair_payment(i, j), mech.pair_payment(i, j));
      for (NodeId k = 0; k < n; ++k)
        EXPECT_EQ(snap->price(k, i, j), mech.price(k, i, j))
            << "k=" << k << " i=" << i << " j=" << j;
    }
  }
  EXPECT_TRUE(snap->self_check());
  // The worked numbers of Fig. 1 (E1/E2).
  EXPECT_EQ(snap->price(f.d, f.x, f.z), Cost{3});
  EXPECT_EQ(snap->price(f.b, f.x, f.z), Cost{4});
  EXPECT_EQ(snap->price(f.d, f.y, f.z), Cost{9});
}

TEST(RouteSnapshot, MatchesMechanismAcrossFamilies) {
  for (const auto& spec : std::vector<test::InstanceSpec>{
           {"er", 20, 31, 9}, {"ba", 24, 32, 12}, {"tiered", 24, 33, 6}}) {
    const graph::Graph g = test::make_instance(spec);
    const auto snap = converge_and_export(g, pricing::Protocol::kAvoidanceVector);
    const mechanism::VcgMechanism mech(g);
    ASSERT_TRUE(snap->self_check());
    util::Rng rng(spec.seed);
    for (int samples = 0; samples < 400; ++samples) {
      const NodeId i = static_cast<NodeId>(rng.below(g.node_count()));
      const NodeId j = static_cast<NodeId>(rng.below(g.node_count()));
      const NodeId k = static_cast<NodeId>(rng.below(g.node_count()));
      if (i == j) continue;
      EXPECT_EQ(snap->cost(i, j), mech.routes().cost(i, j));
      EXPECT_EQ(snap->price(k, i, j), mech.price(k, i, j))
          << spec.family << " k=" << k << " i=" << i << " j=" << j;
    }
  }
}

TEST(RouteSnapshot, SelfPairsMonopoliesAndUnreachable) {
  // A path graph makes every interior node a monopoly: prices infinite.
  auto snap = converge_and_export(graphgen::path_graph(4));
  EXPECT_EQ(snap->cost(0, 0), Cost::zero());
  EXPECT_EQ(snap->path(2, 2), (graph::Path{2}));
  EXPECT_EQ(snap->next_hop(1, 1), kInvalidNode);
  EXPECT_TRUE(snap->price(1, 0, 3).is_infinite());
  EXPECT_TRUE(snap->pair_payment(0, 3).is_infinite());
  EXPECT_TRUE(snap->self_check());

  // Two components: cross pairs unreachable, empty paths, zero prices.
  graph::Graph split(4);
  split.add_edge(0, 1);
  split.add_edge(2, 3);
  snap = converge_and_export(split);
  EXPECT_TRUE(snap->cost(0, 3).is_infinite());
  EXPECT_FALSE(snap->reachable(0, 2));
  EXPECT_TRUE(snap->path(0, 3).empty());
  EXPECT_EQ(snap->next_hop(0, 3), kInvalidNode);
  EXPECT_EQ(snap->price(1, 0, 3), Cost::zero());
  EXPECT_EQ(snap->cost(2, 3), Cost::zero());  // direct link, no transit
  EXPECT_TRUE(snap->self_check());
}

TEST(RouteSnapshot, SaveLoadRoundTripIsBitIdentical) {
  const graph::Graph g = test::make_instance({"er", 24, 41, 15});
  const auto snap = converge_and_export(g);
  const std::string path = ::testing::TempDir() + "/fpss_snap_test.bin";

  const auto saved = service::save_snapshot(*snap, path);
  ASSERT_TRUE(saved.ok()) << saved.error;
  const auto loaded = service::load_snapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const RouteSnapshot& reloaded = *loaded.snapshot;

  EXPECT_EQ(reloaded.checksum(), snap->checksum());
  EXPECT_EQ(reloaded.version(), snap->version());
  EXPECT_EQ(reloaded.graph_version(), snap->graph_version());
  EXPECT_TRUE(reloaded.self_check());
  const std::size_t n = g.node_count();
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      ASSERT_EQ(reloaded.cost(i, j), snap->cost(i, j));
      ASSERT_EQ(reloaded.next_hop(i, j), snap->next_hop(i, j));
      ASSERT_EQ(reloaded.path(i, j), snap->path(i, j));
      ASSERT_EQ(reloaded.pair_payment(i, j), snap->pair_payment(i, j));
    }
  }

  // Re-saving the reloaded snapshot must reproduce the file byte for byte.
  const std::string path2 = ::testing::TempDir() + "/fpss_snap_test2.bin";
  ASSERT_TRUE(service::save_snapshot(reloaded, path2).ok());
  std::ifstream a(path, std::ios::binary), b(path2, std::ios::binary);
  std::string bytes_a((std::istreambuf_iterator<char>(a)),
                      std::istreambuf_iterator<char>());
  std::string bytes_b((std::istreambuf_iterator<char>(b)),
                      std::istreambuf_iterator<char>());
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(RouteSnapshot, LoadRejectsCorruption) {
  EXPECT_NE(service::load_snapshot("/nonexistent/x.snap").error.find(
                "cannot open"),
            std::string::npos);

  const auto snap = converge_and_export(graphgen::fig1().g);
  const std::string path = ::testing::TempDir() + "/fpss_snap_corrupt.bin";
  ASSERT_TRUE(service::save_snapshot(*snap, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  auto rewrite = [&](const std::string& mutated) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << mutated;
  };

  // Flip one byte near the end (the final chunk's sent list): the stream
  // must not assemble.
  std::string flipped = bytes;
  flipped[flipped.size() - 5] =
      static_cast<char>(flipped[flipped.size() - 5] ^ 0x40);
  rewrite(flipped);
  EXPECT_FALSE(service::load_snapshot(path).ok());

  // Flip the low bit of a cost value — c(1, 0) in the first record, after
  // the 16-byte file header, the record length, the 41-byte data chunk
  // header, destination 0's next_hop[n] and cost[0]. The block stays
  // structurally valid, so only the root checksum can catch it.
  const std::size_t cost_at = 16 + 8 + 41 + 4 * snap->node_count() + 8;
  std::string cost_flip = bytes;
  cost_flip[cost_at] = static_cast<char>(cost_flip[cost_at] ^ 0x01);
  rewrite(cost_flip);
  EXPECT_NE(service::load_snapshot(path).error.find("checksum mismatch"),
            std::string::npos);

  // Truncation.
  rewrite(bytes.substr(0, bytes.size() - 9));
  EXPECT_NE(service::load_snapshot(path).error.find("length mismatch"),
            std::string::npos);

  // Bad magic.
  std::string wrong = bytes;
  wrong[0] = 'X';
  rewrite(wrong);
  EXPECT_NE(service::load_snapshot(path).error.find("bad magic"),
            std::string::npos);

  std::remove(path.c_str());
}

TEST(SnapshotStore, PublishesAtomicallyAndKeepsOldEpochsAlive) {
  const auto f = graphgen::fig1();
  pricing::Session session(f.g, pricing::Protocol::kPriceVector);
  ASSERT_TRUE(session.run().converged);

  // One shard: every publish is a whole-store pointer swap.
  ShardedSnapshotStore store(f.g.node_count(), 1);
  EXPECT_EQ(store.export_cut().shard_versions,
            std::vector<std::uint64_t>{0});
  EXPECT_EQ(store.newest(), nullptr);
  EXPECT_EQ(store.version(), 0u);

  const auto v1 = RouteSnapshot::from_session(
      session, session.engine().converged_epochs());
  EXPECT_EQ(store.publish(v1), 1u);
  EXPECT_EQ(store.version(), 1u);
  EXPECT_EQ(store.publish_count(), 1u);

  const auto held = store.newest();  // a reader holding epoch 1
  session.change_cost(f.d, Cost{7}, pricing::RestartPolicy::kRestartBarrier);
  const auto v2 = RouteSnapshot::from_session(
      session, session.engine().converged_epochs());
  EXPECT_EQ(store.publish(v2), 1u);
  const auto view = store.acquire();
  EXPECT_EQ(view.newest, v2);
  EXPECT_EQ(store.export_cut().shard_versions,
            std::vector<std::uint64_t>{v2->version()});
  EXPECT_GT(store.version(), 1u);
  EXPECT_EQ(store.publish_count(), 2u);

  // The held epoch still answers consistently even though it was displaced.
  EXPECT_EQ(held->version(), 1u);
  EXPECT_TRUE(held->self_check());
  EXPECT_EQ(held->price(f.d, f.x, f.z), Cost{3});
}

TEST(Engine, ConvergedEpochsAdvanceOnlyAtConvergence) {
  const auto f = graphgen::fig1();
  pricing::Session session(f.g, pricing::Protocol::kPriceVector);
  EXPECT_EQ(session.engine().converged_epochs(), 0u);
  ASSERT_TRUE(session.run().converged);
  EXPECT_EQ(session.engine().converged_epochs(), 1u);
  // A restart-barrier event reconverges in two runs: routes, then prices.
  session.change_cost(f.b, Cost{3}, pricing::RestartPolicy::kRestartBarrier);
  EXPECT_EQ(session.engine().converged_epochs(), 3u);
}

TEST(RouteService, ServesConvergedStateImmediately) {
  const auto f = graphgen::fig1();
  RouteService svc(f.g);
  EXPECT_EQ(svc.node_count(), f.g.node_count());
  EXPECT_EQ(svc.publish_count(), 1u);
  EXPECT_EQ(svc.price(f.d, f.x, f.z), Cost{3});
  EXPECT_EQ(svc.price(f.b, f.x, f.z), Cost{4});
  EXPECT_EQ(svc.cost(f.x, f.z), Cost{3});
  EXPECT_EQ(svc.path(f.x, f.z), (graph::Path{f.x, f.b, f.d, f.z}));
  const auto counters = svc.counters();
  EXPECT_EQ(counters.queries, 4u);
  EXPECT_EQ(counters.batches, 4u);
}

TEST(RouteService, BackgroundDeltasReachReadersWithMechanismExactness) {
  const graph::Graph g = test::make_instance({"er", 20, 51, 10});
  RouteService svc(g);
  const std::uint64_t v1 = svc.version();

  // Cost change + a link removal (biconnected input: stays connected).
  const auto edge = g.edges().front();
  svc.submit({RouteService::Delta::cost_change(3, Cost{42}),
              RouteService::Delta::remove_link(edge.first, edge.second)});
  svc.drain();
  EXPECT_GT(svc.version(), v1);
  EXPECT_EQ(svc.counters().deltas_applied, 2u);

  graph::Graph mutated = g;
  mutated.set_cost(3, Cost{42});
  mutated.remove_edge(edge.first, edge.second);
  const mechanism::VcgMechanism mech(mutated);
  const auto snap = svc.snapshot();
  ASSERT_TRUE(snap->self_check());
  for (NodeId i = 0; i < g.node_count(); ++i)
    for (NodeId j = 0; j < g.node_count(); ++j)
      ASSERT_EQ(snap->cost(i, j), mech.routes().cost(i, j));
  util::Rng rng(52);
  for (int samples = 0; samples < 300; ++samples) {
    const NodeId i = static_cast<NodeId>(rng.below(g.node_count()));
    const NodeId j = static_cast<NodeId>(rng.below(g.node_count()));
    const NodeId k = static_cast<NodeId>(rng.below(g.node_count()));
    if (i == j) continue;
    ASSERT_EQ(snap->price(k, i, j), mech.price(k, i, j));
  }

  // Restoring the link reconverges back to the original mechanism state.
  svc.submit(RouteService::Delta::add_link(edge.first, edge.second));
  svc.submit(RouteService::Delta::cost_change(3, g.cost(3)));
  svc.drain();
  const mechanism::VcgMechanism original(g);
  const auto back = svc.snapshot();
  for (NodeId i = 0; i < g.node_count(); ++i)
    for (NodeId j = 0; j < g.node_count(); ++j)
      ASSERT_EQ(back->cost(i, j), original.routes().cost(i, j));
}

TEST(RouteService, BatchedQueriesShareOneEpochAndCount) {
  const auto f = graphgen::fig1();
  RouteService svc(f.g);
  std::vector<service::Request> batch;
  batch.push_back({service::RequestKind::kCost, kInvalidNode, f.x, f.z});
  batch.push_back({service::RequestKind::kPrice, f.d, f.x, f.z});
  batch.push_back({service::RequestKind::kPairPayment, kInvalidNode,
                   f.x, f.z});
  batch.push_back({service::RequestKind::kNextHop, kInvalidNode, f.x,
                   f.z});
  batch.push_back({service::RequestKind::kPath, kInvalidNode, f.x, f.z});
  batch.push_back({service::RequestKind::kPayment, f.d, kInvalidNode,
                   kInvalidNode});

  const auto answers = svc.query(batch);
  ASSERT_EQ(answers.size(), batch.size());
  EXPECT_EQ(answers[0].value, Cost{3});
  EXPECT_EQ(answers[1].value, Cost{3});
  EXPECT_EQ(answers[2].value, Cost{7});  // p^B + p^D = 4 + 3
  EXPECT_EQ(answers[3].node, f.b);
  EXPECT_EQ(answers[4].path, (graph::Path{f.x, f.b, f.d, f.z}));
  EXPECT_EQ(answers[5].amount, 0);
  for (const auto& a : answers) {
    EXPECT_EQ(a.snapshot_version, answers[0].snapshot_version);
    EXPECT_EQ(a.published_at_ns, answers[0].published_at_ns);
  }

  const auto counters = svc.counters();
  EXPECT_EQ(counters.queries, batch.size());
  EXPECT_EQ(counters.batches, 1u);
  EXPECT_GT(counters.total_ns, 0u);
  EXPECT_GE(counters.max_batch_ns, counters.total_ns / counters.batches);
}

TEST(RouteService, ChargesReachPaymentTotalsOnRepublish) {
  const auto f = graphgen::fig1();
  RouteService svc(f.g);
  svc.charge(f.x, f.z, 100);  // p^D = 3, p^B = 4 per packet
  svc.charge(f.y, f.z, 10);   // p^D = 9 per packet

  // Totals are embedded at publish time: force one and wait.
  const std::uint64_t target = svc.publish_count() + 1;
  svc.submit(RouteService::Delta::republish());
  svc.wait_for_publishes(target);

  EXPECT_EQ(svc.payment(f.d), 100 * 3 + 10 * 9);
  EXPECT_EQ(svc.payment(f.b), 100 * 4);
  EXPECT_EQ(svc.payment(f.a), 0);
  const auto snap = svc.snapshot();
  EXPECT_EQ(snap->payment_owed(f.d), 390);
  EXPECT_EQ(snap->payment_settled(f.d), 0);

  // settle() moves owed into settled; totals are preserved.
  svc.settle();
  svc.submit(RouteService::Delta::republish());
  svc.wait_for_publishes(target + 1);
  EXPECT_EQ(svc.snapshot()->payment_settled(f.d), 390);
  EXPECT_EQ(svc.snapshot()->payment_owed(f.d), 0);
  EXPECT_EQ(svc.payment(f.d), 390);
  EXPECT_EQ(svc.counters().charges, 2u);
}

// The acceptance test for the publish/read contract, run under TSan in CI:
// reader threads hammer queries while the updater applies topology and
// cost deltas and republishes. Every observation must come from a
// complete, internally consistent snapshot — a torn read would break the
// cost-equals-sum-of-transit-costs identity or the digest.
TEST(RouteService, ConcurrentReadersNeverObserveTornSnapshots) {
  const graph::Graph g = test::make_instance({"er", 16, 61, 8});
  RouteService svc(g);

  constexpr int kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng(1000 + static_cast<std::uint64_t>(r));
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = svc.snapshot();
        const NodeId i =
            static_cast<NodeId>(rng.below(snap->node_count()));
        const NodeId j =
            static_cast<NodeId>(rng.below(snap->node_count()));
        // The identity every complete snapshot satisfies: the stored pair
        // cost equals the sum of the declared costs along the stored path.
        Cost along = Cost::zero();
        const graph::Path p = snap->path(i, j);
        for (std::size_t h = 1; h + 1 < p.size(); ++h)
          along += snap->node_cost(p[h]);
        const bool ok = (i == j || p.size() >= 2 || !snap->reachable(i, j)) &&
                        (!snap->reachable(i, j) || along == snap->cost(i, j));
        if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
        if (reads.fetch_add(1, std::memory_order_relaxed) % 512 == 0)
          if (!snap->self_check())
            failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Two full re-convergence cycles (plus a republish) under read load.
  const auto edge = g.edges().back();
  svc.submit(RouteService::Delta::cost_change(1, Cost{77}));
  svc.drain();
  svc.submit({RouteService::Delta::remove_link(edge.first, edge.second),
              RouteService::Delta::cost_change(1, g.cost(1))});
  svc.drain();
  svc.submit(RouteService::Delta::add_link(edge.first, edge.second));
  const std::uint64_t version = svc.drain();

  // Let readers observe the final epoch too.
  while (reads.load(std::memory_order_relaxed) < 5000) {
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(reads.load(), 5000u);
  EXPECT_GE(svc.publish_count(), 4u);  // initial + three delta publishes
  EXPECT_EQ(svc.snapshot()->version(), version);
  EXPECT_TRUE(svc.snapshot()->self_check());
}

}  // namespace
}  // namespace fpss
