#include <gtest/gtest.h>

#include "common.h"
#include "graph/path.h"
#include "policy/relationships.h"
#include "policy/simulation.h"
#include "routing/all_pairs.h"

namespace fpss {
namespace {

using policy::Relation;
using policy::Relationships;

graphgen::TieredGraph make_tiered(std::uint64_t seed, std::size_t core = 4,
                                  std::size_t mid = 10,
                                  std::size_t stub = 26) {
  util::Rng rng(seed);
  graphgen::TieredParams params;
  params.core_count = core;
  params.mid_count = mid;
  params.stub_count = stub;
  auto tiered = graphgen::tiered_internet_annotated(params, rng);
  graphgen::assign_random_costs(tiered.g, 1, 8, rng);
  return tiered;
}

TEST(Relationships, SetAndInverse) {
  Relationships rel;
  rel.set_customer(/*provider=*/0, /*customer=*/1);
  EXPECT_EQ(rel.rel(0, 1), Relation::kCustomer);
  EXPECT_EQ(rel.rel(1, 0), Relation::kProvider);
  rel.set_peer(1, 2);
  EXPECT_EQ(rel.rel(1, 2), Relation::kPeer);
  EXPECT_EQ(rel.rel(2, 1), Relation::kPeer);
  EXPECT_TRUE(rel.knows(0, 1));
  EXPECT_FALSE(rel.knows(0, 2));
}

TEST(Relationships, FromTieredCoversAllLinks) {
  const auto tiered = make_tiered(1);
  const auto rel = Relationships::from_tiered(tiered);
  for (const auto& [u, v] : tiered.g.edges()) {
    EXPECT_TRUE(rel.knows(u, v)) << u << "-" << v;
    EXPECT_TRUE(rel.knows(v, u));
  }
  EXPECT_EQ(rel.link_count(), tiered.g.edge_count());
}

TEST(Relationships, TieredHierarchyIsAcyclic) {
  const auto tiered = make_tiered(2);
  const auto rel = Relationships::from_tiered(tiered);
  EXPECT_TRUE(rel.hierarchy_is_acyclic(tiered.g.node_count()));
}

TEST(Relationships, CoreLinksArePeerings) {
  const auto tiered = make_tiered(3);
  const auto rel = Relationships::from_tiered(tiered);
  for (NodeId u = 0; u < 4; ++u)
    for (NodeId v = u + 1; v < 4; ++v)
      EXPECT_EQ(rel.rel(u, v), Relation::kPeer);
}

TEST(Relationships, ValleyFreeAcceptsUpPeerDown) {
  Relationships rel;
  // 0 and 1 are core peers; 2 is 0's customer; 3 is 1's customer.
  rel.set_peer(0, 1);
  rel.set_customer(0, 2);
  rel.set_customer(1, 3);
  EXPECT_TRUE(rel.is_valley_free({2, 0, 1, 3}));  // up, peer, down
  EXPECT_TRUE(rel.is_valley_free({2, 0}));        // up only
  EXPECT_TRUE(rel.is_valley_free({0, 2}));        // down only
}

TEST(Relationships, ValleyFreeRejectsValleysAndDoublePeering) {
  Relationships rel;
  rel.set_peer(0, 1);
  rel.set_peer(1, 4);
  rel.set_customer(0, 2);
  rel.set_customer(1, 2);
  rel.set_customer(1, 3);
  // 0 -> 2 -> 1 is a valley: provider-to-customer then customer-to-provider.
  EXPECT_FALSE(rel.is_valley_free({0, 2, 1}));
  // Two peering steps: 0 -(peer)- 1 -(peer)- 4.
  EXPECT_FALSE(rel.is_valley_free({0, 1, 4}));
  // Climbing after descending.
  EXPECT_FALSE(rel.is_valley_free({2, 1, 3, 1}));
  // Unknown link.
  EXPECT_FALSE(rel.is_valley_free({0, 3}));
}

TEST(Relationships, DegreeInferencePeersEqualDegrees) {
  const auto g = graphgen::ring_graph(6);  // all degree 2
  const auto rel = Relationships::infer_by_degree(g, 1.5);
  for (const auto& [u, v] : g.edges()) EXPECT_EQ(rel.rel(u, v), Relation::kPeer);
}

TEST(Relationships, DegreeInferenceMakesHubProvider) {
  const auto g = graphgen::wheel_graph(8);  // hub degree 7, rim degree 3
  const auto rel = Relationships::infer_by_degree(g, 1.5);
  for (NodeId v = 1; v < 8; ++v) {
    EXPECT_EQ(rel.rel(0, v), Relation::kCustomer);  // rim is hub's customer
    EXPECT_EQ(rel.rel(v, 0), Relation::kProvider);
  }
}

// --- end-to-end Gao-Rexford routing ----------------------------------------

TEST(PolicyRouting, ConvergesCompleteAndValleyFree) {
  for (std::uint64_t seed : {10u, 11u, 12u}) {
    const auto tiered = make_tiered(seed);
    const auto rel = Relationships::from_tiered(tiered);
    const auto run = policy::run_policy_routing(tiered.g, rel);
    EXPECT_TRUE(run.converged);
    EXPECT_TRUE(run.complete) << "seed " << seed;
    EXPECT_TRUE(run.valley_free) << "seed " << seed;
  }
}

TEST(PolicyRouting, StableUnderReRun) {
  const auto tiered = make_tiered(13);
  const auto rel = Relationships::from_tiered(tiered);
  bgp::Network net(tiered.g, policy::make_policy_factory(
                                 &rel, bgp::UpdatePolicy::kIncremental));
  bgp::Engine engine(net);
  ASSERT_TRUE(engine.run().converged);
  const auto again = engine.run();
  EXPECT_EQ(again.stages, 0u);  // a Gao-Rexford stable state: nothing moves
}

TEST(PolicyRouting, CustomerRoutePreferredOverCheaperProviderRoute) {
  // 0 is 1's provider; 2 is 1's customer; both can reach 3.
  //   1's route via customer 2 costs 5; via provider 0 costs 1.
  // Gao-Rexford prefers the customer route despite the cost.
  graph::Graph g{4};
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 3);
  g.add_edge(2, 3);
  g.set_cost(0, Cost{1});
  g.set_cost(2, Cost{5});
  Relationships rel;
  rel.set_customer(/*provider=*/0, /*customer=*/1);
  rel.set_customer(/*provider=*/1, /*customer=*/2);
  rel.set_customer(/*provider=*/0, /*customer=*/3);
  rel.set_customer(/*provider=*/2, /*customer=*/3);
  const auto run = policy::run_policy_routing(g, rel);
  ASSERT_TRUE(run.converged);
  EXPECT_EQ(run.paths[1][3], (graph::Path{1, 2, 3}));
}

TEST(PolicyRouting, PeerDoesNotTransitForPeer) {
  // 0-1 and 1-2 are peerings, so 0 cannot reach 2 through 1 (that would
  // make 1 carry peer-to-peer transit). 0's valley-free route descends
  // through its customer chain 0 -> 3 -> 2, even though 0-1-2 has fewer
  // transit nodes.
  graph::Graph g{4};
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 3);
  g.add_edge(3, 2);
  Relationships rel;
  rel.set_peer(0, 1);
  rel.set_peer(1, 2);
  rel.set_customer(/*provider=*/0, /*customer=*/3);
  rel.set_customer(/*provider=*/3, /*customer=*/2);
  const auto run = policy::run_policy_routing(g, rel);
  ASSERT_TRUE(run.converged);
  EXPECT_EQ(run.paths[0][2], (graph::Path{0, 3, 2}));
  EXPECT_TRUE(run.valley_free);
  // A valley 0-3-2... reversed: 2 climbs to 0 through its provider chain.
  EXPECT_EQ(run.paths[2][0], (graph::Path{2, 3, 0}));
}

TEST(PolicyRouting, StaysValleyFreeAfterLinkFailure) {
  const auto tiered = make_tiered(15);
  const auto rel = Relationships::from_tiered(tiered);
  bgp::Network net(tiered.g, policy::make_policy_factory(
                                 &rel, bgp::UpdatePolicy::kIncremental));
  bgp::Engine engine(net);
  ASSERT_TRUE(engine.run().converged);

  // Remove one stub uplink (stubs are multihomed, so routing survives).
  const auto stub = static_cast<NodeId>(tiered.g.node_count() - 1);
  const NodeId provider = tiered.g.neighbors(stub)[0];
  net.remove_link(stub, provider);
  ASSERT_TRUE(engine.run().converged);

  for (NodeId i = 0; i < tiered.g.node_count(); ++i) {
    const auto& agent =
        static_cast<const policy::PolicyBgpAgent&>(net.agent(i));
    for (NodeId j = 0; j < tiered.g.node_count(); ++j) {
      if (i == j) continue;
      const auto& route = agent.selected(j);
      if (route.valid()) {
        EXPECT_TRUE(rel.is_valley_free(
            graph::Path(route.path.begin(), route.path.end())))
            << i << "->" << j << " violates valley-freeness after churn";
      }
    }
  }
}

TEST(PolicyRouting, FullTablePolicyAlsoConvergesValleyFree) {
  const auto tiered = make_tiered(16);
  const auto rel = Relationships::from_tiered(tiered);
  const auto run = policy::run_policy_routing(tiered.g, rel,
                                              bgp::UpdatePolicy::kFullTable);
  EXPECT_TRUE(run.converged);
  EXPECT_TRUE(run.complete);
  EXPECT_TRUE(run.valley_free);
}

TEST(PolicyRouting, PolicyPathsNeverCheaperThanLcp) {
  const auto tiered = make_tiered(14);
  const auto rel = Relationships::from_tiered(tiered);
  const auto run = policy::run_policy_routing(tiered.g, rel);
  ASSERT_TRUE(run.complete);
  const routing::AllPairsRoutes lcp(tiered.g);
  std::size_t strictly_worse = 0;
  for (NodeId i = 0; i < tiered.g.node_count(); ++i) {
    for (NodeId j = 0; j < tiered.g.node_count(); ++j) {
      if (i == j) continue;
      const Cost policy_cost = graph::transit_cost(tiered.g, run.paths[i][j]);
      EXPECT_GE(policy_cost, lcp.cost(i, j));
      strictly_worse += policy_cost > lcp.cost(i, j);
    }
  }
  // Policy constraints genuinely bite on some pairs (footnote 2: many ASs
  // do not route on lowest cost).
  EXPECT_GT(strictly_worse, 0u);
}

}  // namespace
}  // namespace fpss
