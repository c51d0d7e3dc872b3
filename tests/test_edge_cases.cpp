// Boundary and contract tests across modules: tiny graphs, degenerate
// inputs, engine cutoffs, and precondition enforcement.
#include <gtest/gtest.h>

#include "bgp/plain_agent.h"
#include "common.h"
#include "graph/analysis.h"
#include "mechanism/vcg.h"
#include "pricing/session.h"
#include "pricing/verify.h"
#include "routing/dijkstra.h"
#include "routing/disjoint.h"
#include "routing/replacement.h"

namespace fpss {
namespace {

// --- tiny and degenerate graphs --------------------------------------------

TEST(TinyGraphs, TriangleIsTheSmallestMechanismInput) {
  auto g = graphgen::clique_graph(3);
  g.set_costs({Cost{1}, Cost{2}, Cost{3}});
  ASSERT_TRUE(mechanism::check_feasibility(g).feasible);
  const mechanism::VcgMechanism mech(g);
  // All pairs adjacent: every LCP is the direct link, nobody is paid.
  for (NodeId i = 0; i < 3; ++i) {
    for (NodeId j = 0; j < 3; ++j) {
      if (i != j) {
        ASSERT_EQ(mech.pair_payment(i, j), Cost::zero());
      }
    }
  }
}

TEST(TinyGraphs, TriangleWithForcedTransit) {
  // The 4-cycle is the smallest instance with a genuinely priced transit
  // node (a 3-cycle routes every pair directly).
  auto g = graphgen::ring_graph(4);
  g.set_costs({Cost{0}, Cost{2}, Cost{0}, Cost{7}});
  const mechanism::VcgMechanism mech(g);
  // 0 -> 2 goes via 1 (cost 2) vs via 3 (cost 7); premium = 7 - 2.
  EXPECT_EQ(mech.routes().cost(0, 2), Cost{2});
  EXPECT_EQ(mech.price(1, 0, 2), Cost{2 + (7 - 2)});
}

TEST(TinyGraphs, TwoNodeProtocolConverges) {
  graph::Graph g{2};
  g.add_edge(0, 1);
  pricing::Session session(g, pricing::Protocol::kPriceVector);
  const auto stats = session.run();
  EXPECT_TRUE(stats.converged);
  EXPECT_TRUE(session.route(0, 1).valid());
  EXPECT_EQ(session.route(0, 1).cost, Cost::zero());
}

TEST(TinyGraphs, SingleNodeNetworkIsTriviallyQuiescent) {
  graph::Graph g{1};
  pricing::Session session(g, pricing::Protocol::kPriceVector);
  const auto stats = session.run();
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.messages, 0u);
}

TEST(TinyGraphs, DijkstraSelfDestination) {
  const auto g = graphgen::ring_graph(4);
  const auto tree = routing::compute_sink_tree(g, 2);
  EXPECT_EQ(tree.cost(2), Cost::zero());
  EXPECT_EQ(tree.hops(2), 0u);
  EXPECT_EQ(tree.path_from(2), (graph::Path{2}));
}

TEST(TinyGraphs, AvoidanceOnCliqueIsAllDirect) {
  const auto g = graphgen::clique_graph(5);
  const auto tree = routing::compute_sink_tree(g, 0);
  const auto table = routing::AvoidanceTable::compute(g, tree);
  EXPECT_EQ(table.entry_count(), 0u);  // nobody is transit for anyone
}

// --- engine boundaries -------------------------------------------------------

TEST(EngineBoundaries, StageCapStopsWithoutConvergence) {
  const auto g = test::make_instance({"ring", 17, 1200, 5});
  pricing::Session session(g, pricing::Protocol::kPriceVector);
  const auto partial = session.engine().run(/*max_stages=*/2);
  EXPECT_FALSE(partial.converged);
  EXPECT_EQ(partial.stages, 2u);
  // Finishing later still ends exact.
  const auto rest = session.engine().run();
  EXPECT_TRUE(rest.converged);
  const mechanism::VcgMechanism mech(g);
  EXPECT_TRUE(pricing::verify_against_centralized(session, mech).ok);
}

TEST(EngineBoundaries, SegmentsSumToTotals) {
  const auto g = test::make_instance({"er", 14, 1201, 6});
  pricing::Session session(g, pricing::Protocol::kPriceVector);
  const auto first = session.engine().run(3);
  const auto second = session.engine().run();
  const auto& total = session.total_stats();
  EXPECT_EQ(first.stages + second.stages, total.stages);
  EXPECT_EQ(first.messages + second.messages, total.messages);
  EXPECT_EQ(first.traffic.total_words() + second.traffic.total_words(),
            total.traffic.total_words());
}

TEST(EngineBoundaries, AgentSurvivesDuplicateDelivery) {
  // Idempotence: re-receiving the same message changes nothing.
  graph::Graph g{3};
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  bgp::PlainBgpAgent agent(0, 3, Cost{1}, bgp::UpdatePolicy::kIncremental);
  agent.bootstrap();
  bgp::TableMessage msg(1, Cost{2});
  const graph::Path path = {1, 2};
  const std::vector<Cost> node_costs = {Cost{2}, Cost{0}};
  msg.add({2, path, Cost::zero(), node_costs, {}});
  const auto shared = std::make_shared<const bgp::TableMessage>(msg);
  agent.receive(shared);
  auto first = agent.advertise();
  ASSERT_TRUE(first.has_value());
  agent.receive(shared);  // exact duplicate
  const auto second = agent.advertise();
  EXPECT_FALSE(agent.routes_changed_last_compute());
  EXPECT_FALSE(second.has_value());  // nothing new to say
}

// --- contracts ---------------------------------------------------------------

TEST(ContractsDeathTest, GraphRejectsOutOfRange) {
  graph::Graph g{3};
  EXPECT_DEATH(g.cost(7), "precondition");
  EXPECT_DEATH(g.add_edge(0, 9), "precondition");
  EXPECT_DEATH(g.set_cost(0, Cost::infinity()), "precondition");
}

TEST(ContractsDeathTest, SinkTreePathFromUnreachable) {
  graph::Graph g{4};
  g.add_edge(0, 1);  // 2, 3 isolated
  const auto tree = routing::compute_sink_tree(g, 0);
  EXPECT_DEATH(tree.path_from(3), "precondition");
}

TEST(ContractsDeathTest, AvoidanceLookupRequiresEntry) {
  const auto f = graphgen::fig1();
  const auto tree = routing::compute_sink_tree(f.g, f.z);
  const auto table = routing::AvoidanceTable::compute(f.g, tree);
  EXPECT_DEATH(table.avoiding_cost(f.a, f.b), "precondition");  // A's LCP
                                                                // skips B
}

TEST(ContractsDeathTest, DisjointPairRejectsEqualEndpoints) {
  const auto g = graphgen::ring_graph(4);
  EXPECT_DEATH(routing::disjoint_path_pair(g, 1, 1), "precondition");
}

// --- zero-cost corner --------------------------------------------------------

TEST(ZeroCosts, EverythingIsFreeAndTiesBreakDeterministically) {
  auto g = test::make_instance({"er", 18, 1202, 0});  // all costs zero
  const mechanism::VcgMechanism mech(g);
  pricing::Session session(g, pricing::Protocol::kPriceVector);
  ASSERT_TRUE(session.run().converged);
  const auto result = pricing::verify_against_centralized(session, mech);
  EXPECT_TRUE(result.ok) << result.first_diff;
  // With zero costs every price is zero (the avoiding path costs nothing).
  for (NodeId i = 0; i < g.node_count(); ++i) {
    for (NodeId j = 0; j < g.node_count(); ++j) {
      if (i == j) continue;
      EXPECT_EQ(mech.pair_payment(i, j), Cost::zero());
    }
  }
}

}  // namespace
}  // namespace fpss
