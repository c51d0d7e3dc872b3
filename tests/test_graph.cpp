#include <gtest/gtest.h>

#include "graph/analysis.h"
#include "graph/dot.h"
#include "graph/graph.h"
#include "graph/path.h"
#include "graphgen/fixtures.h"

namespace fpss {
namespace {

using graph::Graph;

TEST(Graph, StartsEmpty) {
  Graph g{4};
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.cost(0), Cost::zero());
}

TEST(Graph, AddEdgeIsSymmetric) {
  Graph g{3};
  EXPECT_TRUE(g.add_edge(0, 2));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, AddDuplicateEdgeRejected) {
  Graph g{3};
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(1, 0));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, RemoveEdge) {
  Graph g{3};
  g.add_edge(0, 1);
  EXPECT_TRUE(g.remove_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.remove_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, NeighborsSorted) {
  Graph g{5};
  g.add_edge(2, 4);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 3u);
  EXPECT_EQ(nbrs[2], 4u);
}

TEST(Graph, CostsRoundTrip) {
  Graph g{2};
  g.set_cost(1, Cost{9});
  EXPECT_EQ(g.cost(1), Cost{9});
  g.set_costs({Cost{3}, Cost{4}});
  EXPECT_EQ(g.cost(0), Cost{3});
  EXPECT_EQ(g.cost(1), Cost{4});
}

TEST(Graph, EdgesListSorted) {
  Graph g{4};
  g.add_edge(3, 1);
  g.add_edge(0, 2);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], std::make_pair(NodeId{0}, NodeId{2}));
  EXPECT_EQ(edges[1], std::make_pair(NodeId{1}, NodeId{3}));
}

TEST(GraphDeathTest, SelfLoopRejected) {
  Graph g{2};
  EXPECT_DEATH(g.add_edge(1, 1), "precondition");
}

TEST(Path, TransitCostExcludesEndpoints) {
  auto f = graphgen::fig1();
  // X-B-D-Z: transit = c_B + c_D = 3; endpoints X and Z are free.
  EXPECT_EQ(graph::transit_cost(f.g, {f.x, f.b, f.d, f.z}), Cost{3});
  // Direct Y-D: no intermediate node.
  EXPECT_EQ(graph::transit_cost(f.g, {f.y, f.d}), Cost{0});
  // Single node.
  EXPECT_EQ(graph::transit_cost(f.g, {f.x}), Cost{0});
}

TEST(Path, WalkValidation) {
  auto f = graphgen::fig1();
  EXPECT_TRUE(graph::is_walk(f.g, {f.x, f.b, f.d}));
  EXPECT_FALSE(graph::is_walk(f.g, {f.x, f.z}));  // no direct X-Z link
  EXPECT_FALSE(graph::is_walk(f.g, {}));
}

TEST(Path, SimplePathValidation) {
  auto f = graphgen::fig1();
  EXPECT_TRUE(graph::is_simple_path(f.g, {f.x, f.b, f.d, f.z}, f.x, f.z));
  EXPECT_FALSE(graph::is_simple_path(f.g, {f.x, f.b, f.x}, f.x, f.x));
  EXPECT_FALSE(graph::is_simple_path(f.g, {f.x, f.b}, f.x, f.z));
}

TEST(Path, TransitNodeMembership) {
  EXPECT_TRUE(graph::is_transit_node(graph::Path{0, 1, 2}, 1));
  EXPECT_FALSE(graph::is_transit_node(graph::Path{0, 1, 2}, 0));
  EXPECT_FALSE(graph::is_transit_node(graph::Path{0, 1, 2}, 2));
  EXPECT_FALSE(graph::is_transit_node(graph::Path{0, 2}, 1));
}

TEST(Path, Rendering) {
  EXPECT_EQ(graph::path_to_string({3, 1, 5}), "3-1-5");
  auto f = graphgen::fig1();
  EXPECT_EQ(graph::path_to_letters({f.x, f.b, f.d, f.z}, f.names), "XBDZ");
}

TEST(Analysis, Connectivity) {
  Graph g{4};
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(graph::is_connected(g));
  g.add_edge(1, 2);
  EXPECT_TRUE(graph::is_connected(g));
}

TEST(Analysis, ArticulationPointsOnPath) {
  auto g = graphgen::path_graph(5);  // 0-1-2-3-4: internal nodes are cuts
  const auto cuts = graph::articulation_points(g);
  EXPECT_EQ(cuts, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_FALSE(graph::is_biconnected(g));
}

TEST(Analysis, RingIsBiconnected) {
  EXPECT_TRUE(graph::is_biconnected(graphgen::ring_graph(5)));
  EXPECT_TRUE(graph::articulation_points(graphgen::ring_graph(5)).empty());
}

TEST(Analysis, BowtieHasCutVertex) {
  // Two triangles sharing node 2.
  Graph g{5};
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 2);
  const auto cuts = graph::articulation_points(g);
  EXPECT_EQ(cuts, (std::vector<NodeId>{2}));
}

TEST(Analysis, Fig1IsBiconnected) {
  EXPECT_TRUE(graph::is_biconnected(graphgen::fig1().g));
}

TEST(Analysis, HopDiameter) {
  EXPECT_EQ(graph::hop_diameter(graphgen::path_graph(5)), 4u);
  EXPECT_EQ(graph::hop_diameter(graphgen::ring_graph(6)), 3u);
  EXPECT_EQ(graph::hop_diameter(graphgen::clique_graph(5)), 1u);
}

TEST(Analysis, DegreeStats) {
  const auto stats = graph::degree_stats(graphgen::wheel_graph(6));
  EXPECT_EQ(stats.max, 5u);  // hub
  EXPECT_EQ(stats.min, 3u);  // rim: hub + two rim neighbors
}

TEST(Dot, ContainsNodesAndEdges) {
  auto f = graphgen::fig1();
  const std::string dot = graph::to_dot(f.g, f.names);
  EXPECT_NE(dot.find("label=\"D (1)\""), std::string::npos);
  EXPECT_NE(dot.find("--"), std::string::npos);
}

}  // namespace
}  // namespace fpss
