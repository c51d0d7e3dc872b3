#include <gtest/gtest.h>

#include "common.h"
#include "mechanism/vcg.h"
#include "pricing/session.h"
#include "pricing/verify.h"
#include "routing/metrics.h"

namespace fpss {
namespace {

using mechanism::VcgMechanism;
using pricing::Protocol;
using pricing::RestartPolicy;
using pricing::Session;

// --- E1: the worked example, end to end through the protocol --------------

TEST(Pricing, Fig1DistributedPricesMatchPaper) {
  const auto f = graphgen::fig1();
  Session session(f.g, Protocol::kPriceVector);
  const auto stats = session.run();
  ASSERT_TRUE(stats.converged);
  EXPECT_EQ(session.price(f.d, f.x, f.z), Cost{3});
  EXPECT_EQ(session.price(f.b, f.x, f.z), Cost{4});
  EXPECT_EQ(session.price(f.d, f.y, f.z), Cost{9});
}

TEST(Pricing, Fig1BothProtocolsMatchCentralized) {
  const auto f = graphgen::fig1();
  const VcgMechanism mech(f.g);
  for (Protocol protocol :
       {Protocol::kPriceVector, Protocol::kAvoidanceVector}) {
    Session session(f.g, protocol);
    ASSERT_TRUE(session.run().converged);
    const auto result = pricing::verify_against_centralized(session, mech);
    EXPECT_TRUE(result.ok) << result.first_diff;
    EXPECT_GT(result.price_entries_checked, 0u);
  }
}

// --- E4 core: exactness + convergence bound over all families -------------

struct PricingCase {
  test::InstanceSpec spec;
  Protocol protocol;
  bgp::UpdatePolicy policy;
};

std::vector<PricingCase> pricing_cases() {
  std::vector<PricingCase> cases;
  for (const auto& spec : test::standard_instances()) {
    for (Protocol protocol :
         {Protocol::kPriceVector, Protocol::kAvoidanceVector}) {
      for (bgp::UpdatePolicy policy :
           {bgp::UpdatePolicy::kIncremental, bgp::UpdatePolicy::kFullTable}) {
        cases.push_back({spec, protocol, policy});
      }
    }
  }
  return cases;
}

class PricingExactness : public ::testing::TestWithParam<PricingCase> {};

TEST_P(PricingExactness, DistributedEqualsCentralized) {
  const auto g = test::make_instance(GetParam().spec);
  Session session(g, GetParam().protocol, GetParam().policy);
  ASSERT_TRUE(session.run().converged);
  ASSERT_TRUE(session.complete());
  const VcgMechanism mech(g, VcgMechanism::Engine::kNaiveGroundTruth);
  const auto result = pricing::verify_against_centralized(session, mech);
  EXPECT_TRUE(result.ok) << result.first_diff << " ("
                         << result.route_mismatches << " route, "
                         << result.price_mismatches << " price mismatches)";
}

TEST_P(PricingExactness, ConvergesWithinTheoremBound) {
  const auto g = test::make_instance(GetParam().spec);
  const auto diameters = routing::lcp_and_avoiding_diameter(g);
  Session session(g, GetParam().protocol, GetParam().policy);
  const auto stats = session.run();
  ASSERT_TRUE(stats.converged);
  // Theorem 2 / Corollary 1: all routes and prices correct after
  // max(d, d') stages (plus the initial self-announcement stage).
  EXPECT_LE(stats.last_value_change_stage, diameters.stage_bound() + 1)
      << "d=" << diameters.d << " d'=" << diameters.d_prime;
  EXPECT_LE(stats.last_route_change_stage, diameters.d + 1);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, PricingExactness,
                         ::testing::ValuesIn(pricing_cases()));

// --- E6: Lemma 2 per-node bound --------------------------------------------

TEST(PricingPerNode, Lemma2Bound) {
  const auto g = test::make_instance({"er", 20, 55, 8});
  const auto bounds = routing::per_node_stage_bounds(g);
  Session session(g, Protocol::kPriceVector);
  ASSERT_TRUE(session.run().converged);
  for (NodeId i = 0; i < g.node_count(); ++i) {
    // Lemma 2: after d_i stages node i's routes and prices are correct, so
    // nothing at i changes later (one slack stage for the bootstrap).
    EXPECT_LE(session.agent(i).last_value_change_activation(), bounds[i] + 1)
        << "node " << i << " d_i=" << bounds[i];
  }
}

// --- full-table policy -------------------------------------------------------

TEST(Pricing, FullTablePolicyAlsoExact) {
  const auto g = test::make_instance({"tiered", 24, 56, 7});
  Session session(g, Protocol::kPriceVector, bgp::UpdatePolicy::kFullTable);
  ASSERT_TRUE(session.run().converged);
  const VcgMechanism mech(g);
  EXPECT_TRUE(pricing::verify_against_centralized(session, mech).ok);
}

// --- message accounting ------------------------------------------------------

TEST(Pricing, ExtensionCarriesValueWords) {
  const auto g = test::make_instance({"ba", 20, 57, 6});
  Session session(g, Protocol::kPriceVector);
  const auto stats = session.run();
  EXPECT_GT(stats.traffic.value_words, 0u);
  const auto state = session.network().total_state();
  EXPECT_GT(state.value_words, 0u);
}

TEST(Pricing, StateOverheadIsConstantFactor) {
  const auto g = test::make_instance({"er", 24, 58, 6});
  Session session(g, Protocol::kPriceVector);
  session.run();
  const auto state = session.network().total_state();
  // Theorem 2: O(nd) tables, constant-factor penalty: the pricing state
  // cannot exceed the base routing state (one value per path transit node
  // vs the path itself plus per-node costs).
  EXPECT_LE(state.value_words, state.selected_words);
}

// --- dynamics (E9) -----------------------------------------------------------

TEST(PricingDynamics, LinkFailureRestartBarrierExact) {
  const auto f = graphgen::fig1();
  for (Protocol protocol :
       {Protocol::kPriceVector, Protocol::kAvoidanceVector}) {
    Session session(f.g, protocol);
    ASSERT_TRUE(session.run().converged);
    // Removing B-D leaves the 6-cycle X-A-Z-D-Y-B (still biconnected).
    const auto stats =
        session.remove_link(f.b, f.d, RestartPolicy::kRestartBarrier);
    ASSERT_TRUE(stats.converged);
    graph::Graph after = f.g;
    after.remove_edge(f.b, f.d);
    ASSERT_TRUE(graph::is_biconnected(after));
    const VcgMechanism mech(after);
    const auto result =
        pricing::verify_against_centralized(session, mech);
    EXPECT_TRUE(result.ok) << result.first_diff;
  }
}

TEST(PricingDynamics, CostChangeRestartBarrierExact) {
  const auto g = test::make_instance({"er", 16, 59, 6});
  for (Protocol protocol :
       {Protocol::kPriceVector, Protocol::kAvoidanceVector}) {
    Session session(g, protocol);
    ASSERT_TRUE(session.run().converged);
    const auto stats =
        session.change_cost(3, Cost{17}, RestartPolicy::kRestartBarrier);
    ASSERT_TRUE(stats.converged);
    graph::Graph after = g;
    after.set_cost(3, Cost{17});
    const VcgMechanism mech(after);
    EXPECT_TRUE(pricing::verify_against_centralized(session, mech).ok);
  }
}

TEST(PricingDynamics, ImprovingEventIncrementalAvoidanceExact) {
  // Link addition only improves paths; the avoidance-vector protocol stays
  // exact without any restart (its surviving B entries remain valid upper
  // bounds of the new optimum).
  auto g = test::make_instance({"ring", 10, 60, 5});
  Session session(g, Protocol::kAvoidanceVector);
  ASSERT_TRUE(session.run().converged);
  const auto stats = session.add_link(0, 5, RestartPolicy::kIncremental);
  ASSERT_TRUE(stats.converged);
  graph::Graph after = g;
  after.add_edge(0, 5);
  const VcgMechanism mech(after);
  const auto result = pricing::verify_against_centralized(session, mech);
  EXPECT_TRUE(result.ok) << result.first_diff;
}

TEST(PricingDynamics, CostDecreaseIncrementalAvoidanceExact) {
  auto g = test::make_instance({"ba", 16, 61, 8});
  // Pick a node with a nonzero cost to decrease.
  NodeId victim = 0;
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (g.cost(v).value() >= 2) victim = v;
  Session session(g, Protocol::kAvoidanceVector);
  ASSERT_TRUE(session.run().converged);
  const auto stats = session.change_cost(
      victim, Cost{g.cost(victim).value() / 2}, RestartPolicy::kIncremental);
  ASSERT_TRUE(stats.converged);
  graph::Graph after = g;
  after.set_cost(victim, Cost{g.cost(victim).value() / 2});
  const VcgMechanism mech(after);
  const auto result = pricing::verify_against_centralized(session, mech);
  EXPECT_TRUE(result.ok) << result.first_diff;
}

TEST(PricingDynamics, SequenceOfEventsStaysExact) {
  auto g = test::make_instance({"er", 14, 62, 6});
  Session session(g, Protocol::kPriceVector);
  ASSERT_TRUE(session.run().converged);
  graph::Graph mirror = g;

  // Pick a pair that is definitely not linked yet, so the add/remove pair
  // below is a no-op on the original (biconnected) topology.
  NodeId ua = 0, ub = 0;
  for (NodeId a = 0; a < g.node_count() && ua == ub; ++a)
    for (NodeId b = a + 1; b < g.node_count(); ++b)
      if (!g.has_edge(a, b)) {
        ua = a;
        ub = b;
        break;
      }
  ASSERT_NE(ua, ub);

  // Apply a series of events, verifying after each reconvergence.
  struct Step {
    enum Kind { kCost, kAdd, kRemove } kind;
    NodeId a, b;
    Cost::rep value;
  };
  const std::vector<Step> steps = {
      {Step::kCost, 2, 0, 11},
      {Step::kAdd, ua, ub, 0},
      {Step::kCost, 5, 0, 0},
      {Step::kRemove, ua, ub, 0},
  };
  for (const Step& step : steps) {
    bgp::RunStats stats;
    switch (step.kind) {
      case Step::kCost:
        mirror.set_cost(step.a, Cost{step.value});
        stats = session.change_cost(step.a, Cost{step.value},
                                    RestartPolicy::kRestartBarrier);
        break;
      case Step::kAdd:
        mirror.add_edge(step.a, step.b);
        stats =
            session.add_link(step.a, step.b, RestartPolicy::kRestartBarrier);
        break;
      case Step::kRemove:
        mirror.remove_edge(step.a, step.b);
        stats = session.remove_link(step.a, step.b,
                                    RestartPolicy::kRestartBarrier);
        break;
    }
    ASSERT_TRUE(stats.converged);
    ASSERT_TRUE(graph::is_biconnected(mirror));
    const VcgMechanism mech(mirror);
    const auto result = pricing::verify_against_centralized(session, mech);
    ASSERT_TRUE(result.ok) << result.first_diff;
  }
}

// --- asynchronous execution ---------------------------------------------------

struct AsyncCase {
  test::InstanceSpec spec;
  Protocol protocol;
  double mrai;
};

class AsyncPricing : public ::testing::TestWithParam<AsyncCase> {};

TEST_P(AsyncPricing, ExactWithoutSynchrony) {
  const auto g = test::make_instance(GetParam().spec);
  bgp::ChannelConfig channel;
  channel.seed = GetParam().spec.seed * 31 + 7;
  channel.mrai = GetParam().mrai;
  Session session(g, GetParam().protocol, bgp::EngineConfig::event(channel));
  const auto stats = session.run();
  ASSERT_TRUE(stats.converged);
  const VcgMechanism mech(g);
  const auto result = pricing::verify_against_centralized(session, mech);
  EXPECT_TRUE(result.ok) << result.first_diff;
}

INSTANTIATE_TEST_SUITE_P(
    Mixed, AsyncPricing,
    ::testing::Values(
        AsyncCase{{"er", 16, 201, 8}, Protocol::kPriceVector, 0.0},
        AsyncCase{{"er", 16, 202, 8}, Protocol::kAvoidanceVector, 0.0},
        AsyncCase{{"ba", 20, 203, 5}, Protocol::kPriceVector, 0.0},
        AsyncCase{{"ba", 20, 204, 5}, Protocol::kAvoidanceVector, 2.0},
        AsyncCase{{"tiered", 24, 205, 6}, Protocol::kPriceVector, 2.0},
        AsyncCase{{"ring", 9, 206, 4}, Protocol::kPriceVector, 0.0},
        AsyncCase{{"wheel", 11, 207, 6}, Protocol::kAvoidanceVector, 0.0},
        AsyncCase{{"grid", 16, 208, 5}, Protocol::kPriceVector, 1.0}));

TEST(AsyncPricingDynamics, EventThenBarrierExact) {
  const auto g = test::make_instance({"er", 14, 209, 6});
  bgp::ChannelConfig channel;
  channel.seed = 11;
  Session session(g, Protocol::kPriceVector, bgp::EngineConfig::event(channel));
  ASSERT_TRUE(session.run().converged);
  const auto stats =
      session.change_cost(1, Cost{13}, RestartPolicy::kRestartBarrier);
  ASSERT_TRUE(stats.converged);
  graph::Graph after = g;
  after.set_cost(1, Cost{13});
  const VcgMechanism mech(after);
  const auto result = pricing::verify_against_centralized(session, mech);
  EXPECT_TRUE(result.ok) << result.first_diff;
}

// --- parallel stage engine ----------------------------------------------------

TEST(ParallelEngine, BitIdenticalToSerial) {
  const auto g = test::make_instance({"tiered", 48, 210, 8});
  // Serial reference.
  Session serial(g, Protocol::kPriceVector);
  const auto serial_stats = serial.run();
  // Parallel: same agents, 4 worker threads.
  bgp::Network net(g, pricing::make_agent_factory(
                          Protocol::kPriceVector,
                          bgp::UpdatePolicy::kIncremental));
  bgp::Engine engine(net, /*threads=*/4);
  const auto parallel_stats = engine.run();

  EXPECT_EQ(parallel_stats.stages, serial_stats.stages);
  EXPECT_EQ(parallel_stats.messages, serial_stats.messages);
  EXPECT_EQ(parallel_stats.traffic.total_words(),
            serial_stats.traffic.total_words());
  for (NodeId i = 0; i < g.node_count(); ++i) {
    const auto& agent = static_cast<const pricing::PricingAgent&>(net.agent(i));
    for (NodeId j = 0; j < g.node_count(); ++j) {
      if (i == j) continue;
      ASSERT_EQ(agent.selected(j).path, serial.route(i, j).path);
      for (std::size_t t = 1; t + 1 < agent.selected(j).path.size(); ++t) {
        const NodeId k = agent.selected(j).path[t];
        EXPECT_EQ(agent.price(j, k), serial.price(k, i, j));
      }
    }
  }
}

TEST(ParallelEngine, ExactAgainstCentralized) {
  const auto g = test::make_instance({"er", 40, 211, 9});
  bgp::Network net(g, pricing::make_agent_factory(
                          Protocol::kPriceVector,
                          bgp::UpdatePolicy::kIncremental));
  bgp::Engine engine(net, /*threads=*/8);
  ASSERT_TRUE(engine.run().converged);
  const VcgMechanism mech(g);
  for (NodeId i = 0; i < g.node_count(); ++i) {
    const auto& agent = static_cast<const pricing::PricingAgent&>(net.agent(i));
    for (NodeId j = 0; j < g.node_count(); ++j) {
      if (i == j) continue;
      const auto path = mech.routes().path(i, j);
      ASSERT_EQ(agent.selected(j).path, path);
      for (std::size_t t = 1; t + 1 < path.size(); ++t)
        ASSERT_EQ(agent.price(j, path[t]), mech.price(path[t], i, j));
    }
  }
}

// --- value row unit behaviour ------------------------------------------------

TEST(ValueRow, RekeyAndLower) {
  pricing::ValueRow row;
  bgp::SelectedRoute route;
  route.path = {0, 1, 2, 3};
  route.cost = Cost{5};
  route.node_costs = {Cost{1}, Cost{2}, Cost{3}, Cost{4}};
  EXPECT_TRUE(row.rekey(route, false));
  EXPECT_EQ(row.size(), 2u);  // transit nodes 1 and 2
  EXPECT_TRUE(row.contains(1));
  EXPECT_TRUE(row.contains(2));
  EXPECT_FALSE(row.contains(0));
  EXPECT_TRUE(row.get(1).is_infinite());
  EXPECT_FALSE(row.complete());
  EXPECT_TRUE(row.lower(1, Cost{7}));
  EXPECT_FALSE(row.lower(1, Cost{9}));  // not lower
  EXPECT_TRUE(row.lower(1, Cost{6}));
  EXPECT_EQ(row.get(1), Cost{6});
  EXPECT_FALSE(row.lower(5, Cost{1}));  // absent key ignored
}

TEST(ValueRow, PreserveKeepsSurvivors) {
  pricing::ValueRow row;
  bgp::SelectedRoute route;
  route.path = {0, 1, 2, 3};
  route.node_costs = {Cost{0}, Cost{0}, Cost{0}, Cost{0}};
  row.rekey(route, false);
  row.lower(1, Cost{4});
  row.lower(2, Cost{5});
  bgp::SelectedRoute reroute;
  reroute.path = {0, 2, 4, 3};
  reroute.node_costs = {Cost{0}, Cost{0}, Cost{0}, Cost{0}};
  EXPECT_TRUE(row.rekey(reroute, true));
  EXPECT_EQ(row.get(2), Cost{5});             // survivor keeps its value
  EXPECT_TRUE(row.get(4).is_infinite());      // newcomer starts unknown
  EXPECT_FALSE(row.contains(1));              // dropped
}

TEST(ValueRow, RekeyReportsChangesAndCarriesSurvivorsBackward) {
  pricing::ValueRow row;
  bgp::SelectedRoute route;
  route.path = {0, 1, 2, 3};
  route.node_costs = {Cost{0}, Cost{0}, Cost{0}, Cost{0}};
  row.rekey(route, false);
  EXPECT_FALSE(row.rekey(route, false));  // same keys, all still unknown
  row.lower(1, Cost{4});
  row.lower(2, Cost{5});
  EXPECT_FALSE(row.rekey(route, true));  // same keys, values kept
  // Both survivors move one place later, behind a newcomer: re-keying in
  // place must not overwrite a value before it is carried across.
  bgp::SelectedRoute reroute;
  reroute.path = {0, 6, 1, 2, 3};
  reroute.node_costs = {Cost{0}, Cost{0}, Cost{0}, Cost{0}, Cost{0}};
  EXPECT_TRUE(row.rekey(reroute, true));
  EXPECT_EQ(row.entries(),
            (std::vector<std::pair<NodeId, Cost>>{
                {6, Cost::infinity()}, {1, Cost{4}}, {2, Cost{5}}}));
  EXPECT_TRUE(row.rekey(route, false));  // shorter, and every value reset
  EXPECT_EQ(row.entries(),
            (std::vector<std::pair<NodeId, Cost>>{{1, Cost::infinity()},
                                                  {2, Cost::infinity()}}));
}

TEST(ValueRow, ResetClearsValues) {
  pricing::ValueRow row;
  bgp::SelectedRoute route;
  route.path = {0, 1, 2};
  route.node_costs = {Cost{0}, Cost{0}, Cost{0}};
  row.rekey(route, false);
  row.lower(1, Cost{3});
  EXPECT_TRUE(row.reset());
  EXPECT_TRUE(row.get(1).is_infinite());
  EXPECT_FALSE(row.reset());  // already infinite
}

}  // namespace
}  // namespace fpss
