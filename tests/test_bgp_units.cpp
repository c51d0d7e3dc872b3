// Unit tests for the BGP substrate pieces below the agent level: the
// message size accounting, the dense NodeSet, the Rib's
// ingest/reselect/withdraw logic and its sharing of received messages, and
// the change-driven reselection built on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "bgp/message.h"
#include "bgp/node_set.h"
#include "bgp/plain_agent.h"
#include "bgp/rib.h"
#include "pricing/pricing_agent.h"

namespace fpss {
namespace {

using bgp::MessageRef;
using bgp::MessageSize;
using bgp::NodeSet;
using bgp::PlainBgpAgent;
using bgp::Rib;
using bgp::RouteAdvert;
using bgp::TableMessage;
using bgp::TransitValue;

/// An advert's fields, owned: tests build messages out of these.
struct Entry {
  NodeId destination = kInvalidNode;
  graph::Path path;  ///< empty = withdrawal
  Cost cost = Cost::infinity();
  std::vector<Cost> node_costs;
  std::vector<TransitValue> values;

  RouteAdvert view() const {
    return {destination, path, cost, node_costs, values};
  }
};

/// A route over `path` with the given per-node costs; its cost sums the
/// transit nodes' costs.
Entry route(graph::Path path, const std::vector<Cost::rep>& costs,
            std::vector<TransitValue> values = {}) {
  Entry entry;
  entry.destination = path.back();
  entry.path = std::move(path);
  for (Cost::rep c : costs) entry.node_costs.emplace_back(c);
  entry.cost = Cost::zero();
  for (std::size_t t = 1; t + 1 < entry.path.size(); ++t)
    entry.cost += entry.node_costs[t];
  entry.values = std::move(values);
  return entry;
}

Entry withdrawal(NodeId destination) {
  Entry entry;
  entry.destination = destination;
  return entry;
}

MessageRef make_message(NodeId sender, Cost sender_cost,
                        const std::vector<Entry>& entries) {
  TableMessage msg(sender, sender_cost);
  for (const Entry& entry : entries) msg.add(entry.view());
  return std::make_shared<const TableMessage>(std::move(msg));
}

/// Delivers `entry` to `rib` as a one-entry message from `sender`, noting
/// the sender first as PlainBgpAgent::receive does once per message.
bool ingest(Rib& rib, NodeId sender, Cost sender_cost, const Entry& entry) {
  rib.note_sender(sender, sender_cost);
  return rib.ingest(make_message(sender, sender_cost, {entry}), 0);
}

TEST(MessageSizeTest, CountsWords) {
  const MessageRef msg =
      make_message(0, Cost{1}, {route({0, 1, 2}, {1, 2, 3}, {{1, Cost{5}}})});
  const MessageSize size = measure(*msg);
  EXPECT_EQ(size.entries, 1u);
  EXPECT_EQ(size.path_words, 3u);
  EXPECT_EQ(size.cost_words, 1u + 1u + 3u);  // sender + path cost + node costs
  EXPECT_EQ(size.value_words, 2u);
  EXPECT_EQ(size.total_words(), size.base_words() + 2u);
}

TEST(MessageTest, EntriesAreSlicesOfFlatArrays) {
  TableMessage msg(1, Cost{2});
  msg.reserve(3, 5, 1);
  const Entry first = route({1, 4, 3}, {2, 1, 0}, {{4, Cost{6}}});
  const Entry second = route({1, 2}, {2, 0});
  msg.add(first.view());
  msg.add(RouteAdvert::withdrawal(5));
  TableMessage::Draft draft = msg.add(second.view());
  draft.cost = Cost{7};  // writable until the message is sent
  ASSERT_EQ(msg.size(), 3u);
  EXPECT_EQ(msg.sender(), 1u);
  EXPECT_EQ(msg.sender_cost(), Cost{2});

  const RouteAdvert a = msg.entry(0);
  EXPECT_EQ(a.destination, 3u);
  EXPECT_TRUE(std::ranges::equal(a.path, first.path));
  EXPECT_TRUE(std::ranges::equal(a.node_costs, first.node_costs));
  EXPECT_TRUE(std::ranges::equal(a.transit_values, first.values));
  EXPECT_EQ(a.cost, Cost{1});
  const RouteAdvert b = msg.entry(1);
  EXPECT_EQ(b.destination, 5u);
  EXPECT_TRUE(b.is_withdrawal());
  EXPECT_TRUE(b.node_costs.empty());
  EXPECT_TRUE(b.transit_values.empty());
  const RouteAdvert c = msg.entry(2);
  EXPECT_TRUE(std::ranges::equal(c.path, second.path));
  EXPECT_EQ(c.cost, Cost{7});
  EXPECT_TRUE(c.transit_values.empty());
  // One array per field: consecutive entries sit back to back.
  EXPECT_EQ(c.path.data(), a.path.data() + a.path.size());
  EXPECT_EQ(c.node_costs.data(), a.node_costs.data() + a.node_costs.size());
}

TEST(MessageSizeTest, AccumulateAndSubtract) {
  MessageSize a{1, 2, 3, 4};
  const MessageSize b{10, 20, 30, 40};
  a += b;
  EXPECT_EQ(a.entries, 11u);
  a -= b;
  EXPECT_EQ(a.entries, 1u);
  EXPECT_EQ(a.path_words, 2u);
}

TEST(RibTest, SelfRouteAlwaysPresent) {
  const Rib rib(2, 5, Cost{3});
  const auto& self = rib.selected(2);
  EXPECT_TRUE(self.valid());
  EXPECT_EQ(self.path, (graph::Path{2}));
  EXPECT_EQ(self.cost, Cost::zero());
  EXPECT_EQ(self.node_costs, (std::vector<Cost>{Cost{3}}));
}

TEST(RibTest, IngestAndReselect) {
  Rib rib(0, 4, Cost{1});
  // Neighbor 1 (cost 2) offers a direct route to 3.
  ingest(rib, 1, Cost{2}, route({1, 3}, {2, 0}));
  EXPECT_TRUE(rib.reselect(3));
  const auto& route = rib.selected(3);
  EXPECT_EQ(route.path, (graph::Path{0, 1, 3}));
  EXPECT_EQ(route.cost, Cost{2});  // transit = neighbor 1 itself
  EXPECT_EQ(route.next_hop, 1u);
  EXPECT_FALSE(rib.reselect(3));  // unchanged on re-run
}

TEST(RibTest, PrefersCheaperThenFewerHopsThenLowerId) {
  Rib rib(0, 6, Cost{0});
  ingest(rib, 1, Cost{5}, route({1, 3}, {5, 0}));
  ingest(rib, 2, Cost{1}, route({2, 4, 3}, {1, 1, 0}));
  rib.reselect(3);
  // Via 2: transit cost 1(c2)+1(c4)=2 < via 1: 5.
  EXPECT_EQ(rib.selected(3).next_hop, 2u);

  // Equal costs: fewer hops wins.
  ingest(rib, 1, Cost{2}, route({1, 3}, {2, 0}));
  rib.reselect(3);
  EXPECT_EQ(rib.selected(3).next_hop, 1u);

  // Equal cost and hops: lower neighbor id wins.
  ingest(rib, 2, Cost{2}, route({2, 3}, {2, 0}));
  rib.reselect(3);
  EXPECT_EQ(rib.selected(3).next_hop, 1u);
}

TEST(RibTest, LoopPreventionRejectsOwnPath) {
  Rib rib(0, 4, Cost{1});
  // Neighbor 1 offers a path that already contains us.
  ingest(rib, 1, Cost{2}, route({1, 0, 3}, {2, 1, 0}));
  EXPECT_FALSE(rib.reselect(3));
  EXPECT_FALSE(rib.selected(3).valid());
}

TEST(RibTest, WithdrawalRemovesRoute) {
  Rib rib(0, 4, Cost{1});
  ingest(rib, 1, Cost{2}, route({1, 3}, {2, 0}));
  rib.reselect(3);
  ASSERT_TRUE(rib.selected(3).valid());
  ingest(rib, 1, Cost{2}, withdrawal(3));
  EXPECT_TRUE(rib.reselect(3));
  EXPECT_FALSE(rib.selected(3).valid());
}

TEST(RibTest, PurgeNeighborDropsItsRoutes) {
  Rib rib(0, 4, Cost{1});
  ingest(rib, 1, Cost{2}, route({1, 3}, {2, 0}));
  ingest(rib, 1, Cost{2}, route({1, 2}, {2, 0}));
  rib.reselect(3);
  const auto dropped = rib.purge_neighbor(1);
  EXPECT_EQ(dropped, (std::vector<NodeId>{2, 3}));
  EXPECT_TRUE(rib.reselect(3));
  EXPECT_FALSE(rib.selected(3).valid());
  EXPECT_FALSE(rib.heard_from(1));
}

TEST(RibTest, NeighborCostChangeReratesRoutes) {
  Rib rib(0, 4, Cost{0});
  ingest(rib, 1, Cost{2}, route({1, 3}, {2, 0}));
  ingest(rib, 2, Cost{3}, route({2, 3}, {3, 0}));
  rib.reselect(3);
  EXPECT_EQ(rib.selected(3).next_hop, 1u);
  // Neighbor 2 becomes free: note its new cost, plus its refreshed advert.
  ingest(rib, 2, Cost{0}, route({2, 3}, {0, 0}));
  EXPECT_TRUE(rib.reselect(3));
  EXPECT_EQ(rib.selected(3).next_hop, 2u);
}

TEST(RibTest, ClearStoredValuesKeepsRoutes) {
  Rib rib(0, 4, Cost{0});
  const MessageRef msg = make_message(
      1, Cost{1}, {route({1, 2, 3}, {1, 1, 0}, {{2, Cost{9}}})});
  rib.note_sender(1, Cost{1});
  rib.ingest(msg, 0);
  ASSERT_EQ(rib.stored(1, 3)->transit_values.size(), 1u);
  const std::size_t words = rib.adj_rib_in_words();
  rib.clear_stored_values();
  const std::optional<RouteAdvert> stored = rib.stored(1, 3);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->path.data(), msg->entry(0).path.data());  // same entry
  EXPECT_TRUE(stored->transit_values.empty());
  EXPECT_EQ(rib.adj_rib_in_words(), words - 2);  // the (k, value) pair
  EXPECT_EQ(stored->cost, Cost{1});  // routing fields intact
  EXPECT_TRUE(std::ranges::equal(stored->path, graph::Path{1, 2, 3}));
  // The message itself is never written.
  ASSERT_EQ(msg->entry(0).transit_values.size(), 1u);
  EXPECT_EQ(msg->entry(0).transit_values[0], (TransitValue{2, Cost{9}}));
  // A fresh advert for the same (neighbor, destination) counts again.
  ingest(rib, 1, Cost{1}, route({1, 2, 3}, {1, 1, 0}, {{2, Cost{4}}}));
  const bgp::TransitValues values = rib.stored(1, 3)->transit_values;
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], (TransitValue{2, Cost{4}}));
  EXPECT_EQ(rib.adj_rib_in_words(), words);
}

TEST(RibTest, IngestReportsWhetherTheStoredRouteChanged) {
  Rib rib(0, 5, Cost{0});
  EXPECT_FALSE(ingest(rib, 1, Cost{2}, withdrawal(3)));  // nothing stored
  EXPECT_TRUE(ingest(rib, 1, Cost{2}, route({1, 4, 3}, {2, 1, 0})));
  // The same route again, even with new values or from a new message.
  EXPECT_FALSE(ingest(rib, 1, Cost{2}, route({1, 4, 3}, {2, 1, 0})));
  EXPECT_FALSE(
      ingest(rib, 1, Cost{2}, route({1, 4, 3}, {2, 1, 0}, {{4, Cost{3}}})));
  // Any routing field counts: a node cost (here the destination's), the
  // cost, the path.
  EXPECT_TRUE(ingest(rib, 1, Cost{2}, route({1, 4, 3}, {2, 1, 8})));
  Entry costlier = route({1, 4, 3}, {2, 1, 8});
  costlier.cost = Cost{2};
  EXPECT_TRUE(ingest(rib, 1, Cost{2}, costlier));
  EXPECT_TRUE(ingest(rib, 1, Cost{2}, route({1, 2, 3}, {2, 1, 8})));
  EXPECT_TRUE(ingest(rib, 1, Cost{2}, withdrawal(3)));
  EXPECT_FALSE(ingest(rib, 1, Cost{2}, withdrawal(3)));
}

TEST(RibOwnershipTest, ReceivePointsIntoTheMessage) {
  PlainBgpAgent agent(0, 5, Cost{1}, bgp::UpdatePolicy::kIncremental);
  const MessageRef msg =
      make_message(1, Cost{2},
                   {route({1, 4, 3}, {2, 1, 0}, {{4, Cost{3}}}),
                    route({1, 4, 2}, {2, 1, 0}, {{4, Cost{5}}})});
  agent.receive(msg);
  for (std::size_t e = 0; e < msg->size(); ++e) {
    const RouteAdvert entry = msg->entry(e);
    const std::optional<RouteAdvert> stored =
        agent.stored_advert(1, entry.destination);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->path.data(), entry.path.data());
    EXPECT_EQ(stored->node_costs.data(), entry.node_costs.data());
    EXPECT_EQ(stored->transit_values.data(), entry.transit_values.data());
    EXPECT_EQ(stored->transit_values.size(), 1u);
  }
}

TEST(RibOwnershipTest, MessageLivesWhileAnEntryIsStored) {
  PlainBgpAgent agent(0, 7, Cost{1}, bgp::UpdatePolicy::kIncremental);
  // Receives a message from neighbor 1 and keeps only a weak reference.
  const auto deliver = [&](const std::vector<Entry>& entries) {
    const MessageRef msg = make_message(1, Cost{2}, entries);
    agent.receive(msg);
    return std::weak_ptr<const TableMessage>(msg);
  };
  const auto first = deliver({route({1, 2}, {2, 0}), route({1, 3}, {2, 0}),
                              route({1, 4}, {2, 0})});
  EXPECT_FALSE(first.expired());
  const auto second = deliver({route({1, 5, 2}, {2, 1, 0})});
  EXPECT_FALSE(first.expired());  // superseded for 2, still stored for 3, 4
  deliver({withdrawal(3)});
  EXPECT_FALSE(first.expired());  // still stored for 4
  deliver({withdrawal(4)});
  EXPECT_TRUE(first.expired());   // its last entry was withdrawn
  const auto third = deliver({route({1, 6, 2}, {2, 1, 0})});
  EXPECT_TRUE(second.expired());  // its only entry was superseded
  agent.on_link_down(1);
  EXPECT_TRUE(third.expired());   // purged with the session
}

/// A price-vector agent that records every destination it reselects.
class ReselectRecorder : public pricing::PriceVectorAgent {
 public:
  ReselectRecorder(NodeId self, std::size_t node_count)
      : PriceVectorAgent(self, node_count, Cost{1},
                         bgp::UpdatePolicy::kIncremental) {}

  std::vector<NodeId> reselected;

 protected:
  bool reselect_destination(NodeId destination) override {
    reselected.push_back(destination);
    return PriceVectorAgent::reselect_destination(destination);
  }
};

TEST(ReselectionTest, IdenticalRefreshSkipsReselectionYetLowersAPrice) {
  ReselectRecorder agent(0, 4);
  // Neighbor 1 reaches 3 through 2 and does not know p^2 yet.
  agent.receive(make_message(
      1, Cost{2}, {route({1, 2, 3}, {2, 1, 0}, {{2, Cost::infinity()}})}));
  (void)agent.advertise();
  ASSERT_EQ(agent.selected(3).path, (graph::Path{0, 1, 2, 3}));
  EXPECT_TRUE(agent.price(3, 2).is_infinite());
  agent.reselected.clear();
  // The same route again, now carrying a price for 2.
  agent.receive(make_message(
      1, Cost{2}, {route({1, 2, 3}, {2, 1, 0}, {{2, Cost{4}}})}));
  (void)agent.advertise();
  EXPECT_TRUE(agent.reselected.empty());
  EXPECT_EQ(agent.price(3, 2), Cost{4});  // Fig. 3 case (i), via the parent
}

TEST(ReselectionTest, DestinationCostRefreshReselects) {
  ReselectRecorder agent(0, 3);
  agent.receive(make_message(1, Cost{2}, {route({1, 2}, {2, 5})}));
  (void)agent.advertise();
  ASSERT_EQ(agent.selected(2).node_costs,
            (std::vector<Cost>{Cost{1}, Cost{2}, Cost{5}}));
  agent.reselected.clear();
  // Only the destination's declared cost moved; path and cost did not.
  agent.receive(make_message(1, Cost{2}, {route({1, 2}, {2, 6})}));
  (void)agent.advertise();
  EXPECT_EQ(agent.reselected, (std::vector<NodeId>{2}));
  EXPECT_EQ(agent.selected(2).node_costs,
            (std::vector<Cost>{Cost{1}, Cost{2}, Cost{6}}));
}

TEST(ReselectionTest, FirstContactMarksOnlyItsDestinations) {
  ReselectRecorder agent(0, 6);
  agent.receive(make_message(
      1, Cost{2}, {route({1, 3}, {2, 0}), route({1, 5}, {2, 0})}));
  (void)agent.advertise();
  EXPECT_EQ(agent.reselected, (std::vector<NodeId>{3, 5}));
  agent.reselected.clear();
  agent.receive(make_message(2, Cost{1}, {route({2, 4}, {1, 0})}));
  (void)agent.advertise();
  EXPECT_EQ(agent.reselected, (std::vector<NodeId>{4}));
  // A known sender's new cost still re-rates every destination.
  agent.reselected.clear();
  agent.receive(make_message(1, Cost{3}, {route({1, 3}, {3, 0})}));
  (void)agent.advertise();
  EXPECT_EQ(agent.reselected, (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
}

TEST(RibTest, StateWordAccounting) {
  Rib rib(0, 4, Cost{1});
  const std::size_t before = rib.selected_words();
  ingest(rib, 1, Cost{2}, route({1, 3}, {2, 0}));
  rib.reselect(3);
  EXPECT_GT(rib.selected_words(), before);
  EXPECT_GT(rib.adj_rib_in_words(), 0u);
}

TEST(RibTest, InstallWritesOnlyOnChange) {
  Rib rib(0, 4, Cost{0});
  ingest(rib, 2, Cost{4}, route({2, 3}, {4, 0}));
  const std::optional<RouteAdvert> winner = rib.stored(2, 3);
  ASSERT_TRUE(winner.has_value());
  EXPECT_TRUE(rib.install(3, winner, Cost{4}));
  EXPECT_FALSE(rib.install(3, winner, Cost{4}));  // idempotent
  const auto& route = rib.selected(3);
  EXPECT_EQ(route.path, (graph::Path{0, 2, 3}));
  EXPECT_EQ(route.node_costs,
            (std::vector<Cost>{Cost{0}, Cost{4}, Cost{0}}));
  EXPECT_EQ(route.next_hop, 2u);
  // A new cost alone is a change; so is our own declared cost, which the
  // route's first node cost carries.
  EXPECT_TRUE(rib.install(3, winner, Cost{5}));
  rib.set_declared_cost(Cost{7});
  EXPECT_TRUE(rib.install(3, winner, Cost{5}));
  EXPECT_EQ(rib.selected(3).node_costs.front(), Cost{7});
  // No winner: the route goes away once, then stays gone.
  EXPECT_TRUE(rib.install(3, std::nullopt, Cost::infinity()));
  EXPECT_FALSE(rib.selected(3).valid());
  EXPECT_EQ(rib.selected(3).next_hop, kInvalidNode);
  EXPECT_FALSE(rib.install(3, std::nullopt, Cost::infinity()));
}

TEST(RibTest, KnownNeighborsAscendingAcrossPurgeAndReturn) {
  Rib rib(0, 6, Cost{0});
  ingest(rib, 4, Cost{1}, route({4, 5}, {1, 0}));
  rib.note_sender(2, Cost{3});
  ingest(rib, 5, Cost{2}, route({5}, {2}));
  EXPECT_EQ(rib.known_neighbors(), (std::vector<NodeId>{2, 4, 5}));
  EXPECT_EQ(rib.purge_neighbor(4), (std::vector<NodeId>{5}));
  EXPECT_EQ(rib.known_neighbors(), (std::vector<NodeId>{2, 5}));
  EXPECT_FALSE(rib.stored(4, 5).has_value());
  // A returning neighbor starts from an empty table.
  rib.note_sender(4, Cost{6});
  EXPECT_EQ(rib.known_neighbors(), (std::vector<NodeId>{2, 4, 5}));
  EXPECT_FALSE(rib.stored(4, 5).has_value());
  EXPECT_EQ(rib.neighbor_cost(4), Cost{6});
  // Out-of-range and unheard ids read as "nothing stored".
  EXPECT_FALSE(rib.stored(9, 5).has_value());
  EXPECT_FALSE(rib.stored(1, 5).has_value());
  EXPECT_FALSE(rib.heard_from(9));
  EXPECT_TRUE(rib.purge_neighbor(1).empty());
}

TEST(RibDeathTest, UnheardNeighborCostFailsTheContract) {
  Rib rib(0, 4, Cost{0});
  rib.note_sender(1, Cost{2});
  EXPECT_DEATH((void)rib.neighbor_cost(2), "precondition");
  EXPECT_DEATH((void)rib.neighbor_cost(7), "precondition");
  EXPECT_DEATH(rib.note_sender(4, Cost{1}), "precondition");
}

TEST(NodeSetTest, InsertContainsClear) {
  NodeSet set(8);
  EXPECT_TRUE(set.empty());
  set.insert(3);
  set.insert(3);  // repeats are no-ops
  set.insert(0);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(3));
  EXPECT_TRUE(set.contains(0));
  EXPECT_FALSE(set.contains(7));
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains(3));
  set.insert(7);
  EXPECT_EQ(set.sorted(), (std::vector<NodeId>{7}));
}

TEST(NodeSetTest, SortedIsAscendingAfterOutOfOrderInserts) {
  NodeSet set(10);
  for (NodeId v : {6u, 2u, 9u, 2u, 0u, 5u}) set.insert(v);
  EXPECT_EQ(set.sorted(), (std::vector<NodeId>{0, 2, 5, 6, 9}));
  set.insert(1);
  EXPECT_EQ(set.sorted(), (std::vector<NodeId>{0, 1, 2, 5, 6, 9}));
}

TEST(NodeSetTest, InsertAllCoversEveryIdOnce) {
  NodeSet set(5);
  set.insert(4);
  set.insert(1);
  set.insert_all();
  EXPECT_EQ(set.size(), 5u);
  EXPECT_EQ(set.sorted(), (std::vector<NodeId>{0, 1, 2, 3, 4}));
  set.insert(2);
  EXPECT_EQ(set.size(), 5u);
  set.clear();
  for (NodeId v = 0; v < 5; ++v) EXPECT_FALSE(set.contains(v));
}

TEST(NodeSetDeathTest, OutOfRangeIdFailsTheContract) {
  NodeSet set(4);
  EXPECT_DEATH(set.insert(4), "precondition");
  EXPECT_DEATH((void)set.contains(9), "precondition");
}

}  // namespace
}  // namespace fpss
