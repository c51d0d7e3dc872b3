// Unit tests for the BGP substrate pieces below the agent level: the
// message size accounting, the dense NodeSet, and the Rib's
// ingest/reselect/withdraw logic and its sharing of received messages.
#include <gtest/gtest.h>

#include <memory>

#include "bgp/message.h"
#include "bgp/node_set.h"
#include "bgp/plain_agent.h"
#include "bgp/rib.h"

namespace fpss {
namespace {

using bgp::MessageRef;
using bgp::MessageSize;
using bgp::NodeSet;
using bgp::PlainBgpAgent;
using bgp::Rib;
using bgp::RouteAdvert;
using bgp::TableMessage;

RouteAdvert make_advert(NodeId from, graph::Path path,
                        std::vector<Cost::rep> costs) {
  RouteAdvert advert;
  advert.destination = path.back();
  advert.path = std::move(path);
  advert.node_costs.reserve(costs.size());
  for (Cost::rep c : costs) advert.node_costs.emplace_back(c);
  Cost total = Cost::zero();
  for (std::size_t t = 1; t + 1 < advert.path.size(); ++t)
    total += advert.node_costs[t];
  advert.cost = total;
  (void)from;
  return advert;
}

/// A hand-built advert as the Rib stores it: shared, never copied.
std::shared_ptr<const RouteAdvert> shared_advert(NodeId from, graph::Path path,
                                                 std::vector<Cost::rep> costs) {
  return std::make_shared<const RouteAdvert>(
      make_advert(from, std::move(path), std::move(costs)));
}

MessageRef make_message(NodeId sender, Cost sender_cost,
                        std::vector<RouteAdvert> entries) {
  TableMessage msg;
  msg.sender = sender;
  msg.sender_cost = sender_cost;
  msg.entries = std::move(entries);
  return std::make_shared<const TableMessage>(std::move(msg));
}

TEST(MessageSizeTest, CountsWords) {
  TableMessage msg;
  msg.sender = 0;
  msg.sender_cost = Cost{1};
  RouteAdvert advert = make_advert(0, {0, 1, 2}, {1, 2, 3});
  advert.transit_values = {{1, Cost{5}}};
  msg.entries.push_back(advert);
  const MessageSize size = measure(msg);
  EXPECT_EQ(size.entries, 1u);
  EXPECT_EQ(size.path_words, 3u);
  EXPECT_EQ(size.cost_words, 1u + 1u + 3u);  // sender + path cost + node costs
  EXPECT_EQ(size.value_words, 2u);
  EXPECT_EQ(size.total_words(), size.base_words() + 2u);
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
  rib.ingest(1, Cost{2}, shared_advert(1, {1, 3}, {2, 0}));
  EXPECT_TRUE(rib.reselect(3));
  const auto& route = rib.selected(3);
  EXPECT_EQ(route.path, (graph::Path{0, 1, 3}));
  EXPECT_EQ(route.cost, Cost{2});  // transit = neighbor 1 itself
  EXPECT_EQ(route.next_hop, 1u);
  EXPECT_FALSE(rib.reselect(3));  // unchanged on re-run
}

TEST(RibTest, PrefersCheaperThenFewerHopsThenLowerId) {
  Rib rib(0, 6, Cost{0});
  rib.ingest(1, Cost{5}, shared_advert(1, {1, 3}, {5, 0}));
  rib.ingest(2, Cost{1}, shared_advert(2, {2, 4, 3}, {1, 1, 0}));
  rib.reselect(3);
  // Via 2: transit cost 1(c2)+1(c4)=2 < via 1: 5.
  EXPECT_EQ(rib.selected(3).next_hop, 2u);

  // Equal costs: fewer hops wins.
  rib.ingest(1, Cost{2}, shared_advert(1, {1, 3}, {2, 0}));
  rib.reselect(3);
  EXPECT_EQ(rib.selected(3).next_hop, 1u);

  // Equal cost and hops: lower neighbor id wins.
  rib.ingest(2, Cost{2}, shared_advert(2, {2, 3}, {2, 0}));
  rib.reselect(3);
  EXPECT_EQ(rib.selected(3).next_hop, 1u);
}

TEST(RibTest, LoopPreventionRejectsOwnPath) {
  Rib rib(0, 4, Cost{1});
  // Neighbor 1 offers a path that already contains us.
  rib.ingest(1, Cost{2}, shared_advert(1, {1, 0, 3}, {2, 1, 0}));
  EXPECT_FALSE(rib.reselect(3));
  EXPECT_FALSE(rib.selected(3).valid());
}

TEST(RibTest, WithdrawalRemovesRoute) {
  Rib rib(0, 4, Cost{1});
  rib.ingest(1, Cost{2}, shared_advert(1, {1, 3}, {2, 0}));
  rib.reselect(3);
  ASSERT_TRUE(rib.selected(3).valid());
  RouteAdvert withdrawal;
  withdrawal.destination = 3;
  rib.ingest(1, Cost{2}, std::make_shared<const RouteAdvert>(withdrawal));
  EXPECT_TRUE(rib.reselect(3));
  EXPECT_FALSE(rib.selected(3).valid());
}

TEST(RibTest, PurgeNeighborDropsItsRoutes) {
  Rib rib(0, 4, Cost{1});
  rib.ingest(1, Cost{2}, shared_advert(1, {1, 3}, {2, 0}));
  rib.ingest(1, Cost{2}, shared_advert(1, {1, 2}, {2, 0}));
  rib.reselect(3);
  const auto dropped = rib.purge_neighbor(1);
  EXPECT_EQ(dropped, (std::vector<NodeId>{2, 3}));
  EXPECT_TRUE(rib.reselect(3));
  EXPECT_FALSE(rib.selected(3).valid());
  EXPECT_FALSE(rib.heard_from(1));
}

TEST(RibTest, NeighborCostChangeReratesRoutes) {
  Rib rib(0, 4, Cost{0});
  rib.ingest(1, Cost{2}, shared_advert(1, {1, 3}, {2, 0}));
  rib.ingest(2, Cost{3}, shared_advert(2, {2, 3}, {3, 0}));
  rib.reselect(3);
  EXPECT_EQ(rib.selected(3).next_hop, 1u);
  // Neighbor 2 becomes free: note its new cost, plus its refreshed advert.
  rib.ingest(2, Cost{0}, shared_advert(2, {2, 3}, {0, 0}));
  EXPECT_TRUE(rib.reselect(3));
  EXPECT_EQ(rib.selected(3).next_hop, 2u);
}

TEST(RibTest, ClearStoredValuesKeepsRoutes) {
  Rib rib(0, 4, Cost{0});
  RouteAdvert advert = make_advert(1, {1, 2, 3}, {1, 1, 0});
  advert.transit_values = {{2, Cost{9}}};
  const auto held = std::make_shared<const RouteAdvert>(advert);
  rib.ingest(1, Cost{1}, held);
  ASSERT_EQ(rib.stored_values(1, 3).size(), 1u);
  const std::size_t words = rib.adj_rib_in_words();
  rib.clear_stored_values();
  const RouteAdvert* stored = rib.stored(1, 3);
  ASSERT_EQ(stored, held.get());
  EXPECT_TRUE(rib.stored_values(1, 3).empty());
  EXPECT_EQ(rib.adj_rib_in_words(), words - 2);  // the (k, value) pair
  EXPECT_EQ(stored->cost, Cost{1});  // routing fields intact
  EXPECT_EQ(stored->path, (graph::Path{1, 2, 3}));
  EXPECT_EQ(stored->transit_values, advert.transit_values);  // never written
  // A fresh advert for the same (neighbor, destination) counts again.
  advert.transit_values = {{2, Cost{4}}};
  rib.ingest(1, Cost{1}, std::make_shared<const RouteAdvert>(advert));
  const bgp::TransitValues values = rib.stored_values(1, 3);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], (std::pair<NodeId, Cost>{2, Cost{4}}));
  EXPECT_EQ(rib.adj_rib_in_words(), words);
}

TEST(RibOwnershipTest, ReceivePointsIntoTheMessage) {
  PlainBgpAgent agent(0, 5, Cost{1}, bgp::UpdatePolicy::kIncremental);
  const MessageRef msg =
      make_message(1, Cost{2},
                   {make_advert(1, {1, 3}, {2, 0}),
                    make_advert(1, {1, 4, 2}, {2, 1, 0})});
  agent.receive(msg);
  for (const RouteAdvert& entry : msg->entries)
    EXPECT_EQ(agent.stored_advert(1, entry.destination), &entry);
}

TEST(RibOwnershipTest, MessageLivesWhileAnEntryIsStored) {
  PlainBgpAgent agent(0, 7, Cost{1}, bgp::UpdatePolicy::kIncremental);
  RouteAdvert withdraw_3;
  withdraw_3.destination = 3;
  RouteAdvert withdraw_4;
  withdraw_4.destination = 4;
  // Receives `msg` from neighbor 1 and keeps only a weak reference.
  const auto deliver = [&](std::vector<RouteAdvert> entries) {
    const MessageRef msg = make_message(1, Cost{2}, std::move(entries));
    agent.receive(msg);
    return std::weak_ptr<const TableMessage>(msg);
  };
  const auto first = deliver({make_advert(1, {1, 2}, {2, 0}),
                              make_advert(1, {1, 3}, {2, 0}),
                              make_advert(1, {1, 4}, {2, 0})});
  EXPECT_FALSE(first.expired());
  const auto second = deliver({make_advert(1, {1, 5, 2}, {2, 1, 0})});
  EXPECT_FALSE(first.expired());  // superseded for 2, still stored for 3, 4
  deliver({withdraw_3});
  EXPECT_FALSE(first.expired());  // still stored for 4
  deliver({withdraw_4});
  EXPECT_TRUE(first.expired());   // its last entry was withdrawn
  const auto third = deliver({make_advert(1, {1, 6, 2}, {2, 1, 0})});
  EXPECT_TRUE(second.expired());  // its only entry was superseded
  agent.on_link_down(1);
  EXPECT_TRUE(third.expired());   // purged with the session
}

TEST(RibTest, StateWordAccounting) {
  Rib rib(0, 4, Cost{1});
  const std::size_t before = rib.selected_words();
  rib.ingest(1, Cost{2}, shared_advert(1, {1, 3}, {2, 0}));
  rib.reselect(3);
  EXPECT_GT(rib.selected_words(), before);
  EXPECT_GT(rib.adj_rib_in_words(), 0u);
}

TEST(RibTest, InstallWritesOnlyOnChange) {
  Rib rib(0, 4, Cost{0});
  rib.ingest(2, Cost{4}, shared_advert(2, {2, 3}, {4, 0}));
  const RouteAdvert* winner = rib.stored(2, 3);
  ASSERT_NE(winner, nullptr);
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
  EXPECT_TRUE(rib.install(3, nullptr, Cost::infinity()));
  EXPECT_FALSE(rib.selected(3).valid());
  EXPECT_EQ(rib.selected(3).next_hop, kInvalidNode);
  EXPECT_FALSE(rib.install(3, nullptr, Cost::infinity()));
}

TEST(RibTest, KnownNeighborsAscendingAcrossPurgeAndReturn) {
  Rib rib(0, 6, Cost{0});
  rib.ingest(4, Cost{1}, shared_advert(4, {4, 5}, {1, 0}));
  rib.note_sender(2, Cost{3});
  rib.ingest(5, Cost{2}, shared_advert(5, {5}, {2}));
  EXPECT_EQ(rib.known_neighbors(), (std::vector<NodeId>{2, 4, 5}));
  EXPECT_EQ(rib.purge_neighbor(4), (std::vector<NodeId>{5}));
  EXPECT_EQ(rib.known_neighbors(), (std::vector<NodeId>{2, 5}));
  EXPECT_EQ(rib.stored(4, 5), nullptr);
  // A returning neighbor starts from an empty table.
  rib.note_sender(4, Cost{6});
  EXPECT_EQ(rib.known_neighbors(), (std::vector<NodeId>{2, 4, 5}));
  EXPECT_EQ(rib.stored(4, 5), nullptr);
  EXPECT_EQ(rib.neighbor_cost(4), Cost{6});
  // Out-of-range and unheard ids read as "nothing stored".
  EXPECT_EQ(rib.stored(9, 5), nullptr);
  EXPECT_EQ(rib.stored(1, 5), nullptr);
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
