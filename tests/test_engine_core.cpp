// The unified engine core: the event scheduler must be seed-reproducible
// bit for bit, carry every kernel capability the stage scheduler has
// (trace, threads, shared exports), and — the point of the exercise —
// still converge to the exact VCG prices when the channel model injects
// loss, link flaps, and partitions. The paper's correctness argument is
// monotone convergence, not synchrony, and these tests hold it to that.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/engine.h"
#include "bgp/hop_count_agent.h"
#include "bgp/trace.h"
#include "common.h"
#include "mechanism/vcg.h"
#include "policy/policy_agent.h"
#include "policy/relationships.h"
#include "pricing/session.h"
#include "pricing/verify.h"
#include "service/snapshot.h"
#include "util/checksum.h"

namespace fpss {
namespace {

using bgp::ChannelConfig;
using bgp::EngineConfig;
using mechanism::VcgMechanism;
using pricing::Protocol;
using pricing::Session;

/// Everything observable from a run: stats plus all routes and prices.
std::string fingerprint(Session& session, const bgp::RunStats& stats) {
  std::ostringstream out;
  out << "messages=" << stats.messages
      << " words=" << stats.traffic.total_words()
      << " lost=" << stats.lost_messages << " end=" << stats.end_time
      << " route_t=" << stats.last_route_change_time
      << " value_t=" << stats.last_value_change_time
      << " max_link=" << stats.max_link_messages
      << " converged=" << stats.converged << "\n";
  const std::size_t n = session.network().node_count();
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      if (i == j) continue;
      const bgp::SelectedRoute& route = session.route(i, j);
      out << i << "->" << j << ":";
      for (NodeId v : route.path) out << " " << v;
      for (std::size_t t = 1; t + 1 < route.path.size(); ++t)
        out << " p[" << route.path[t]
            << "]=" << session.price(route.path[t], i, j).to_string();
      out << "\n";
    }
  }
  return out.str();
}

void expect_exact(const Session& session, const graph::Graph& truth,
                  const std::string& when) {
  const VcgMechanism mech(truth);
  const auto result = pricing::verify_against_centralized(session, mech);
  EXPECT_TRUE(result.ok) << when << ": " << result.first_diff;
}

// ---------------------------------------------------------------------------
// Seed reproducibility
// ---------------------------------------------------------------------------

TEST(EventScheduler, SameSeedBitIdenticalRuns) {
  const auto g = test::make_instance({"ba", 24, 301, 9});
  ChannelConfig channel;
  channel.seed = 42;
  channel.mrai = 1.0;
  channel.loss = 0.15;
  auto run_once = [&]() {
    Session session(g, Protocol::kPriceVector, EngineConfig::event(channel));
    const auto stats = session.run();
    EXPECT_TRUE(stats.converged);
    EXPECT_GT(stats.lost_messages, 0u);  // the loss path really ran
    return fingerprint(session, stats);
  };
  const std::string first = run_once();
  EXPECT_EQ(first, run_once());
}

TEST(EventScheduler, DifferentSeedsStillExactSamePrices) {
  const auto g = test::make_instance({"er", 20, 302, 8});
  for (const std::uint64_t seed : {1ull, 7ull, 1234567ull}) {
    ChannelConfig channel;
    channel.seed = seed;
    Session session(g, Protocol::kPriceVector, EngineConfig::event(channel));
    ASSERT_TRUE(session.run().converged);
    expect_exact(session, g, "seed " + std::to_string(seed));
  }
}

TEST(EventScheduler, ThreadCountDoesNotChangeResults) {
  // The pool only accelerates the initial compute wave; delays, loss draws
  // and sequence numbers are all assigned in the serial flood phase, so the
  // run is bit-identical at any width.
  const auto g = test::make_instance({"tiered", 32, 303, 7});
  ChannelConfig channel;
  channel.seed = 9;
  channel.loss = 0.1;
  auto run_width = [&](unsigned threads) {
    EngineConfig config = EngineConfig::event(channel);
    config.threads = threads;
    Session session(g, Protocol::kPriceVector, config);
    const auto stats = session.run();
    EXPECT_TRUE(stats.converged);
    return fingerprint(session, stats);
  };
  const std::string serial = run_width(1);
  EXPECT_EQ(serial, run_width(4));
  EXPECT_EQ(serial, run_width(8));
}

// ---------------------------------------------------------------------------
// Channel models
// ---------------------------------------------------------------------------

TEST(ChannelModel, HeavyTailedDelaysStillExact) {
  const auto g = test::make_instance({"ba", 18, 304, 6});
  ChannelConfig channel;
  channel.delay = ChannelConfig::Delay::kPareto;
  channel.max_delay = 50.0;
  channel.pareto_alpha = 1.3;
  channel.seed = 17;
  Session session(g, Protocol::kAvoidanceVector, EngineConfig::event(channel));
  ASSERT_TRUE(session.run().converged);
  expect_exact(session, g, "pareto delays");
}

TEST(ChannelModel, MraiBatchingWithLossStillExact) {
  const auto g = test::make_instance({"grid", 16, 305, 5});
  ChannelConfig channel;
  channel.mrai = 2.5;
  channel.loss = 0.2;
  channel.seed = 23;
  Session session(g, Protocol::kPriceVector, EngineConfig::event(channel));
  const auto stats = session.run();
  ASSERT_TRUE(stats.converged);
  EXPECT_GT(stats.lost_messages, 0u);
  expect_exact(session, g, "mrai + loss");
}

TEST(ChannelModel, LossRetransmissionsAreCounted) {
  const auto g = test::make_instance({"er", 16, 306, 7});
  auto messages_at = [&](double loss) {
    ChannelConfig channel;
    channel.loss = loss;
    channel.seed = 3;
    Session session(g, Protocol::kPriceVector, EngineConfig::event(channel));
    const auto stats = session.run();
    EXPECT_TRUE(stats.converged);
    return stats;
  };
  const auto clean = messages_at(0.0);
  const auto lossy = messages_at(0.3);
  EXPECT_EQ(clean.lost_messages, 0u);
  EXPECT_GT(lossy.lost_messages, 0u);
  // Eventual delivery: loss slows the run down but never forfeits it.
  EXPECT_GT(lossy.end_time, clean.end_time);
}

// ---------------------------------------------------------------------------
// Fault injection: the acceptance gauntlet
// ---------------------------------------------------------------------------

// 10% i.i.d. loss plus one mid-convergence link flap, on all four topology
// families: after the link heals the run must settle on the exact VCG
// prices of the original graph. This is the refactor's reason to exist —
// correctness under realistic churn, not just the lockstep proof model.
TEST(FaultInjection, LossPlusLinkFlapExactOnAllFamilies) {
  for (const std::string family : {"tiered", "ba", "er", "ring"}) {
    const auto g = test::make_instance({family.c_str(), 24, 307, 8});
    const auto [u, v] = g.edges().front();
    ChannelConfig channel;
    channel.loss = 0.1;
    channel.seed = 71;
    channel.flaps.push_back({u, v, /*down_time=*/2.0, /*up_time=*/8.0});
    Session session(g, Protocol::kPriceVector, EngineConfig::event(channel));
    const auto stats = session.run();
    ASSERT_TRUE(stats.converged) << family;
    EXPECT_GT(stats.lost_messages, 0u) << family;
    expect_exact(session, g, family + " after loss + flap");
  }
}

TEST(FaultInjection, TemporaryPartitionHealsExactly) {
  const auto g = test::make_instance({"er", 20, 308, 6});
  bgp::PartitionEvent part;
  // Cut off a third of the network mid-convergence, heal it later.
  for (NodeId x = 0; x < g.node_count() / 3; ++x) part.group.push_back(x);
  part.down_time = 3.0;
  part.up_time = 12.0;
  ChannelConfig channel;
  channel.seed = 5;
  channel.partitions.push_back(part);
  Session session(g, Protocol::kPriceVector, EngineConfig::event(channel));
  const auto stats = session.run();
  ASSERT_TRUE(stats.converged);
  expect_exact(session, g, "after partition heal");
}

TEST(FaultInjection, PermanentLinkCutRoutesExactPricesAfterBarrier) {
  // A flap with no up_time is a permanent failure — a *worsening* event.
  // Routes reconverge exactly on their own, but price-vector values only
  // move downward, so prices for surviving routes can be stuck below the
  // new (higher) truth; per the paper's Sect. 6 semantics the price
  // computation must restart once the routes have settled. The restart
  // barrier recovers exactness.
  const auto g = test::make_instance({"er", 18, 309, 7});
  // Pick a link whose removal keeps the graph biconnected so prices stay
  // defined everywhere.
  for (const auto& [u, v] : g.edges()) {
    graph::Graph probe = g;
    probe.remove_edge(u, v);
    if (!graph::is_biconnected(probe)) continue;
    ChannelConfig channel;
    channel.seed = 13;
    channel.flaps.push_back({u, v, /*down_time=*/2.0, /*up_time=*/0.0});
    Session session(g, Protocol::kPriceVector, EngineConfig::event(channel));
    ASSERT_TRUE(session.run().converged);
    const VcgMechanism mech(probe);
    for (NodeId i = 0; i < probe.node_count(); ++i)
      for (NodeId j = 0; j < probe.node_count(); ++j) {
        if (i == j) continue;
        ASSERT_EQ(session.route(i, j).path, mech.routes().path(i, j))
            << "route " << i << "->" << j << " after permanent cut";
      }
    // Restart barrier: price state refills on the settled routes.
    for (NodeId x = 0; x < probe.node_count(); ++x)
      session.agent(x).restart_values();
    ASSERT_TRUE(session.run().converged);
    expect_exact(session, probe, "after permanent cut + barrier");
    return;
  }
  GTEST_SKIP() << "no removable link keeps the instance biconnected";
}

// ---------------------------------------------------------------------------
// Trace under the event scheduler
// ---------------------------------------------------------------------------

/// Records every callback with its tick so ordering can be asserted.
class RecordingTrace : public bgp::TraceSink {
 public:
  struct Entry {
    char kind;  // 'm'essage, 'r'oute, 'v'alue, 'd'rop, 'l'ink, 'q'uiescent
    Stage tick;
  };

  void on_message(Stage s, NodeId, NodeId, const bgp::MessageSize&) override {
    entries.push_back({'m', s});
  }
  void on_route_change(Stage s, NodeId) override {
    entries.push_back({'r', s});
  }
  void on_value_change(Stage s, NodeId) override {
    entries.push_back({'v', s});
  }
  void on_drop(Stage s, NodeId, NodeId) override {
    entries.push_back({'d', s});
  }
  void on_link_event(Stage s, NodeId, NodeId, bool) override {
    entries.push_back({'l', s});
  }
  void on_quiescent(Stage s) override { entries.push_back({'q', s}); }

  std::vector<Entry> entries;
};

TEST(EventTrace, CallbacksFireInTickOrder) {
  const auto g = test::make_instance({"ba", 16, 310, 6});
  const auto [u, v] = g.edges().front();
  ChannelConfig channel;
  channel.seed = 29;
  channel.loss = 0.2;
  channel.flaps.push_back({u, v, /*down_time=*/1.5, /*up_time=*/5.0});
  Session session(g, Protocol::kPriceVector, EngineConfig::event(channel));
  RecordingTrace trace;
  session.engine().set_trace(&trace);
  const auto stats = session.run();
  session.engine().set_trace(nullptr);
  ASSERT_TRUE(stats.converged);

  std::size_t messages = 0, drops = 0, links = 0, quiescents = 0;
  Stage last_tick = 0;
  for (const auto& entry : trace.entries) {
    EXPECT_GE(entry.tick, last_tick) << "trace ticks must be monotone";
    last_tick = entry.tick;
    messages += entry.kind == 'm';
    drops += entry.kind == 'd';
    links += entry.kind == 'l';
    quiescents += entry.kind == 'q';
  }
  EXPECT_EQ(messages, stats.messages);
  EXPECT_GT(drops, 0u);       // loss and/or flap killed something
  EXPECT_EQ(links, 2u);       // one down + one up
  EXPECT_EQ(quiescents, 1u);  // fired exactly once, at the end
  EXPECT_EQ(trace.entries.back().kind, 'q');
}

TEST(EventTrace, SinkIdenticalAcrossIdenticalRuns) {
  const auto g = test::make_instance({"er", 14, 311, 5});
  auto record = [&]() {
    ChannelConfig channel;
    channel.seed = 31;
    channel.loss = 0.1;
    Session session(g, Protocol::kAvoidanceVector,
                    EngineConfig::event(channel));
    RecordingTrace trace;
    session.engine().set_trace(&trace);
    EXPECT_TRUE(session.run().converged);
    session.engine().set_trace(nullptr);
    std::ostringstream out;
    for (const auto& entry : trace.entries)
      out << entry.kind << entry.tick << ";";
    return out.str();
  };
  EXPECT_EQ(record(), record());
}

// ---------------------------------------------------------------------------
// The unified clock
// ---------------------------------------------------------------------------

TEST(UnifiedClock, StageSchedulerMirrorsStagesIntoTimeFields) {
  const auto g = test::make_instance({"ba", 16, 312, 6});
  Session session(g, Protocol::kPriceVector);
  const auto stats = session.run();
  ASSERT_TRUE(stats.converged);
  EXPECT_EQ(session.engine().stats().end_time,
            static_cast<double>(session.engine().stats().stages));
  EXPECT_EQ(session.engine().stats().last_route_change_time,
            static_cast<double>(session.engine().stats().last_route_change_stage));
  EXPECT_EQ(session.engine().stats().last_value_change_time,
            static_cast<double>(session.engine().stats().last_value_change_stage));
  EXPECT_EQ(session.engine().now(), stats.end_time);
}

TEST(UnifiedClock, EventSchedulerReportsVirtualTime) {
  const auto g = test::make_instance({"er", 14, 313, 6});
  ChannelConfig channel;
  channel.seed = 37;
  Session session(g, Protocol::kPriceVector, EngineConfig::event(channel));
  const auto stats = session.run();
  ASSERT_TRUE(stats.converged);
  EXPECT_EQ(stats.stages, 0u);  // no lockstep stages under kEvent
  EXPECT_GT(stats.end_time, 0.0);
  EXPECT_GE(stats.end_time, stats.last_value_change_time);
  EXPECT_GE(stats.last_value_change_time, 0.0);
  EXPECT_EQ(session.engine().now(), stats.end_time);
}

// ---------------------------------------------------------------------------
// Dynamics through the session, under the event scheduler
// ---------------------------------------------------------------------------

TEST(EventDynamics, FailAndRestoreNodeRoundTrips) {
  const auto g = test::make_instance({"er", 16, 314, 7});
  ChannelConfig channel;
  channel.seed = 41;
  Session session(g, Protocol::kPriceVector, EngineConfig::event(channel));
  ASSERT_TRUE(session.run().converged);
  const NodeId victim = 0;
  const auto failure =
      session.fail_node(victim, pricing::RestartPolicy::kRestartBarrier);
  ASSERT_TRUE(failure.stats.converged);
  EXPECT_EQ(failure.links.size(), g.degree(victim));
  const auto stats =
      session.restore_node(failure.links, pricing::RestartPolicy::kRestartBarrier);
  ASSERT_TRUE(stats.converged);
  expect_exact(session, g, "event-scheduled crash+restore");
}


// ---------------------------------------------------------------------------
// Golden behaviour: absolute values pinned from a reference run
// ---------------------------------------------------------------------------
//
// The tests above compare runs with each other or with the centralized
// mechanism. These pin absolute values, so a change to the agents' state
// that keeps runs self-consistent and prices exact but moves one message,
// entry or stage still fails. Each scenario runs a 64-node tiered graph
// cold, then reconverges after one cost change, one link removal and the
// link's return (pricing sessions under the restart barrier). Each step
// yields one line: every RunStats field of the segment plus an FNV-1a
// digest over every selected path, route cost and (for the pricing agents)
// price.

struct GoldenInstance {
  graph::Graph g{3};
  policy::Relationships relationships;
  NodeId cost_node = kInvalidNode;
  Cost new_cost;
  NodeId link_u = kInvalidNode;
  NodeId link_v = kInvalidNode;
};

const GoldenInstance& golden_instance() {
  static const GoldenInstance instance = [] {
    util::Rng rng(1402);
    graphgen::TieredParams params;
    params.core_count = 4;
    params.mid_count = 16;
    params.stub_count = 44;
    auto tiered = graphgen::tiered_internet_annotated(params, rng);
    graphgen::assign_random_costs(tiered.g, 1, 9, rng);
    GoldenInstance out;
    out.relationships = policy::Relationships::from_tiered(tiered);
    out.g = tiered.g;
    // A mid-tier AS raises its cost: a worsening event that reroutes.
    out.cost_node = static_cast<NodeId>(params.core_count);
    out.new_cost = out.g.cost(out.cost_node) + Cost{6};
    // The first link whose loss keeps every price defined.
    for (const auto& [u, v] : out.g.edges()) {
      graph::Graph probe = out.g;
      probe.remove_edge(u, v);
      if (!graph::is_biconnected(probe)) continue;
      out.link_u = u;
      out.link_v = v;
      break;
    }
    return out;
  }();
  return instance;
}

std::uint64_t route_digest(const bgp::Network& net) {
  const auto fold_cost = [](util::Fnv1a64& fnv, Cost c) {
    fnv.i64(c.is_finite() ? c.value() : -1);
  };
  util::Fnv1a64 fnv;
  const std::size_t n = net.node_count();
  for (NodeId i = 0; i < n; ++i) {
    const auto& agent = static_cast<const bgp::PlainBgpAgent&>(net.agent(i));
    const auto* priced = dynamic_cast<const pricing::PricingAgent*>(&agent);
    for (NodeId j = 0; j < n; ++j) {
      if (i == j) continue;
      const bgp::SelectedRoute& route = agent.selected(j);
      fnv.u64(route.path.size());
      for (NodeId v : route.path) fnv.u32(v);
      fold_cost(fnv, route.cost);
      if (priced == nullptr) continue;
      for (std::size_t t = 1; t + 1 < route.path.size(); ++t)
        fold_cost(fnv, priced->price(j, route.path[t]));
    }
  }
  return fnv.digest();
}

std::string golden_line(const bgp::RunStats& s, std::uint64_t digest) {
  std::ostringstream out;
  out << "stages=" << s.stages << " messages=" << s.messages
      << " entries=" << s.traffic.entries
      << " path_words=" << s.traffic.path_words
      << " cost_words=" << s.traffic.cost_words
      << " value_words=" << s.traffic.value_words
      << " max_link=" << s.max_link_messages
      << " route_stage=" << s.last_route_change_stage
      << " value_stage=" << s.last_value_change_stage << " end=" << s.end_time
      << " route_t=" << s.last_route_change_time
      << " value_t=" << s.last_value_change_time
      << " lost=" << s.lost_messages << " converged=" << s.converged
      << " digest=" << std::hex << digest;
  return out.str();
}

/// One line per step: cold run, cost change, link removal, link return.
using GoldenRun = std::vector<std::string>;

/// Drives `session` through the golden sequence under the restart barrier
/// and returns one line per step, made by `line(stats)`.
template <typename Line>
GoldenRun golden_session_steps(Session& session, const Line& line) {
  const GoldenInstance& in = golden_instance();
  const auto barrier = pricing::RestartPolicy::kRestartBarrier;
  GoldenRun lines;
  lines.push_back(line(session.run()));
  lines.push_back(
      line(session.change_cost(in.cost_node, in.new_cost, barrier)));
  lines.push_back(line(session.remove_link(in.link_u, in.link_v, barrier)));
  lines.push_back(line(session.add_link(in.link_u, in.link_v, barrier)));
  return lines;
}

GoldenRun golden_session_run(Protocol protocol, const EngineConfig& config) {
  Session session(golden_instance().g, protocol, config);
  return golden_session_steps(session, [&](const bgp::RunStats& stats) {
    return golden_line(stats, route_digest(session.network()));
  });
}

GoldenRun golden_agent_run(const bgp::AgentFactory& factory) {
  const GoldenInstance& in = golden_instance();
  bgp::Network net(in.g, factory);
  bgp::Engine engine(net);
  GoldenRun lines;
  const auto record = [&](const bgp::RunStats& stats) {
    lines.push_back(golden_line(stats, route_digest(net)));
  };
  record(engine.run());
  net.change_cost(in.cost_node, in.new_cost);
  record(engine.run());
  net.remove_link(in.link_u, in.link_v);
  record(engine.run());
  net.add_link(in.link_u, in.link_v);
  record(engine.run());
  return lines;
}

EngineConfig golden_event_config() {
  ChannelConfig channel;
  channel.delay = ChannelConfig::Delay::kUniform;
  channel.min_delay = 0.1;
  channel.max_delay = 1.0;
  channel.mrai = 0.5;
  channel.seed = 14;
  return EngineConfig::event(channel);
}

void expect_golden(const GoldenRun& actual, const GoldenRun& expected,
                   const std::string& label) {
  static const char* const kSteps[] = {"cold run", "cost change",
                                       "link removal", "link return"};
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t step = 0; step < actual.size(); ++step)
    EXPECT_EQ(actual[step], expected[step]) << label << ", " << kSteps[step];
}

TEST(GoldenBehaviour, InstanceIsBiconnectedWithARemovableLink) {
  const GoldenInstance& in = golden_instance();
  EXPECT_EQ(in.g.node_count(), 64u);
  EXPECT_TRUE(graph::is_biconnected(in.g));
  EXPECT_NE(in.link_u, kInvalidNode);
}

TEST(GoldenBehaviour, PriceVectorStageScheduler) {
  const GoldenRun expected = {
      "stages=8 messages=1613 entries=29815 path_words=103785"
      " cost_words=135213 value_words=88890 max_link=7 route_stage=6"
      " value_stage=7 end=8 route_t=6 value_t=7 lost=0 converged=1"
      " digest=ea1cb556a9b5bb20",
      "stages=11 messages=1439 entries=31533 path_words=119141"
      " cost_words=152113 value_words=112764 max_link=10 route_stage=13"
      " value_stage=18 end=19 route_t=13 value_t=18 lost=0 converged=1"
      " digest=a7cf596416a0aa77",
      "stages=10 messages=949 entries=25645 path_words=95532"
      " cost_words=122126 value_words=89060 max_link=14 route_stage=23"
      " value_stage=28 end=29 route_t=23 value_t=28 lost=0 converged=1"
      " digest=72b4e220a3744e7a",
      "stages=11 messages=1022 entries=27276 path_words=101172"
      " cost_words=129470 value_words=93852 max_link=19 route_stage=34"
      " value_stage=39 end=40 route_t=34 value_t=39 lost=0 converged=1"
      " digest=a7cf596416a0aa77",
  };
  for (const unsigned threads : {1u, 2u})
    expect_golden(golden_session_run(Protocol::kPriceVector,
                                     EngineConfig::stage(threads)),
                  expected, "threads " + std::to_string(threads));
}

TEST(GoldenBehaviour, AvoidanceVectorStageScheduler) {
  const GoldenRun expected = {
      "stages=8 messages=1613 entries=29815 path_words=103785"
      " cost_words=135213 value_words=88890 max_link=7 route_stage=6"
      " value_stage=7 end=8 route_t=6 value_t=7 lost=0 converged=1"
      " digest=ea1cb556a9b5bb20",
      "stages=11 messages=1420 entries=31433 path_words=118831"
      " cost_words=151684 value_words=112544 max_link=10 route_stage=13"
      " value_stage=18 end=19 route_t=13 value_t=18 lost=0 converged=1"
      " digest=a7cf596416a0aa77",
      "stages=10 messages=949 entries=25645 path_words=95532"
      " cost_words=122126 value_words=89060 max_link=14 route_stage=23"
      " value_stage=28 end=29 route_t=23 value_t=28 lost=0 converged=1"
      " digest=72b4e220a3744e7a",
      "stages=11 messages=1022 entries=27276 path_words=101172"
      " cost_words=129470 value_words=93852 max_link=19 route_stage=34"
      " value_stage=39 end=40 route_t=34 value_t=39 lost=0 converged=1"
      " digest=a7cf596416a0aa77",
  };
  for (const unsigned threads : {1u, 2u})
    expect_golden(golden_session_run(Protocol::kAvoidanceVector,
                                     EngineConfig::stage(threads)),
                  expected, "threads " + std::to_string(threads));
}

std::string state_line(const bgp::StateSize& s) {
  return "selected=" + std::to_string(s.selected_words) +
         " rib_in=" + std::to_string(s.rib_in_words) +
         " values=" + std::to_string(s.value_words);
}

TEST(GoldenBehaviour, PriceVectorStateAccounting) {
  // E5 and Theorem 2's table-size claim read Network::total_state(). Pin it
  // after every step of the golden sequence, and once between a restart's
  // value reset and its refill: the only state in which the stored adverts'
  // values are stale and must count zero words.
  const std::vector<std::string> expected = {
      "selected=34556 rib_in=201036 values=14204",  // cold run
      "selected=35236 rib_in=206112 values=14884",  // cost change
      "selected=35244 rib_in=204904 values=14892",  // link removal
      "selected=35236 rib_in=206112 values=14884",  // link return
      // After restart_values(), before the refill.
      "selected=35236 rib_in=149166 values=14884",
      "selected=35236 rib_in=206112 values=14884",  // refilled
  };
  const GoldenInstance& in = golden_instance();
  const auto barrier = pricing::RestartPolicy::kRestartBarrier;
  for (const unsigned threads : {1u, 2u}) {
    Session session(in.g, Protocol::kPriceVector,
                    EngineConfig::stage(threads));
    std::vector<std::string> lines;
    const auto record = [&] {
      lines.push_back(state_line(session.network().total_state()));
    };
    session.run();
    record();
    session.change_cost(in.cost_node, in.new_cost, barrier);
    record();
    session.remove_link(in.link_u, in.link_v, barrier);
    record();
    session.add_link(in.link_u, in.link_v, barrier);
    record();
    for (NodeId v = 0; v < in.g.node_count(); ++v)
      session.agent(v).restart_values();
    record();
    session.run();
    record();
    EXPECT_EQ(lines, expected) << "threads " << threads;
  }
}

TEST(GoldenBehaviour, PriceVectorFullTables) {
  // The pricing agents' full-table branch of advertise(): every activation
  // that changes anything resends the whole table, values included
  // (footnote 6's worst case). Each line adds Network::total_state().
  const GoldenRun expected = {
      "stages=8 messages=1613 entries=59657 path_words=193515"
      " cost_words=254785 value_words=151628 max_link=7 route_stage=6"
      " value_stage=7 end=8 route_t=6 value_t=7 lost=0 converged=1"
      " digest=ea1cb556a9b5bb20 selected=34556 rib_in=201036 values=14204",
      "stages=11 messages=1439 entries=92096 path_words=328163"
      " cost_words=421698 value_words=290820 max_link=10 route_stage=13"
      " value_stage=18 end=19 route_t=13 value_t=18 lost=0 converged=1"
      " digest=a7cf596416a0aa77 selected=35236 rib_in=206112 values=14884",
      "stages=10 messages=949 entries=60736 path_words=218188"
      " cost_words=279873 value_words=195330 max_link=14 route_stage=23"
      " value_stage=28 end=29 route_t=23 value_t=28 lost=0 converged=1"
      " digest=72b4e220a3744e7a selected=35244 rib_in=204904 values=14892",
      "stages=11 messages=1022 entries=65408 path_words=234962"
      " cost_words=301392 value_words=210336 max_link=19 route_stage=34"
      " value_stage=39 end=40 route_t=34 value_t=39 lost=0 converged=1"
      " digest=a7cf596416a0aa77 selected=35236 rib_in=206112 values=14884",
  };
  Session session(golden_instance().g, Protocol::kPriceVector,
                  EngineConfig::stage(1), bgp::UpdatePolicy::kFullTable);
  const auto line = [&](const bgp::RunStats& stats) {
    const bgp::Network& net = session.network();
    return golden_line(stats, route_digest(net)) + " " +
           state_line(net.total_state());
  };
  expect_golden(golden_session_steps(session, line), expected, "full tables");
}

/// The dirty set as a line fragment of ascending runs ("0-3,5,8-9").
std::string dirty_field(const std::optional<std::vector<NodeId>>& dirty) {
  if (!dirty.has_value()) return "unknown";
  if (dirty->empty()) return "none";
  std::ostringstream out;
  for (std::size_t r = 0; r < dirty->size();) {
    std::size_t end = r + 1;  // one past the run starting at r
    while (end < dirty->size() && (*dirty)[end] == (*dirty)[end - 1] + 1)
      ++end;
    out << (r == 0 ? "" : ",") << (*dirty)[r];
    if (end - r > 1) out << "-" << (*dirty)[end - 1];
    r = end;
  }
  return out.str();
}

TEST(GoldenBehaviour, ServiceExport) {
  // The serving layer's view of the golden sequence: after each step, the
  // destinations Session::dirty_destinations reports since the previous
  // export, and the content checksum of the export built from them (cold,
  // then copy-on-write over the previous export). The checksum folds every
  // block digest, so this pins the bytes of every exported row, which
  // fpss-snap files and replication streams carry as they are.
  const GoldenRun expected = {
      "dirty=0-63 content=b6efe7f877f160ad",
      "dirty=0-3,5-63 content=275562909b98ddc5",
      "dirty=0-1,5,8-11,13,15,17-18,20,22-23,25,27,29-38,41,43-46,49-54,56,58,"
      "61,63 content=6689cce18be71f85",
      "dirty=0-1,5,8-11,13,15,17-18,20,22-23,25,27,29-38,41,43-46,49-54,56,58,"
      "61,63 content=d7a3a11781252207",
  };
  const GoldenInstance& in = golden_instance();
  for (const unsigned threads : {1u, 2u}) {
    Session session(in.g, Protocol::kPriceVector,
                    EngineConfig::stage(threads));
    session.track_dirty_destinations(true);
    std::shared_ptr<const service::RouteSnapshot> served;
    std::uint64_t exported_epoch = 0;
    const auto line = [&](const bgp::RunStats&) {
      const auto dirty = session.dirty_destinations(exported_epoch);
      served = service::RouteSnapshot::from_session(
          session, session.engine().converged_epochs(), served, dirty,
          nullptr, session.engine().pool());
      exported_epoch = session.engine().converged_epochs();
      std::ostringstream out;
      out << "dirty=" << dirty_field(dirty)
          << " content=" << std::hex << served->content_checksum();
      return out.str();
    };
    expect_golden(golden_session_steps(session, line), expected,
                  "threads " + std::to_string(threads));
  }
}

TEST(GoldenBehaviour, PriceVectorEventSchedulerWithMrai) {
  const GoldenRun expected = {
      "stages=0 messages=2478 entries=40618 path_words=148056"
      " cost_words=191152 value_words=134220 max_link=11 route_stage=0"
      " value_stage=0 end=6.32789 route_t=4.93694 value_t=5.43694 lost=0"
      " converged=1 digest=ea1cb556a9b5bb20",
      "stages=0 messages=1975 entries=33475 path_words=127514"
      " cost_words=162964 value_words=121742 max_link=15 route_stage=0"
      " value_stage=0 end=14.9972 route_t=9.80715 value_t=14.2914 lost=0"
      " converged=1 digest=a7cf596416a0aa77",
      "stages=0 messages=1212 entries=26800 path_words=100601"
      " cost_words=128613 value_words=94578 max_link=22 route_stage=0"
      " value_stage=0 end=20.9973 route_t=16.563 value_t=20.4697 lost=0"
      " converged=1 digest=72b4e220a3744e7a",
      "stages=0 messages=1401 entries=28569 path_words=106605"
      " cost_words=136575 value_words=99546 max_link=29 route_stage=0"
      " value_stage=0 end=28.8211 route_t=23.8013 value_t=27.8576 lost=0"
      " converged=1 digest=a7cf596416a0aa77",
  };
  expect_golden(
      golden_session_run(Protocol::kPriceVector, golden_event_config()),
      expected, "event scheduler");
}

TEST(GoldenBehaviour, AvoidanceVectorEventSchedulerWithMrai) {
  const GoldenRun expected = {
      "stages=0 messages=2478 entries=40618 path_words=148056"
      " cost_words=191152 value_words=134220 max_link=11 route_stage=0"
      " value_stage=0 end=6.32789 route_t=4.93694 value_t=5.43694 lost=0"
      " converged=1 digest=ea1cb556a9b5bb20",
      "stages=0 messages=1834 entries=33085 path_words=125960"
      " cost_words=160879 value_words=120194 max_link=15 route_stage=0"
      " value_stage=0 end=14.7658 route_t=9.51706 value_t=13.833 lost=0"
      " converged=1 digest=a7cf596416a0aa77",
      "stages=0 messages=1221 entries=26802 path_words=100621"
      " cost_words=128644 value_words=94610 max_link=22 route_stage=0"
      " value_stage=0 end=21.0618 route_t=16.5234 value_t=20.2768 lost=0"
      " converged=1 digest=72b4e220a3744e7a",
      "stages=0 messages=1389 entries=28569 path_words=106727"
      " cost_words=136685 value_words=99790 max_link=29 route_stage=0"
      " value_stage=0 end=28.5503 route_t=23.6061 value_t=27.6208 lost=0"
      " converged=1 digest=a7cf596416a0aa77",
  };
  expect_golden(
      golden_session_run(Protocol::kAvoidanceVector, golden_event_config()),
      expected, "event scheduler");
}

TEST(GoldenBehaviour, HopCountAgentFullTables) {
  const GoldenRun expected = {
      "stages=6 messages=1279 entries=38281 path_words=117700"
      " cost_words=157260 value_words=0 max_link=5 route_stage=5"
      " value_stage=0 end=6 route_t=5 value_t=0 lost=0 converged=1"
      " digest=61b64ce5a808a599",
      "stages=5 messages=290 entries=18560 path_words=62135 cost_words=80985"
      " value_words=0 max_link=6 route_stage=10 value_stage=0 end=11"
      " route_t=10 value_t=0 lost=0 converged=1 digest=c4e68611b0a95c86",
      "stages=4 messages=115 entries=7360 path_words=24565 cost_words=32040"
      " value_words=0 max_link=7 route_stage=14 value_stage=0 end=15"
      " route_t=14 value_t=0 lost=0 converged=1 digest=3db17ef06a0c87e9",
      "stages=5 messages=133 entries=8512 path_words=28151 cost_words=36796"
      " value_words=0 max_link=8 route_stage=19 value_stage=0 end=20"
      " route_t=19 value_t=0 lost=0 converged=1 digest=c4e68611b0a95c86",
  };
  expect_golden(golden_agent_run(bgp::make_hop_count_factory(
                    bgp::UpdatePolicy::kFullTable)),
                expected, "hop count");
}

TEST(GoldenBehaviour, GaoRexfordAgent) {
  const GoldenRun expected = {
      "stages=7 messages=979 entries=11257 path_words=36012 cost_words=48248"
      " value_words=0 max_link=6 route_stage=7 value_stage=0 end=7 route_t=7"
      " value_t=0 lost=0 converged=1 digest=d051c1e4fe70d9e3",
      "stages=5 messages=194 entries=3521 path_words=12680 cost_words=16395"
      " value_words=0 max_link=8 route_stage=12 value_stage=0 end=12"
      " route_t=12 value_t=0 lost=0 converged=1 digest=976ee23967160ae1",
      "stages=4 messages=70 entries=70 path_words=210 cost_words=350"
      " value_words=0 max_link=9 route_stage=16 value_stage=0 end=16"
      " route_t=16 value_t=0 lost=0 converged=1 digest=691f8992f4e1fb15",
      "stages=5 messages=74 entries=1054 path_words=3400 cost_words=4528"
      " value_words=0 max_link=10 route_stage=21 value_stage=0 end=21"
      " route_t=21 value_t=0 lost=0 converged=1 digest=976ee23967160ae1",
  };
  expect_golden(golden_agent_run(policy::make_policy_factory(
                    &golden_instance().relationships,
                    bgp::UpdatePolicy::kIncremental)),
                expected, "Gao-Rexford");
}

}  // namespace
}  // namespace fpss
