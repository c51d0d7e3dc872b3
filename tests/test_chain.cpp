// The writable replica mesh: a primary fronted by a chain of forwarding
// replicas, exercised end to end over real sockets. Pins the PR 9
// contracts — a delta submitted at the deepest tier relays hop by hop to
// the primary and the ack's version makes read-your-write work at
// any depth; hop counts and sync lag compound down the chain; the
// fallback list and the shared reconnect cursor survive a primary kill
// mid-churn; a restarted primary, warm or cold, reaches every tier; and
// the forwarding path's back-pressure is a typed refusal, never a growing
// queue. The CI TSan job runs this suite: every tier is its own thread
// pile (sync loop + server workers + test writers).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "net/client.h"
#include "net/remote_backend.h"
#include "net/server.h"
#include "replica/replica.h"
#include "service/backend.h"
#include "service/checkpoint.h"
#include "service/protocol.h"
#include "service/service.h"
#include "util/rng.h"

namespace fpss {
namespace {

using replica::ReplicaConfig;
using replica::ReplicaService;
using service::Request;
using service::RequestKind;
using service::RouteService;

RouteService make_service(const test::InstanceSpec& spec, std::size_t shards) {
  service::ServiceConfig config;
  config.shards = shards;
  return RouteService(test::make_instance(spec), config);
}

std::vector<Request> random_batch(NodeId n, std::uint64_t seed,
                                  std::size_t count = 48) {
  util::Rng rng(seed);
  std::vector<Request> batch;
  const auto kinds = {RequestKind::kCost,        RequestKind::kPrice,
                      RequestKind::kPairPayment, RequestKind::kNextHop,
                      RequestKind::kPath,        RequestKind::kPayment};
  for (std::size_t q = 0; q < count; ++q) {
    Request r;
    r.kind = *(kinds.begin() + static_cast<long>(rng.below(kinds.size())));
    r.k = static_cast<NodeId>(rng.below(n));
    r.i = static_cast<NodeId>(rng.below(n));
    r.j = static_cast<NodeId>(rng.below(n));
    batch.push_back(r);
  }
  return batch;
}

/// Payload equality only (status, value, amount, node, path) — for
/// comparing against an independently-built mirror service, whose
/// publish timestamps legitimately differ.
bool same_payload(const service::Reply& a, const service::Reply& b) {
  return a.status == b.status && a.value == b.value && a.amount == b.amount &&
         a.node == b.node && a.path == b.path;
}

net::ClientConfig to_port(std::uint16_t port) {
  net::ClientConfig config;
  config.port = port;
  return config;
}

/// primary -> mid replica -> leaf replica, each tier fronted by its own
/// RouteServer with forwarding enabled. The default four workers fit a
/// downstream replica's two connections (sync, forward) plus test clients.
struct Chain {
  explicit Chain(const test::InstanceSpec& spec, std::size_t shards)
      : primary(make_service(spec, shards)) {
    primary_front = std::make_unique<net::RouteServer>(primary);
    if (!primary_front->ok()) return;

    ReplicaConfig mid_config;
    mid_config.upstream.port = primary_front->port();
    mid = std::make_unique<ReplicaService>(mid_config);
    if (!mid->wait_until_ready(10000)) return;
    mid->wait_for_publish_beyond(primary.publish_count() - 1, 10000);
    mid_front = std::make_unique<net::RouteServer>(*mid);
    if (!mid_front->ok()) return;

    ReplicaConfig leaf_config;
    leaf_config.upstream.port = mid_front->port();
    leaf = std::make_unique<ReplicaService>(leaf_config);
    if (!leaf->wait_until_ready(10000)) return;
    leaf->wait_for_publish_beyond(primary.publish_count() - 1, 10000);
    leaf_front = std::make_unique<net::RouteServer>(*leaf);
    ready = leaf_front->ok();
  }

  // Declaration order is teardown order reversed: fronts die before the
  // backends they serve, downstream tiers before their upstreams.
  RouteService primary;
  std::unique_ptr<net::RouteServer> primary_front;
  std::unique_ptr<ReplicaService> mid;
  std::unique_ptr<net::RouteServer> mid_front;
  std::unique_ptr<ReplicaService> leaf;
  std::unique_ptr<net::RouteServer> leaf_front;
  bool ready = false;
};

// --- the depth-2 write path --------------------------------------------------

TEST(ChainE2E, LeafSubmitsRoundTripBitIdentical) {
  const test::InstanceSpec spec{"er", 28, 91, 9};
  Chain chain(spec, 4);
  ASSERT_TRUE(chain.ready);
  const NodeId n = static_cast<NodeId>(chain.primary.node_count());

  // The mirror applies the same bursts locally — the ground truth the
  // forwarded writes must land on.
  RouteService mirror = make_service(spec, 4);

  net::RemoteQueryBackend leaf_backend(to_port(chain.leaf_front->port()));
  ASSERT_TRUE(leaf_backend.connect().ok());

  util::Rng rng(spec.seed);
  for (int burst = 0; burst < 4; ++burst) {
    std::vector<RouteService::Delta> deltas;
    const std::size_t size = 1 + rng.below(3);
    for (std::size_t d = 0; d < size; ++d)
      deltas.push_back(RouteService::Delta::cost_change(
          static_cast<NodeId>(rng.below(n)),
          Cost{static_cast<Cost::rep>(1 + rng.below(9))}));

    // Submit at the LEAF: two forwarding hops to the primary.
    const auto ack = leaf_backend.submit_deltas(deltas);
    ASSERT_TRUE(ack.ok()) << "burst " << burst << ": " << ack.error;
    EXPECT_EQ(ack.accepted, deltas.size());
    ASSERT_GT(ack.publish_count, 0u);

    mirror.submit(deltas);
    mirror.drain();

    // Read-your-write at the tier the write entered: wait until the
    // leaf serves the version the primary acked.
    ASSERT_GE(leaf_backend.wait_for_publish_beyond(ack.publish_count - 1,
                                                   10000),
              ack.publish_count)
        << "burst " << burst;

    // Every tier now serves the identical cut, bit for bit.
    const auto primary_snap = chain.primary.snapshot();
    ASSERT_NE(chain.mid->store(), nullptr);
    ASSERT_NE(chain.leaf->store(), nullptr);
    EXPECT_EQ(chain.mid->store()->newest()->checksum(),
              primary_snap->checksum());
    EXPECT_EQ(chain.leaf->store()->newest()->checksum(),
              primary_snap->checksum());

    const auto batch = random_batch(n, 700 + static_cast<std::uint64_t>(burst));
    const auto from_primary = chain.primary.query(batch);
    const auto from_mid = chain.mid->query(batch);
    const auto from_leaf = chain.leaf->query(batch);
    const auto over_wire = leaf_backend.query_batch(batch);
    ASSERT_TRUE(over_wire.ok()) << over_wire.error;
    ASSERT_EQ(over_wire.replies.size(), batch.size());
    for (std::size_t q = 0; q < batch.size(); ++q) {
      EXPECT_TRUE(service::same_answer(from_primary[q], from_mid[q]))
          << "burst " << burst << " query " << q;
      EXPECT_TRUE(service::same_answer(from_primary[q], from_leaf[q]))
          << "burst " << burst << " query " << q;
      EXPECT_TRUE(service::same_answer(from_primary[q], over_wire.replies[q]))
          << "burst " << burst << " query " << q;
    }

    // And the forwarded writes landed on the mirror's ground truth.
    const auto from_mirror = mirror.query(batch);
    for (std::size_t q = 0; q < batch.size(); ++q)
      EXPECT_TRUE(same_payload(from_primary[q], from_mirror[q]))
          << "burst " << burst << " query " << q;
  }

  // Every tier tallied the relay; nothing was rejected or torn.
  const auto mid_counters = chain.mid->replication_counters();
  const auto leaf_counters = chain.leaf->replication_counters();
  EXPECT_GE(leaf_counters.deltas_forwarded, 4u);
  EXPECT_GE(mid_counters.deltas_forwarded, leaf_counters.deltas_forwarded);
  EXPECT_EQ(leaf_counters.forward_rejected, 0u);
  EXPECT_EQ(mid_counters.resyncs, 0u);
  EXPECT_EQ(leaf_counters.resyncs, 0u);
}

TEST(ChainE2E, HopCountAndSyncLagCompoundDownTheChain) {
  Chain chain({"er", 24, 92, 8}, 2);
  ASSERT_TRUE(chain.ready);
  const NodeId n = static_cast<NodeId>(chain.primary.node_count());

  // One publish after the chain settled, so both tiers' last lag sample
  // is for the same snapshot.
  net::RemoteQueryBackend leaf_backend(to_port(chain.leaf_front->port()));
  const auto ack = leaf_backend.submit_deltas(std::vector<RouteService::Delta>{
      RouteService::Delta::cost_change(static_cast<NodeId>(n - 1), Cost{4})});
  ASSERT_TRUE(ack.ok()) << ack.error;
  ASSERT_GE(leaf_backend.wait_for_publish_beyond(ack.publish_count - 1, 10000),
            ack.publish_count);

  // In-process view of the chain position.
  EXPECT_EQ(chain.mid->hop_count(), 1u);
  EXPECT_EQ(chain.leaf->hop_count(), 2u);

  // The handshake advertises the depth of whatever the front serves.
  EXPECT_EQ(leaf_backend.server_hop_count(), 2u);
  net::RouteClient to_mid(to_port(chain.mid_front->port()));
  ASSERT_TRUE(to_mid.connect().ok());
  EXPECT_EQ(to_mid.server_hop_count(), 1u);
  net::RouteClient to_primary(to_port(chain.primary_front->port()));
  ASSERT_TRUE(to_primary.connect().ok());
  EXPECT_EQ(to_primary.server_hop_count(), 0u);

  // The counters frame carries the same depth plus the lag, and the
  // leaf's lag — measured against the primary's publish stamp, which the
  // bit-identical snapshot preserves — includes the mid tier's.
  const auto mid_counters = to_mid.counters();
  ASSERT_TRUE(mid_counters.ok());
  ASSERT_TRUE(mid_counters.frame.has_replica);
  EXPECT_EQ(mid_counters.frame.replica.hop_count, 1u);
  EXPECT_GT(mid_counters.frame.replica.sync_lag_ns, 0u);

  const auto leaf_counters = leaf_backend.counters();
  ASSERT_TRUE(leaf_counters.ok());
  ASSERT_TRUE(leaf_counters.frame.has_replica);
  EXPECT_EQ(leaf_counters.frame.replica.hop_count, 2u);
  EXPECT_GE(leaf_counters.frame.replica.sync_lag_ns,
            mid_counters.frame.replica.sync_lag_ns);
}

// --- failover ----------------------------------------------------------------

TEST(ChainFailover, FallbackListSkipsDeadUpstream) {
  RouteService primary = make_service({"er", 24, 93, 7}, 2);
  const NodeId n = static_cast<NodeId>(primary.node_count());
  net::RouteServer front(primary);
  ASSERT_TRUE(front.ok()) << front.error();

  // Entry 0 is dead (nobody listens on port 1); the shared cursor must
  // advance past it for both the sync loop and the forwarder.
  net::ClientConfig dead;
  dead.port = 1;
  dead.connect_attempts = 1;
  dead.backoff_ms = 1;
  ReplicaConfig config;
  config.upstreams = {dead, to_port(front.port())};
  config.resync_backoff_ms = 10;
  ReplicaService replica(config);
  ASSERT_TRUE(replica.wait_until_ready(10000));
  ASSERT_GE(
      replica.wait_for_publish_beyond(primary.publish_count() - 1, 10000),
      primary.publish_count());

  // A write entering this replica forwards through the live entry.
  const auto ack = replica.submit_deltas(std::vector<RouteService::Delta>{
      RouteService::Delta::cost_change(0, Cost{6})});
  ASSERT_TRUE(ack.ok()) << ack.error;
  EXPECT_EQ(ack.accepted, 1u);
  ASSERT_GE(replica.wait_for_publish_beyond(ack.publish_count - 1, 10000),
            ack.publish_count);

  const auto batch = random_batch(n, 94);
  const auto from_primary = primary.query(batch);
  const auto local = replica.query(batch);
  ASSERT_EQ(local.size(), batch.size());
  for (std::size_t q = 0; q < batch.size(); ++q)
    EXPECT_TRUE(service::same_answer(from_primary[q], local[q])) << q;

  EXPECT_GE(replica.replication_counters().deltas_forwarded, 1u);
}

TEST(ChainFailover, PrimaryKillMidChurnDegradesThenRecovers) {
  RouteService primary = make_service({"er", 24, 95, 8}, 2);
  const NodeId n = static_cast<NodeId>(primary.node_count());
  net::ServerConfig server_config;
  auto server = std::make_unique<net::RouteServer>(primary, server_config);
  ASSERT_TRUE(server->ok()) << server->error();
  const std::uint16_t port = server->port();

  ReplicaConfig config;
  config.upstream.port = port;
  config.upstream.connect_attempts = 1;
  config.upstream.backoff_ms = 1;
  config.resync_backoff_ms = 20;
  ReplicaService replica(config);
  ASSERT_TRUE(replica.wait_until_ready(10000));
  ASSERT_GE(
      replica.wait_for_publish_beyond(primary.publish_count() - 1, 10000),
      primary.publish_count());

  // Pre-kill churn, including a forwarded write (so the forwarding
  // connection exists and must also fail over).
  const auto pre_ack = replica.submit_deltas(std::vector<RouteService::Delta>{
      RouteService::Delta::cost_change(1, Cost{3})});
  ASSERT_EQ(pre_ack.status, service::SubmitAck::Status::kOk);
  ASSERT_GE(replica.wait_for_publish_beyond(pre_ack.publish_count - 1, 10000),
            pre_ack.publish_count);

  const auto batch = random_batch(n, 96);
  const auto before_kill = replica.query(batch);
  const std::uint64_t coalesced_before =
      replica.replication_counters().notifies_coalesced;

  // Kill the primary's front mid-churn. The service itself survives (its
  // state is the durable thing a restarted daemon would reload).
  server.reset();

  // Churn while the replica is cut off: the primary moves on.
  util::Rng rng(97);
  for (int burst = 0; burst < 3; ++burst) {
    primary.submit({RouteService::Delta::cost_change(
        static_cast<NodeId>(rng.below(n)),
        Cost{static_cast<Cost::rep>(1 + rng.below(9))})});
    primary.drain();
  }

  // Degraded, not dead: the replica still serves its last consistent cut.
  const auto while_down = replica.query(batch);
  ASSERT_EQ(while_down.size(), before_kill.size());
  for (std::size_t q = 0; q < batch.size(); ++q)
    EXPECT_TRUE(service::same_answer(before_kill[q], while_down[q])) << q;

  // Restart on the same port (SO_REUSEADDR makes the bind immediate).
  server_config.port = port;
  server = std::make_unique<net::RouteServer>(primary, server_config);
  ASSERT_TRUE(server->ok()) << server->error();

  // Recovery: the new connection's first fetch answers at once, and one
  // sync catches the replica up past all three missed publishes — two of
  // them coalesced into it.
  ASSERT_GE(
      replica.wait_for_publish_beyond(primary.publish_count() - 1, 15000),
      primary.publish_count());
  EXPECT_EQ(replica.store()->newest()->checksum(),
            primary.snapshot()->checksum());

  const auto counters = replica.replication_counters();
  EXPECT_GE(counters.upstream_disconnects, 1u);
  EXPECT_GE(counters.resyncs, 1u);
  EXPECT_EQ(counters.notifies_coalesced - coalesced_before, 2u);

  // The forwarding path recovered too (its pre-kill connection is dead;
  // the retry loop re-dials through the shared cursor).
  const auto post_ack = replica.submit_deltas(std::vector<RouteService::Delta>{
      RouteService::Delta::cost_change(2, Cost{5})});
  EXPECT_EQ(post_ack.status, service::SubmitAck::Status::kOk);
  ASSERT_GE(replica.wait_for_publish_beyond(post_ack.publish_count - 1, 10000),
            post_ack.publish_count);

  const auto from_primary = primary.query(batch);
  const auto recovered = replica.query(batch);
  for (std::size_t q = 0; q < batch.size(); ++q)
    EXPECT_TRUE(service::same_answer(from_primary[q], recovered[q])) << q;
}

// Two primaries on one topology with different costs, both cold at
// version 1. A replica synced from the first fails over to the second,
// which never publishes again. The first fetch on the new connection is
// unparked, so it streams although the versions match; its checksum
// rejects the first's blocks, and the bootstrap that follows brings the
// second's content.
TEST(ChainFailover, FailoverToSameVersionOtherContentConverges) {
  graph::Graph g = test::make_instance({"er", 24, 100, 8});
  service::ServiceConfig service_config;
  service_config.shards = 2;
  RouteService first(g, service_config);
  g.set_cost(0, Cost{g.cost(0).value() + 5});
  RouteService second(g, service_config);
  ASSERT_EQ(first.publish_count(), 1u);
  ASSERT_EQ(second.publish_count(), 1u);
  bool blocks_differ = false;
  for (NodeId j = 0; j < g.node_count(); ++j)
    blocks_differ |= first.snapshot()->block_digest(j) !=
                     second.snapshot()->block_digest(j);
  ASSERT_TRUE(blocks_differ);

  auto first_front = std::make_unique<net::RouteServer>(first);
  ASSERT_TRUE(first_front->ok()) << first_front->error();
  net::RouteServer second_front(second);
  ASSERT_TRUE(second_front.ok()) << second_front.error();
  ReplicaConfig config;
  config.upstreams = {to_port(first_front->port()),
                      to_port(second_front.port())};
  for (net::ClientConfig& upstream : config.upstreams) {
    upstream.connect_attempts = 1;
    upstream.backoff_ms = 1;
  }
  config.resync_backoff_ms = 20;
  ReplicaService replica(config);
  ASSERT_TRUE(
      test::serves_within(replica, first.snapshot()->checksum(), 10000));

  first_front.reset();
  EXPECT_TRUE(
      test::serves_within(replica, second.snapshot()->checksum(), 5000))
      << "still serves the first upstream's content";
  replica.stop();
}

// A replica keeps one store for its life. Failing over to an upstream
// with another shard layout (2 -> 4) and a later version re-bases that
// store in place, so a handle taken before the failover serves the new
// upstream's cut in its layout, and a waiter blocked on the old version
// wakes with the new one. One upstream died, so one disconnect is counted:
// the new upstream's first fetch is a catch-up from the old upstream's cut,
// whose stream the assembler rejects, and that re-dials the same upstream
// for a bootstrap instead of failing over again.
TEST(ChainFailover, StoreHandleSurvivesAnUpstreamReshard) {
  graph::Graph g = test::make_instance({"er", 24, 102, 8});
  service::ServiceConfig service_config;
  service_config.shards = 2;
  RouteService first(g, service_config);
  g.set_cost(0, Cost{g.cost(0).value() + 5});
  service_config.shards = 4;
  RouteService second(g, service_config);
  second.submit(RouteService::Delta::republish());
  ASSERT_EQ(second.drain(), 2u);
  ASSERT_NE(first.snapshot()->content_checksum(),
            second.snapshot()->content_checksum());

  auto first_front = std::make_unique<net::RouteServer>(first);
  ASSERT_TRUE(first_front->ok()) << first_front->error();
  net::RouteServer second_front(second);
  ASSERT_TRUE(second_front.ok()) << second_front.error();
  ReplicaConfig config;
  config.upstreams = {to_port(first_front->port()),
                      to_port(second_front.port())};
  for (net::ClientConfig& upstream : config.upstreams) {
    upstream.connect_attempts = 1;
    upstream.backoff_ms = 1;
  }
  config.resync_backoff_ms = 20;
  ReplicaService replica(config);
  ASSERT_TRUE(
      test::serves_within(replica, first.snapshot()->checksum(), 10000));
  const auto held = replica.store();
  ASSERT_EQ(held->export_cut().shard_versions.size(), 2u);

  std::uint64_t woke_at = 0;
  std::thread waiter(
      [&] { woke_at = replica.wait_for_publish_beyond(1, 5000); });
  first_front.reset();
  waiter.join();
  EXPECT_EQ(woke_at, 2u);
  EXPECT_EQ(held->newest()->checksum(), second.snapshot()->checksum())
      << "the held store still serves the first upstream's cut";
  EXPECT_EQ(held->export_cut().shard_versions.size(), 4u);
  replica.stop();
  const auto counters = replica.replication_counters();
  EXPECT_EQ(counters.upstream_disconnects, 1u);
  EXPECT_EQ(counters.resyncs, 2u);
  EXPECT_EQ(counters.full_syncs, 2u);
}

// The server drops a connection that sends nothing for kIoTimeoutMs, and
// a front that restarts drops them all; a request sent on such a
// connection would fail. connect() re-dials it first instead, so a
// forwarded write needs no retry and a remote query succeeds. A restart
// on the same port stands in for the idle deadline here.
TEST(ChainFailover, ConnectionsClosedWhileIdleAreRedialed) {
  RouteService primary = make_service({"er", 20, 101, 6}, 2);
  const NodeId n = static_cast<NodeId>(primary.node_count());
  net::ServerConfig server_config;
  auto front = std::make_unique<net::RouteServer>(primary, server_config);
  ASSERT_TRUE(front->ok()) << front->error();
  server_config.port = front->port();

  ReplicaConfig config;
  config.upstream = to_port(server_config.port);
  ReplicaService replica(config);
  ASSERT_TRUE(replica.wait_until_ready(10000));
  const auto written = replica.submit_deltas(std::vector<RouteService::Delta>{
      RouteService::Delta::cost_change(0, Cost{4})});
  ASSERT_TRUE(written.ok()) << written.error;
  net::RemoteQueryBackend backend(to_port(server_config.port));
  const auto batch = random_batch(n, 102, 4);
  ASSERT_TRUE(backend.query_batch(batch).ok());

  front.reset();  // stop() closes the idle forwarding and query connections
  front = std::make_unique<net::RouteServer>(primary, server_config);
  ASSERT_TRUE(front->ok()) << front->error();

  const std::uint64_t retries = replica.replication_counters().forward_retries;
  const auto ack = replica.submit_deltas(std::vector<RouteService::Delta>{
      RouteService::Delta::cost_change(1, Cost{5})});
  ASSERT_TRUE(ack.ok()) << ack.error;
  EXPECT_EQ(replica.replication_counters().forward_retries, retries);
  const auto answered = backend.query_batch(batch);
  EXPECT_TRUE(answered.ok()) << answered.error;
  replica.stop();
}

/// primary -> mid -> leaf; five writes; then the primary's front and
/// service go down, a new primary comes up on the same port — warm from
/// its checkpoint or cold — and takes one write. Both tiers must serve the
/// new primary's state within 5 s, the leaf included, whose connection to
/// the mid never dropped. Then a write entering the mid must be readable
/// there once the wait on its ack returns.
void restart_primary_above_chain(bool warm) {
  const std::string dir = "chain_restart_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  graph::Graph g = test::make_instance({"er", 24, 99, 8});
  const NodeId n = static_cast<NodeId>(g.node_count());
  service::ServiceConfig primary_config;
  primary_config.shards = 2;
  primary_config.checkpoint_directory = dir;

  auto primary = std::make_unique<RouteService>(g, primary_config);
  auto primary_front = std::make_unique<net::RouteServer>(*primary);
  ASSERT_TRUE(primary_front->ok()) << primary_front->error();
  const std::uint16_t port = primary_front->port();

  ReplicaConfig mid_config;
  mid_config.upstream.port = port;
  mid_config.upstream.connect_attempts = 1;
  mid_config.upstream.backoff_ms = 1;
  mid_config.resync_backoff_ms = 20;
  ReplicaService mid(mid_config);
  ASSERT_TRUE(mid.wait_until_ready(10000));
  net::RouteServer mid_front(mid);
  ASSERT_TRUE(mid_front.ok()) << mid_front.error();
  ReplicaConfig leaf_config;
  leaf_config.upstream.port = mid_front.port();
  ReplicaService leaf(leaf_config);
  ASSERT_TRUE(leaf.wait_until_ready(10000));

  util::Rng rng(99);
  const auto next_write = [&] {
    const auto v = static_cast<NodeId>(rng.below(n));
    const Cost c{g.cost(v).value() + 1 +
                 static_cast<Cost::rep>(rng.below(5))};
    g.set_cost(v, c);
    return std::vector<RouteService::Delta>{
        RouteService::Delta::cost_change(v, c)};
  };
  for (int write = 0; write < 5; ++write) {
    const auto ack = primary->submit_deltas(next_write());
    ASSERT_TRUE(ack.ok()) << ack.error;
  }
  const std::uint64_t old_checksum = primary->snapshot()->checksum();
  ASSERT_TRUE(test::serves_within(mid, old_checksum, 10000));
  ASSERT_TRUE(test::serves_within(leaf, old_checksum, 10000));

  // Restart. Warm: the checkpoint holds the last publish, and the new
  // process serves it before its first convergence. Cold: the new process
  // converges the current network and starts its versions over.
  primary_front.reset();
  primary.reset();
  if (warm) {
    auto loaded = service::load_checkpoint(dir);
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    primary = std::make_unique<RouteService>(g, std::move(loaded.snapshot),
                                             primary_config);
  } else {
    primary = std::make_unique<RouteService>(g, primary_config);
  }
  net::ServerConfig front_config;
  front_config.port = port;
  primary_front = std::make_unique<net::RouteServer>(*primary, front_config);
  ASSERT_TRUE(primary_front->ok()) << primary_front->error();

  ASSERT_TRUE(primary->submit_deltas(next_write()).ok());
  const std::uint64_t restarted = primary->snapshot()->checksum();
  EXPECT_TRUE(test::serves_within(mid, restarted, 5000));
  EXPECT_TRUE(test::serves_within(leaf, restarted, 5000))
      << "the leaf still serves the pre-restart cut";

  // Read-your-own-write at the mid, on the ack's clock alone.
  net::RemoteQueryBackend at_mid(to_port(mid_front.port()));
  const auto ack = at_mid.submit_deltas(next_write());
  ASSERT_TRUE(ack.ok()) << ack.error;
  ASSERT_GE(at_mid.wait_for_publish_beyond(ack.publish_count - 1, 10000),
            ack.publish_count);
  EXPECT_EQ(mid.snapshot()->checksum(), primary->snapshot()->checksum());

  leaf.stop();
  mid.stop();
  std::filesystem::remove_all(dir);
}

// A warm primary continues the clock of the image it serves, so both
// tiers pick up its first write at once.
TEST(ChainFailover, WarmRestartedPrimaryReachesEveryTier) {
  restart_primary_above_chain(true);
}

// A cold primary starts its versions over below what the tiers serve; the
// leaf's parked fetch streams the mid's lower version once its park runs
// out, because a fetch streams any version other than its `since`.
TEST(ChainFailover, ColdRestartedPrimaryReachesEveryTier) {
  restart_primary_above_chain(false);
}

// --- back-pressure -----------------------------------------------------------

TEST(ChainBackpressure, InflightLimitZeroRejectsTypedOverTheWire) {
  RouteService primary = make_service({"er", 20, 98, 6}, 2);
  net::RouteServer primary_front(primary);
  ASSERT_TRUE(primary_front.ok());

  ReplicaConfig config;
  config.upstream.port = primary_front.port();
  config.forward_inflight_limit = 0;  // the deterministic reject-everything
  ReplicaService replica(config);
  ASSERT_TRUE(replica.wait_until_ready(10000));
  replica.wait_for_publish_beyond(0, 10000);
  const std::uint64_t clock_before = replica.publish_count();

  net::RouteServer front(replica);
  ASSERT_TRUE(front.ok()) << front.error();

  // Raw client: the refusal is a typed kError the caller can tell apart
  // from a dead upstream.
  net::RouteClient client(to_port(front.port()));
  ASSERT_TRUE(client.connect().ok());
  const auto rejected = client.submit_deltas(std::vector<RouteService::Delta>{
      RouteService::Delta::cost_change(0, Cost{2})});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error.status, net::ClientStatus::kServerError);
  ASSERT_TRUE(rejected.error.wire_status.has_value());
  EXPECT_EQ(*rejected.error.wire_status, net::WireStatus::kOverloaded);

  // The remote client surfaces the same code as a typed ack status.
  net::RemoteQueryBackend backend(to_port(front.port()));
  const auto ack = backend.submit_deltas(std::vector<RouteService::Delta>{
      RouteService::Delta::cost_change(0, Cost{2})});
  EXPECT_FALSE(ack.ok());
  EXPECT_EQ(ack.status, service::SubmitAck::Status::kOverloaded);

  // Rejected means NOT applied: the chain clock never moved.
  EXPECT_EQ(replica.publish_count(), clock_before);
  EXPECT_GE(replica.replication_counters().forward_rejected, 2u);
}

TEST(ChainBackpressure, DeadUpstreamFailsUnavailableWithinRetryBudget) {
  // Nobody listening anywhere: the write must fail typed, not hang.
  ReplicaConfig config;
  config.upstream.port = 1;
  config.upstream.connect_attempts = 1;
  config.upstream.backoff_ms = 1;
  config.resync_backoff_ms = 50;
  config.forward_attempts = 2;
  config.forward_backoff_ms = 1;
  ReplicaService replica(config);

  const auto outcome = replica.submit_deltas(std::vector<RouteService::Delta>{
      RouteService::Delta::cost_change(0, Cost{9})});
  EXPECT_EQ(outcome.status, service::SubmitAck::Status::kUnavailable);
  EXPECT_EQ(outcome.accepted, 0u);
  EXPECT_GE(replica.replication_counters().forward_retries, 2u);
  replica.stop();
}

}  // namespace
}  // namespace fpss
