// The read-replica subsystem: ReplicationCodec stream fidelity (round
// trips, every-prefix truncation fuzz, stream anomalies), the O(dirty)
// per-shard transfer property pinned deterministically through a raw
// client fetch, push-based subscription semantics (ack coalescing, the
// subscribed-connection guard), warm starts from a local checkpoint with
// digest adoption, and primary/replica end-to-end equality across
// randomized delta bursts — including the torn-view reader hunt the CI
// TSan job leans on.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "replica/replica.h"
#include "service/checkpoint.h"
#include "service/protocol.h"
#include "service/replication.h"
#include "service/service.h"
#include "service/snapshot.h"
#include "service/store.h"
#include "util/rng.h"

namespace fpss {
namespace {

using replica::ReplicaConfig;
using replica::ReplicaService;
using service::ReplicationCodec;
using service::Request;
using service::RequestKind;
using service::RouteService;
using service::RouteSnapshot;

RouteService make_service(const test::InstanceSpec& spec, std::size_t shards) {
  service::ServiceConfig config;
  config.shards = shards;
  return RouteService(test::make_instance(spec), config);
}

/// Encodes the complete replication stream for `cut` (every listed shard's
/// data chunks, then the final chunk announcing `sent`).
std::vector<std::string> full_stream(
    const service::ShardedSnapshotStore::ExportCut& cut,
    const std::vector<std::uint32_t>& sent) {
  std::vector<std::string> chunks;
  ReplicationCodec::encode_stream(*cut.newest, cut.shard_versions, sent,
                                  [&chunks](std::string_view chunk) {
                                    chunks.emplace_back(chunk);
                                    return true;
                                  });
  return chunks;
}

/// A fetch sink feeding `assembler` chunk by chunk.
net::ChunkSink into(ReplicationCodec::Assembler& assembler) {
  return [&assembler](std::string_view chunk) {
    return assembler.feed(chunk);
  };
}

std::vector<std::uint32_t> all_shards(std::size_t shard_count) {
  std::vector<std::uint32_t> sent(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s)
    sent[s] = static_cast<std::uint32_t>(s);
  return sent;
}

std::vector<Request> random_batch(NodeId n, std::uint64_t seed,
                                  std::size_t count = 48) {
  util::Rng rng(seed);
  std::vector<Request> batch;
  const auto kinds = {RequestKind::kCost,     RequestKind::kPrice,
                      RequestKind::kPairPayment, RequestKind::kNextHop,
                      RequestKind::kPath,     RequestKind::kPayment};
  for (std::size_t q = 0; q < count; ++q) {
    Request r;
    r.kind = *(kinds.begin() + static_cast<long>(rng.below(kinds.size())));
    r.k = static_cast<NodeId>(rng.below(n));
    r.i = static_cast<NodeId>(rng.below(n));
    r.j = static_cast<NodeId>(rng.below(n));
    batch.push_back(r);
  }
  batch.push_back({RequestKind::kCost, 0, n, 0});  // out of range
  return batch;
}

// --- codec: round trips -----------------------------------------------------

TEST(ReplicationCodec, FullStreamRoundTrip) {
  RouteService svc = make_service({"er", 24, 41, 10}, 4);
  const auto cut = svc.store().export_cut();
  ASSERT_NE(cut.newest, nullptr);

  ReplicationCodec::Assembler assembler(nullptr);
  for (const std::string& chunk :
       full_stream(cut, all_shards(svc.store().shard_count())))
    ASSERT_TRUE(assembler.feed(chunk)) << assembler.error();
  const auto result = assembler.finish();
  ASSERT_TRUE(result.ok()) << result.error;

  EXPECT_EQ(result.snapshot->version(), cut.newest->version());
  EXPECT_EQ(result.snapshot->checksum(), cut.newest->checksum());
  EXPECT_EQ(result.snapshot->content_checksum(),
            cut.newest->content_checksum());
  EXPECT_EQ(result.shard_versions, cut.shard_versions);
  EXPECT_TRUE(result.snapshot->self_check());

  // Every answer evaluated against the reassembled snapshot is the answer
  // the original gives.
  const std::uint64_t now = 1;
  for (const Request& r :
       random_batch(static_cast<NodeId>(cut.newest->node_count()), 5)) {
    EXPECT_TRUE(service::same_answer(service::answer(*result.snapshot, r, now),
                                     service::answer(*cut.newest, r, now)));
  }
}

TEST(ReplicationCodec, DirtyOnlyStreamAppliesOverBase) {
  RouteService svc = make_service({"ba", 32, 42, 12}, 8);
  const auto before = svc.store().export_cut();

  svc.submit({RouteService::Delta::cost_change(3, Cost{7}),
              RouteService::Delta::cost_change(11, Cost{2})});
  svc.drain();
  const auto after = svc.store().export_cut();
  ASSERT_GT(after.newest->version(), before.newest->version());

  // What a caught-up replica would request: only the moved shards.
  std::vector<std::uint32_t> dirty;
  for (std::size_t s = 0; s < after.shard_versions.size(); ++s)
    if (after.shard_versions[s] != before.shard_versions[s])
      dirty.push_back(static_cast<std::uint32_t>(s));

  ReplicationCodec::Assembler assembler(before.newest);
  for (const std::string& chunk : full_stream(after, dirty))
    ASSERT_TRUE(assembler.feed(chunk)) << assembler.error();
  const auto result = assembler.finish();
  ASSERT_TRUE(result.ok()) << result.error;

  EXPECT_EQ(result.snapshot->checksum(), after.newest->checksum());
  EXPECT_EQ(result.shards_sent.size(), dirty.size());
  EXPECT_TRUE(result.snapshot->self_check());
}

TEST(ReplicationCodec, IdenticalBlocksAreAdoptedFromBase) {
  RouteService svc = make_service({"er", 20, 43, 9}, 4);
  const auto cut = svc.store().export_cut();

  // A full restream over an identical base adopts every block: the wire
  // copies are dropped in favor of the resident ones.
  ReplicationCodec::Assembler assembler(cut.newest);
  for (const std::string& chunk :
       full_stream(cut, all_shards(svc.store().shard_count())))
    ASSERT_TRUE(assembler.feed(chunk)) << assembler.error();
  const auto result = assembler.finish();
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.blocks_adopted, cut.newest->node_count());
}

// --- codec: torn and hostile streams ----------------------------------------

// The satellite acceptance bar: every byte-prefix truncation of every
// chunk must leave the assembler rejecting the stream — a torn shard
// payload can never produce a publishable snapshot.
TEST(ReplicationCodec, EveryTruncationOfEveryChunkIsRejected) {
  RouteService svc = make_service({"er", 16, 44, 8}, 4);
  const auto cut = svc.store().export_cut();
  const auto chunks =
      full_stream(cut, all_shards(svc.store().shard_count()));

  for (std::size_t c = 0; c < chunks.size(); ++c) {
    for (std::size_t bytes = 0; bytes < chunks[c].size(); ++bytes) {
      ReplicationCodec::Assembler assembler(nullptr);
      for (std::size_t prior = 0; prior < c; ++prior)
        ASSERT_TRUE(assembler.feed(chunks[prior]));
      // The truncated chunk either fails immediately or poisons the
      // stream; even when fed the remaining chunks, finish() must reject.
      if (assembler.feed(std::string_view(chunks[c]).substr(0, bytes))) {
        for (std::size_t rest = c + 1; rest < chunks.size(); ++rest)
          assembler.feed(chunks[rest]);
      }
      EXPECT_FALSE(assembler.finish().ok())
          << "chunk " << c << " truncated to " << bytes << " accepted";
    }
  }
}

TEST(ReplicationCodec, CorruptedBytesNeverAssemble) {
  RouteService svc = make_service({"er", 16, 45, 8}, 4);
  const auto cut = svc.store().export_cut();
  const auto sent = all_shards(svc.store().shard_count());
  const auto chunks = full_stream(cut, sent);

  // Flip one byte at a stride through every chunk: whatever field it
  // lands in (geometry, a cost, a digest-relevant row), the stream must
  // fail structurally or die on the final checksum cross-check.
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    for (std::size_t at = 0; at < chunks[c].size(); at += 7) {
      std::string mutated = chunks[c];
      mutated[at] = static_cast<char>(mutated[at] ^ 0x2d);
      ReplicationCodec::Assembler assembler(nullptr);
      bool fed_ok = true;
      for (std::size_t i = 0; i < chunks.size() && fed_ok; ++i)
        fed_ok = assembler.feed(i == c ? std::string_view(mutated)
                                       : std::string_view(chunks[i]));
      EXPECT_FALSE(assembler.finish().ok())
          << "chunk " << c << " byte " << at << " flip accepted";
    }
  }
}

TEST(ReplicationCodec, StreamAnomaliesAreRejected) {
  RouteService svc = make_service({"er", 16, 46, 8}, 4);
  const auto cut = svc.store().export_cut();
  const auto sent = all_shards(svc.store().shard_count());
  const auto chunks = full_stream(cut, sent);

  {  // stream with no final chunk
    ReplicationCodec::Assembler assembler(nullptr);
    for (std::size_t c = 0; c + 1 < chunks.size(); ++c)
      ASSERT_TRUE(assembler.feed(chunks[c]));
    EXPECT_FALSE(assembler.finish().ok());
  }
  {  // announced shard never arrives
    ReplicationCodec::Assembler assembler(nullptr);
    for (std::size_t c = 1; c < chunks.size(); ++c)
      assembler.feed(chunks[c]);
    EXPECT_FALSE(assembler.finish().ok());
  }
  {  // duplicate data chunk
    ReplicationCodec::Assembler assembler(nullptr);
    ASSERT_TRUE(assembler.feed(chunks[0]));
    EXPECT_FALSE(assembler.feed(chunks[0]));
    EXPECT_FALSE(assembler.finish().ok());
  }
  {  // data chunk after the final chunk
    ReplicationCodec::Assembler assembler(nullptr);
    for (const std::string& chunk : chunks) ASSERT_TRUE(assembler.feed(chunk));
    EXPECT_FALSE(assembler.feed(chunks[0]));
    EXPECT_FALSE(assembler.finish().ok());
  }
  {  // cold bootstrap whose response does not cover every shard
    ReplicationCodec::Assembler assembler(nullptr);
    std::vector<std::uint32_t> partial = {0, 1};
    for (const std::string& chunk : full_stream(cut, partial))
      ASSERT_TRUE(assembler.feed(chunk)) << assembler.error();
    EXPECT_FALSE(assembler.finish().ok());
  }
  {  // a sent list that disagrees with the data chunks actually streamed
    ReplicationCodec::Assembler assembler(nullptr);
    for (std::size_t c = 0; c + 1 < chunks.size(); ++c)
      ASSERT_TRUE(assembler.feed(chunks[c]));
    std::vector<std::uint32_t> partial = {0};
    ASSERT_TRUE(assembler.feed(full_stream(cut, partial).back()));
    EXPECT_FALSE(assembler.finish().ok());
  }
}

// --- the O(dirty) transfer property -----------------------------------------

// Pinned deterministically through a raw client fetch (no subscription
// timing in the loop): a fetch that presents up-to-date versions for all
// but the moved shards receives exactly the moved shards back.
TEST(ReplicaTransfer, CatchUpFetchesOnlyMovedShards) {
  RouteService svc = make_service({"er", 48, 47, 10}, 8);
  net::RouteServer server(svc);
  ASSERT_TRUE(server.ok()) << server.error();
  net::ClientConfig config;
  config.port = server.port();
  net::RouteClient client(config);
  ASSERT_TRUE(client.connect().ok());

  // Bootstrap: empty negotiation state elicits every shard.
  ReplicationCodec::Assembler boot_assembler(nullptr);
  const auto bootstrap = client.fetch_snapshot({}, into(boot_assembler));
  ASSERT_TRUE(bootstrap.ok())
      << bootstrap.error.message << " " << boot_assembler.error();
  const auto booted = boot_assembler.finish();
  ASSERT_TRUE(booted.ok()) << booted.error;
  EXPECT_EQ(booted.shards_sent.size(), svc.store().shard_count());

  // A change guaranteed to be effectual: bump node 5's declared cost off
  // whatever it currently is.
  const auto before = svc.store().export_cut();
  svc.submit({RouteService::Delta::cost_change(
      5, Cost{before.newest->node_cost(5).value() + 1})});
  svc.drain();
  const auto after = svc.store().export_cut();
  std::size_t moved = 0;
  for (std::size_t s = 0; s < after.shard_versions.size(); ++s)
    if (after.shard_versions[s] != before.shard_versions[s]) ++moved;
  ASSERT_GT(moved, 0u);

  // Catch-up with the bootstrap's negotiation state: exactly the moved
  // shards come back, and the transfer is strictly smaller than the
  // bootstrap whenever any shard stayed clean.
  ReplicationCodec::Assembler delta_assembler(booted.snapshot);
  const auto catch_up =
      client.fetch_snapshot(booted.shard_versions, into(delta_assembler));
  ASSERT_TRUE(catch_up.ok())
      << catch_up.error.message << " " << delta_assembler.error();
  const auto caught = delta_assembler.finish();
  ASSERT_TRUE(caught.ok()) << caught.error;
  EXPECT_EQ(caught.shards_sent.size(), moved);
  EXPECT_EQ(caught.snapshot->checksum(), after.newest->checksum());
  if (moved < svc.store().shard_count()) {
    EXPECT_LT(catch_up.bytes, bootstrap.bytes);
  }

  // Already caught up: zero data chunks, just the final chunk.
  ReplicationCodec::Assembler idle_assembler(caught.snapshot);
  const auto idle =
      client.fetch_snapshot(caught.shard_versions, into(idle_assembler));
  ASSERT_TRUE(idle.ok()) << idle.error.message;
  EXPECT_EQ(idle.chunks, 1u);
  EXPECT_TRUE(idle_assembler.finish().ok());
}

// A broken or hostile upstream answering a fetch with one valid data chunk
// over and over: the replica's assembler rejects the second copy (a
// destination arrives twice), and the fetch stops right there and closes
// the connection instead of buffering the rest of the stream.
TEST(ReplicaTransfer, RepeatedChunkStopsTheFetchAtTheSecondCopy) {
  RouteService svc = make_service({"er", 12, 49, 6}, 2);
  const auto cut = svc.store().export_cut();
  const std::string chunk = full_stream(cut, {0}).front();

  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  constexpr int kCopies = 1000;
  std::thread upstream([listener, &chunk] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    const auto read_frame = [fd] {
      std::string head(net::kFrameHeaderBytes, '\0');
      if (::recv(fd, head.data(), head.size(), MSG_WAITALL) !=
          static_cast<ssize_t>(head.size()))
        return false;
      const auto header = net::decode_frame_header(head, {});
      if (!header.ok()) return false;
      std::string payload(header.header.payload_bytes, '\0');
      return payload.empty() ||
             ::recv(fd, payload.data(), payload.size(), MSG_WAITALL) ==
                 static_cast<ssize_t>(payload.size());
    };
    const auto write_frame = [fd](net::FrameType type,
                                  const std::string& payload) {
      const std::string frame = net::encode_frame(type, payload);
      return ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) ==
             static_cast<ssize_t>(frame.size());
    };
    net::HelloAck ack;
    ack.node_count = 12;
    ack.snapshot_version = 1;
    ack.max_batch = 64;
    if (read_frame() &&  // kHello
        write_frame(net::FrameType::kHelloAck, net::encode_hello_ack(ack)) &&
        read_frame()) {  // kSnapshotFetch
      for (int copy = 0; copy < kCopies; ++copy)
        if (!write_frame(net::FrameType::kSnapshotChunk, chunk)) break;
    }
    ::close(fd);
  });

  net::ClientConfig config;
  config.port = ntohs(addr.sin_port);
  net::RouteClient client(config);
  ASSERT_TRUE(client.connect().ok());
  ReplicationCodec::Assembler assembler(nullptr);
  const auto fetched = client.fetch_snapshot({}, into(assembler));
  EXPECT_EQ(fetched.error.status, net::ClientStatus::kProtocolError);
  EXPECT_EQ(fetched.chunks, 2u);
  EXPECT_EQ(fetched.bytes, 2 * chunk.size());
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(assembler.error(), "duplicate destination block");
  EXPECT_FALSE(assembler.finish().ok());

  upstream.join();
  ::close(listener);
}

// --- subscription semantics --------------------------------------------------

TEST(ReplicaSubscribe, LateSubscriberAckCoalescesMissedPublishes) {
  RouteService svc = make_service({"er", 24, 48, 9}, 4);
  for (int burst = 0; burst < 3; ++burst) {
    svc.submit({RouteService::Delta::cost_change(
        static_cast<NodeId>(1 + burst), Cost{2 + burst})});
    svc.drain();
  }
  const std::uint64_t publishes = svc.store().publish_count();
  ASSERT_GE(publishes, 4u);

  net::RouteServer server(svc);
  ASSERT_TRUE(server.ok()) << server.error();
  net::ClientConfig config;
  config.port = server.port();
  net::RouteClient client(config);
  ASSERT_TRUE(client.connect().ok());

  // A subscriber that last saw publish 0 gets one ack carrying the
  // current state and the whole gap as `coalesced` — never a backlog.
  const auto ack = client.subscribe(0);
  ASSERT_TRUE(ack.ok()) << ack.error.message;
  EXPECT_EQ(ack.notify.publish_count, publishes);
  EXPECT_EQ(ack.notify.coalesced, publishes - 1);
  EXPECT_EQ(ack.notify.snapshot_version, svc.version());
  EXPECT_TRUE(client.subscribed());

  // Quiet period: timeout with the connection intact.
  const auto quiet = client.await_notify(50);
  EXPECT_EQ(quiet.error.status, net::ClientStatus::kTimeout);
  EXPECT_TRUE(client.connected());

  // A publish wakes the subscription.
  svc.submit({RouteService::Delta::cost_change(2, Cost{5})});
  svc.drain();
  const auto pushed = client.await_notify(5000);
  ASSERT_TRUE(pushed.ok()) << pushed.error.message;
  EXPECT_GT(pushed.notify.publish_count, publishes);
}

TEST(ReplicaSubscribe, SubscribedConnectionRejectsRequestReply) {
  RouteService svc = make_service({"er", 16, 49, 6}, 2);
  net::RouteServer server(svc);
  ASSERT_TRUE(server.ok()) << server.error();
  net::ClientConfig config;
  config.port = server.port();
  net::RouteClient client(config);
  ASSERT_TRUE(client.connect().ok());
  ASSERT_TRUE(client.subscribe(0).ok());

  // The conversation got out of step by construction: a subscribed
  // connection only speaks kPublishNotify. The guard fires client-side,
  // before any bytes hit the socket.
  const auto result = client.query(random_batch(16, 3, 2));
  EXPECT_EQ(result.error.status, net::ClientStatus::kUnexpectedFrame);
}

// --- replica end to end ------------------------------------------------------

TEST(ReplicaE2E, BitIdenticalAcrossRandomizedDeltaBurstsOnTwoFamilies) {
  const test::InstanceSpec specs[] = {{"er", 32, 50, 10}, {"ba", 40, 51, 12}};
  for (const auto& spec : specs) {
    RouteService primary = make_service(spec, 4);
    const NodeId n = static_cast<NodeId>(primary.node_count());
    net::RouteServer server(primary);
    ASSERT_TRUE(server.ok()) << server.error();

    ReplicaConfig config;
    config.upstream.port = server.port();
    ReplicaService replica(config);
    ASSERT_TRUE(replica.wait_until_ready(10000));
    replica.wait_for_version_beyond(primary.version() - 1, 10000);

    util::Rng rng(spec.seed);
    for (int burst = 0; burst < 5; ++burst) {
      std::vector<RouteService::Delta> deltas;
      const std::size_t size = 1 + rng.below(3);
      for (std::size_t d = 0; d < size; ++d)
        deltas.push_back(RouteService::Delta::cost_change(
            static_cast<NodeId>(rng.below(n)),
            Cost{static_cast<Cost::rep>(1 + rng.below(9))}));
      primary.submit(deltas);
      const std::uint64_t version = primary.drain();
      ASSERT_GE(replica.wait_for_version_beyond(version - 1, 10000), version)
          << spec.family << " burst " << burst;

      // Bit-identical content and bit-identical answers.
      const auto primary_snap = primary.snapshot();
      const auto replica_store = replica.store();
      ASSERT_NE(replica_store, nullptr);
      const auto replica_snap = replica_store->newest();
      ASSERT_NE(replica_snap, nullptr);
      EXPECT_EQ(replica_snap->checksum(), primary_snap->checksum());
      EXPECT_EQ(replica_snap->content_checksum(),
                primary_snap->content_checksum());

      const auto batch =
          random_batch(n, 60 + static_cast<std::uint64_t>(burst));
      const auto from_primary = primary.query(batch);
      const auto from_replica = replica.query(batch);
      ASSERT_EQ(from_primary.size(), from_replica.size());
      for (std::size_t q = 0; q < batch.size(); ++q)
        EXPECT_TRUE(service::same_answer(from_primary[q], from_replica[q]))
            << spec.family << " burst " << burst << " query " << q;
    }

    const auto counters = replica.replication_counters();
    EXPECT_GE(counters.full_syncs, 1u);
    EXPECT_GE(counters.delta_syncs, 1u);
    EXPECT_GE(counters.notifies_received, 5u);
    EXPECT_EQ(counters.resyncs, 0u);
  }
}

TEST(ReplicaE2E, RepublishSyncsGlobalsWithoutFetchingAnyShard) {
  RouteService primary = make_service({"tiered", 36, 52, 8}, 4);
  const NodeId n = static_cast<NodeId>(primary.node_count());
  net::RouteServer server(primary);
  ASSERT_TRUE(server.ok()) << server.error();

  ReplicaConfig config;
  config.upstream.port = server.port();
  ReplicaService replica(config);
  ASSERT_TRUE(replica.wait_until_ready(10000));
  replica.wait_for_version_beyond(primary.version() - 1, 10000);
  const auto before = replica.replication_counters();

  // Payment-only churn: totals move, no sink tree does. The replica must
  // pick up the new globals notify-driven while fetching zero shards.
  // A republish may keep the served version, so the catch-up is awaited
  // on the publish clock (the upstream's count at the last completed
  // sync), not the version.
  const std::uint64_t installs = replica.publish_count();
  primary.charge(0, static_cast<NodeId>(n - 1), 500);
  primary.settle();
  primary.submit({RouteService::Delta::republish()});
  primary.drain();
  ASSERT_GT(replica.wait_for_publish_beyond(installs, 10000), installs);

  const auto after = replica.replication_counters();
  EXPECT_EQ(after.shards_fetched, before.shards_fetched);
  EXPECT_GT(after.delta_syncs, before.delta_syncs);

  std::vector<Request> payments;
  for (NodeId k = 0; k < n; ++k)
    payments.push_back({RequestKind::kPayment, k, kInvalidNode, kInvalidNode});
  const auto from_primary = primary.query(payments);
  const auto from_replica = replica.query(payments);
  for (NodeId k = 0; k < n; ++k)
    EXPECT_TRUE(service::same_answer(from_primary[k], from_replica[k])) << k;
}

TEST(ReplicaE2E, WarmStartServesCheckpointBeforeUpstreamIsReachable) {
  const std::string dir = "replica_warm_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  std::uint64_t want_checksum = 0;
  {
    service::ServiceConfig config;
    config.shards = 2;
    config.checkpoint.directory = dir;
    RouteService primary(test::make_instance({"er", 24, 53, 7}), config);
    want_checksum = primary.snapshot()->checksum();
  }

  // Upstream down (nobody listens on the dialed port): the checkpoint is
  // served immediately anyway.
  ReplicaConfig config;
  config.upstream.port = 1;
  config.upstream.connect_attempts = 1;
  config.upstream.backoff_ms = 1;
  config.checkpoint_directory = dir;
  config.resync_backoff_ms = 20;
  ReplicaService replica(config);
  ASSERT_TRUE(replica.wait_until_ready(1000));
  ASSERT_NE(replica.store(), nullptr);
  EXPECT_EQ(replica.store()->newest()->checksum(), want_checksum);

  const auto batch = random_batch(24, 8, 8);
  const auto replies = replica.query(batch);
  ASSERT_EQ(replies.size(), batch.size());
  EXPECT_EQ(replies.back().status, service::Status::kBadNode);
  replica.stop();
  std::filesystem::remove_all(dir);
}

TEST(ReplicaE2E, WarmStartAdoptsMatchingBlocksFromCheckpoint) {
  const std::string dir = "replica_adopt_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  const test::InstanceSpec spec{"er", 24, 54, 7};
  {
    service::ServiceConfig config;
    config.checkpoint.directory = dir;
    RouteService writer(test::make_instance(spec), config);
  }

  // Same deterministic topology, fresh primary: the converged blocks are
  // content-identical to the checkpointed image, so the warm replica's
  // first full sync adopts instead of materializing wire copies.
  RouteService primary = make_service(spec, 4);
  net::RouteServer server(primary);
  ASSERT_TRUE(server.ok()) << server.error();

  ReplicaConfig config;
  config.upstream.port = server.port();
  config.checkpoint_directory = dir;
  ReplicaService replica(config);
  ASSERT_TRUE(replica.wait_until_ready(10000));
  // The publish clock is chain-wide (the upstream's count as of the last
  // completed sync), so it stays 0 while only the checkpoint is served
  // and crosses 0 exactly when the wire sync lands — version alone can't
  // distinguish the two (the fresh primary converges to the same epoch).
  ASSERT_GT(replica.wait_for_publish_beyond(0, 10000), 0u);

  const auto counters = replica.replication_counters();
  EXPECT_GE(counters.full_syncs, 1u);
  EXPECT_GT(counters.blocks_adopted, 0u);
  EXPECT_EQ(replica.store()->newest()->content_checksum(),
            primary.snapshot()->content_checksum());
  std::filesystem::remove_all(dir);
}

TEST(ReplicaE2E, WarmImageIsReleasedOnceSyncedPastIt) {
  const std::string dir = "replica_release_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  service::ServiceConfig primary_config;
  primary_config.shards = 4;
  primary_config.checkpoint.directory = dir;
  RouteService primary(test::make_instance({"er", 24, 56, 7}),
                       primary_config);
  const NodeId n = static_cast<NodeId>(primary.node_count());

  // Reserve a port nobody listens on yet: bind an ephemeral one, release it.
  std::uint16_t port = 0;
  {
    net::RouteServer probe(primary);
    ASSERT_TRUE(probe.ok()) << probe.error();
    port = probe.port();
  }

  ReplicaConfig config;
  config.upstream.port = port;
  config.upstream.connect_attempts = 1;
  config.upstream.backoff_ms = 1;
  config.checkpoint_directory = dir;
  config.resync_backoff_ms = 20;
  ReplicaService replica(config);
  ASSERT_TRUE(replica.wait_until_ready(1000));
  const std::weak_ptr<const RouteSnapshot> image = replica.snapshot();
  ASSERT_FALSE(image.expired());

  // Move every row past the image, then bring the upstream up.
  std::vector<RouteService::Delta> deltas;
  const auto before = primary.snapshot();
  for (NodeId v = 0; v < n; ++v)
    deltas.push_back(RouteService::Delta::cost_change(
        v, Cost{before->node_cost(v).value() + 1}));
  primary.submit(deltas);
  primary.drain();
  net::ServerConfig server_config;
  server_config.port = port;
  net::RouteServer server(primary, server_config);
  ASSERT_TRUE(server.ok()) << server.error();
  ASSERT_GT(replica.wait_for_publish_beyond(0, 10000), 0u);

  // The sync thread drops its own reference to the image (the fetch's
  // base) as the sync that replaced it returns.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!image.expired() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(image.expired()) << "the replica still pins its disk image";
  EXPECT_EQ(replica.snapshot()->content_checksum(),
            primary.snapshot()->content_checksum());
  replica.stop();
  std::filesystem::remove_all(dir);
}

TEST(ReplicaE2E, ReplicaCountersTravelTheWire) {
  RouteService primary = make_service({"er", 20, 55, 6}, 2);
  net::RouteServer primary_server(primary);
  ASSERT_TRUE(primary_server.ok());

  ReplicaConfig config;
  config.upstream.port = primary_server.port();
  ReplicaService replica(config);
  ASSERT_TRUE(replica.wait_until_ready(10000));
  replica.wait_for_version_beyond(0, 10000);

  net::ServerConfig front_config;
  front_config.allow_deltas = false;
  net::RouteServer front(replica, front_config);
  ASSERT_TRUE(front.ok()) << front.error();
  net::ClientConfig client_config;
  client_config.port = front.port();
  net::RouteClient client(client_config);
  ASSERT_TRUE(client.connect().ok());

  const auto result = client.counters();
  ASSERT_TRUE(result.ok()) << result.error.message;
  ASSERT_TRUE(result.frame.has_replica);
  EXPECT_GE(result.frame.replica.full_syncs, 1u);
  EXPECT_GE(result.frame.replica.shards_fetched, 2u);
  EXPECT_GT(result.frame.replica.bytes_fetched, 0u);

  // The primary's own counters frame carries no replica section.
  net::ClientConfig to_primary;
  to_primary.port = primary_server.port();
  net::RouteClient primary_client(to_primary);
  ASSERT_TRUE(primary_client.connect().ok());
  const auto primary_counters = primary_client.counters();
  ASSERT_TRUE(primary_counters.ok());
  EXPECT_FALSE(primary_counters.frame.has_replica);

  // A read-only front refuses deltas with a typed rejection.
  const auto submit = client.submit_deltas(
      std::vector<RouteService::Delta>{RouteService::Delta::republish()});
  EXPECT_FALSE(submit.ok());
}

// --- torn-view hunt (the TSan job runs this suite) ---------------------------

TEST(ReplicaTsan, ReadersNeverObserveATornViewDuringSyncChurn) {
  RouteService primary = make_service({"er", 32, 56, 10}, 4);
  const NodeId n = static_cast<NodeId>(primary.node_count());
  net::RouteServer server(primary);
  ASSERT_TRUE(server.ok()) << server.error();

  ReplicaConfig config;
  config.upstream.port = server.port();
  ReplicaService replica(config);
  ASSERT_TRUE(replica.wait_until_ready(10000));
  replica.wait_for_version_beyond(0, 10000);

  // Readers hammer the replica's store mid-sync, checking the invariant
  // that only holds inside one consistent snapshot: a stored route's cost
  // is the sum of its transit nodes' stored costs.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (unsigned r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng(700 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto store = replica.store();
        if (store == nullptr) continue;
        const auto view = store->acquire();
        if (view.empty()) continue;
        const NodeId i = static_cast<NodeId>(rng.below(n));
        const NodeId j = static_cast<NodeId>(rng.below(n));
        const RouteSnapshot& snap = *view.newest;
        const Cost c = snap.cost(i, j);
        if (c.is_infinite()) continue;
        Cost::rep along = 0;
        for (const NodeId k : snap.path(i, j))
          if (k != i && k != j) along += snap.node_cost(k).value();
        if (Cost{along} != c) torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  util::Rng rng(57);
  for (int burst = 0; burst < 6; ++burst) {
    primary.submit({RouteService::Delta::cost_change(
        static_cast<NodeId>(rng.below(n)),
        Cost{static_cast<Cost::rep>(1 + rng.below(9))})});
    const std::uint64_t version = primary.drain();
    ASSERT_GE(replica.wait_for_version_beyond(version - 1, 10000), version);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(replica.store()->newest()->checksum(),
            primary.snapshot()->checksum());
}

// --- fuzz-derived regressions ----------------------------------------------

// Hand-minimized malformed chunk streams, pinned as regressions so the
// Assembler rejections the fuzz harness (fuzz/fuzz_replication.cpp) relies
// on cannot silently regress. Each input is the smallest byte string that
// reaches its rejection branch; all three must poison the assembly.
TEST(ReplicationCodec, HandMinimizedMalformedChunksAreRejected) {
  const auto append = [](std::string& out, std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i)
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  };

  // 1. Empty payload: the 21-byte chunk header cannot even be read.
  {
    ReplicationCodec::Assembler assembler;
    EXPECT_FALSE(assembler.feed(""));
    EXPECT_NE(assembler.error().find("truncated"), std::string::npos);
    EXPECT_FALSE(assembler.finish().ok());
  }

  // 2. Complete header declaring zero destinations: bad geometry, caught
  //    before the stream header binds.
  {
    std::string chunk;
    append(chunk, ReplicationCodec::kDataChunk, 1);
    append(chunk, 1, 8);  // version
    append(chunk, 0, 8);  // n = 0
    append(chunk, 1, 4);  // shard_count
    ReplicationCodec::Assembler assembler;
    EXPECT_FALSE(assembler.feed(chunk));
    EXPECT_NE(assembler.error().find("geometry"), std::string::npos);
  }

  // 3. Header-only chunk whose node count implies megabytes of blocks:
  //    the pre-allocation bound must reject it from 21 bytes of input.
  {
    std::string chunk;
    append(chunk, ReplicationCodec::kDataChunk, 1);
    append(chunk, 1, 8);        // version
    append(chunk, 1 << 20, 8);  // n: lies about a million destinations
    append(chunk, 1, 4);        // shard_count
    ReplicationCodec::Assembler assembler;
    EXPECT_FALSE(assembler.feed(chunk));
    EXPECT_NE(assembler.error().find("node count"), std::string::npos);
    // Poisoned: even a later well-formed-looking feed stays rejected.
    EXPECT_FALSE(assembler.feed(chunk));
  }
}

}  // namespace
}  // namespace fpss
