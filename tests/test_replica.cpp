// The read-replica subsystem: ReplicationCodec stream fidelity (round
// trips, every-prefix truncation fuzz, stream anomalies), the O(dirty)
// per-shard transfer property pinned deterministically through a raw
// client fetch, parked-request semantics (a fetch streams only once the
// clock passes, an await answers at once, on a publish or when its wait
// runs out), the upstream connection budget, warm starts from a local
// checkpoint with digest adoption, and primary/replica end-to-end
// equality across randomized delta bursts — including the torn-view
// reader hunt the CI TSan job leans on.
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
#include "net/remote_backend.h"
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
  ReplicationCodec::encode_stream(
      *cut.newest, static_cast<std::uint32_t>(cut.shard_versions.size()),
      sent, [&chunks](std::string_view chunk) {
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

/// A listening socket on an ephemeral loopback port (written to `port`),
/// for the raw-socket fake upstreams below; -1 on failure.
int listen_loopback(std::uint16_t& port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t len = sizeof(addr);
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 4) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(listener);
    return -1;
  }
  port = ntohs(addr.sin_port);
  return listener;
}

/// A fake upstream's side of the wire: reads one whole frame, its payload
/// into `payload` when given; false on EOF or a bad header.
bool read_raw_frame(int fd, std::string* payload = nullptr) {
  std::string head(net::kFrameHeaderBytes, '\0');
  if (::recv(fd, head.data(), head.size(), MSG_WAITALL) !=
      static_cast<ssize_t>(head.size()))
    return false;
  const auto header = net::decode_frame_header(head, {});
  if (!header.ok()) return false;
  std::string body(header.header.payload_bytes, '\0');
  if (!body.empty() && ::recv(fd, body.data(), body.size(), MSG_WAITALL) !=
                           static_cast<ssize_t>(body.size()))
    return false;
  if (payload != nullptr) *payload = std::move(body);
  return true;
}

bool write_raw_frame(int fd, net::FrameType type, const std::string& payload) {
  const std::string frame = net::encode_frame(type, payload);
  return ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(frame.size());
}

/// The hello ack of a fake upstream serving `node_count` nodes.
net::HelloAck fake_hello_ack(std::uint64_t node_count) {
  net::HelloAck ack;
  ack.node_count = node_count;
  ack.snapshot_version = 1;
  ack.max_batch = 64;
  return ack;
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
  EXPECT_EQ(result.shard_count, cut.shard_versions.size());
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

  // What a server sends a replica serving `before`: the shards a later
  // publish moved.
  std::vector<std::uint32_t> dirty;
  for (std::size_t s = 0; s < after.shard_versions.size(); ++s)
    if (after.shard_versions[s] > before.newest->version())
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
  {  // a stream stitched from two snapshots: every chunk names its version
    svc.submit({RouteService::Delta::cost_change(
        2, Cost{cut.newest->node_cost(2).value() + 1})});
    svc.drain();
    const auto later = full_stream(svc.store().export_cut(), sent);
    ReplicationCodec::Assembler assembler(nullptr);
    ASSERT_TRUE(assembler.feed(chunks[0]));
    EXPECT_FALSE(assembler.feed(later[1]));
    EXPECT_EQ(assembler.error(), "chunk disagrees with stream header");
    EXPECT_FALSE(assembler.finish().ok());
  }
}

// --- the O(dirty) transfer property -----------------------------------------

// Pinned deterministically through a raw client fetch (no parking in the
// loop): a fetch whose `since` is the bootstrap's version receives exactly
// the shards a later publish moved.
TEST(ReplicaTransfer, CatchUpFetchesOnlyMovedShards) {
  RouteService svc = make_service({"er", 48, 47, 10}, 8);
  net::RouteServer server(svc);
  ASSERT_TRUE(server.ok()) << server.error();
  net::ClientConfig config;
  config.port = server.port();
  net::RouteClient client(config);
  ASSERT_TRUE(client.connect().ok());

  // Bootstrap: `since` = 0 elicits every shard.
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

  // Catch-up from the bootstrap's version: exactly the moved shards come
  // back, and the transfer is strictly smaller than the bootstrap whenever
  // any shard stayed clean.
  ReplicationCodec::Assembler delta_assembler(booted.snapshot);
  const auto catch_up = client.fetch_snapshot(
      {booted.snapshot->version(), 0}, into(delta_assembler));
  ASSERT_TRUE(catch_up.ok())
      << catch_up.error.message << " " << delta_assembler.error();
  const auto caught = delta_assembler.finish();
  ASSERT_TRUE(caught.ok()) << caught.error;
  EXPECT_EQ(caught.shards_sent.size(), moved);
  EXPECT_EQ(caught.snapshot->checksum(), after.newest->checksum());
  if (moved < svc.store().shard_count()) {
    EXPECT_LT(catch_up.bytes, bootstrap.bytes);
  }

  // Already caught up: an unparked fetch still streams, but zero data
  // chunks, just the final chunk.
  ReplicationCodec::Assembler idle_assembler(caught.snapshot);
  const auto idle = client.fetch_snapshot({caught.snapshot->version(), 0},
                                          into(idle_assembler));
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

  std::uint16_t port = 0;
  const int listener = listen_loopback(port);
  ASSERT_GE(listener, 0);

  constexpr int kCopies = 1000;
  std::thread upstream([listener, &chunk] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    if (read_raw_frame(fd) &&  // kHello
        write_raw_frame(fd, net::FrameType::kHelloAck,
                        net::encode_hello_ack(fake_hello_ack(12))) &&
        read_raw_frame(fd) &&  // kSnapshotFetch
        write_raw_frame(fd, net::FrameType::kPublishNotify,
                        net::encode_publish_notify({1, 0}))) {
      for (int copy = 0; copy < kCopies; ++copy)
        if (!write_raw_frame(fd, net::FrameType::kSnapshotChunk, chunk)) break;
    }
    ::close(fd);
  });

  net::ClientConfig config;
  config.port = port;
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

// A stream the assembler rejects came from a live upstream, so the replica
// re-dials that upstream for a bootstrap: the shared cursor stays, the
// next fallback entry is never dialed, and no disconnect is counted.
TEST(ReplicaTransfer, RejectedStreamRedialsTheSameUpstream) {
  RouteService svc = make_service({"er", 12, 49, 6}, 2);
  const auto cut = svc.store().export_cut();
  const std::vector<std::string> valid = full_stream(cut, all_shards(2));
  const net::PublishNotify notify{cut.newest->version(),
                                  cut.newest->published_at_ns()};

  std::uint16_t fake_port = 0;
  std::uint16_t spare_port = 0;
  const int fake = listen_loopback(fake_port);
  const int spare = listen_loopback(spare_port);
  ASSERT_GE(fake, 0);
  ASSERT_GE(spare, 0);

  // The fake's first connection repeats a chunk, which the assembler
  // rejects; its second sends the valid stream and then answers each
  // parked fetch, unchanged, until the replica hangs up.
  std::vector<std::uint64_t> first_since;  // per connection
  std::thread upstream([&] {
    for (int connection = 0; connection < 2; ++connection) {
      const int fd = ::accept(fake, nullptr, nullptr);
      if (fd < 0) return;
      std::string payload;
      net::Await await;
      if (read_raw_frame(fd) &&  // kHello
          write_raw_frame(fd, net::FrameType::kHelloAck,
                          net::encode_hello_ack(fake_hello_ack(12))) &&
          read_raw_frame(fd, &payload) && net::decode_await(payload, await) &&
          write_raw_frame(fd, net::FrameType::kPublishNotify,
                          net::encode_publish_notify(notify))) {
        first_since.push_back(await.since);
        if (connection == 0) {
          for (int copy = 0; copy < 2; ++copy)
            write_raw_frame(fd, net::FrameType::kSnapshotChunk, valid.front());
        } else {
          for (const std::string& chunk : valid)
            write_raw_frame(fd, net::FrameType::kSnapshotChunk, chunk);
          while (read_raw_frame(fd)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            write_raw_frame(fd, net::FrameType::kPublishNotify,
                            net::encode_publish_notify(notify));
          }
        }
      }
      ::close(fd);
    }
  });
  // The next fallback entry only counts the connections it is offered.
  std::atomic<int> spare_accepts{0};
  std::thread spare_listener([&] {
    for (int fd; (fd = ::accept(spare, nullptr, nullptr)) >= 0;) {
      ++spare_accepts;
      ::close(fd);
    }
  });

  ReplicaConfig config;
  config.upstreams.resize(2);
  config.upstreams[0].port = fake_port;
  config.upstreams[1].port = spare_port;
  config.resync_backoff_ms = 10;
  net::ReplicaCounters counters;
  {
    ReplicaService replica(config);
    EXPECT_TRUE(test::serves_within(replica, cut.newest->checksum(), 10000));
    replica.stop();
    counters = replica.replication_counters();
  }
  upstream.join();
  ::shutdown(spare, SHUT_RDWR);  // unblocks the spare listener's accept
  spare_listener.join();
  ::close(fake);
  ::close(spare);

  EXPECT_EQ(first_since, (std::vector<std::uint64_t>{0, 0}));
  EXPECT_EQ(counters.upstream_disconnects, 0u);
  EXPECT_EQ(counters.full_syncs, 1u);
  EXPECT_EQ(spare_accepts.load(), 0) << "the replica failed over";
}

// A parked fetch answers with a notify, and streams only once the version
// it reports passed the request's clock.
TEST(ReplicaTransfer, ParkedFetchStreamsOnlyOnceTheClockPasses) {
  RouteService svc = make_service({"er", 32, 52, 9}, 4);
  net::RouteServer server(svc);
  ASSERT_TRUE(server.ok()) << server.error();
  net::ClientConfig config;
  config.port = server.port();
  net::RouteClient client(config);
  ASSERT_TRUE(client.connect().ok());

  ReplicationCodec::Assembler boot_assembler(nullptr);
  const auto bootstrap = client.fetch_snapshot({}, into(boot_assembler));
  ASSERT_TRUE(bootstrap.ok()) << bootstrap.error.message;
  ASSERT_TRUE(bootstrap.streamed);
  const auto booted = boot_assembler.finish();
  ASSERT_TRUE(booted.ok()) << booted.error;
  const std::uint64_t count = bootstrap.notify.snapshot_version;
  EXPECT_EQ(count, svc.publish_count());

  // Quiet: a fetch at the current version answers after its wait with the
  // unchanged version and no stream, and the connection stays usable.
  ReplicationCodec::Assembler quiet_assembler(booted.snapshot);
  const auto quiet = client.fetch_snapshot({count, 50}, into(quiet_assembler));
  ASSERT_TRUE(quiet.ok()) << quiet.error.message;
  EXPECT_FALSE(quiet.streamed);
  EXPECT_EQ(quiet.chunks, 0u);
  EXPECT_EQ(quiet.notify.snapshot_version, count);
  EXPECT_TRUE(client.connected());

  // Parked: a delta submitted while the fetch waits answers it, and the
  // stream carries exactly the shards that delta moved.
  const auto before = svc.store().export_cut();
  std::thread writer([&svc, &before] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    svc.submit({RouteService::Delta::cost_change(
        5, Cost{before.newest->node_cost(5).value() + 1})});
    svc.drain();
  });
  ReplicationCodec::Assembler parked_assembler(booted.snapshot);
  const auto parked = client.fetch_snapshot({count, net::kMaxParkMs},
                                            into(parked_assembler));
  writer.join();
  ASSERT_TRUE(parked.ok()) << parked.error.message;
  ASSERT_TRUE(parked.streamed);
  EXPECT_GT(parked.notify.snapshot_version, count);
  const auto caught = parked_assembler.finish();
  ASSERT_TRUE(caught.ok()) << caught.error;
  const auto after = svc.store().export_cut();
  std::size_t moved = 0;
  for (std::size_t s = 0; s < after.shard_versions.size(); ++s)
    if (after.shard_versions[s] != before.shard_versions[s]) ++moved;
  ASSERT_GT(moved, 0u);
  EXPECT_EQ(caught.shards_sent.size(), moved);
  EXPECT_EQ(caught.snapshot->checksum(), after.newest->checksum());
}

// --- parked awaits ----------------------------------------------------------

TEST(ReplicaAwait, AnswersAtOnceParksWhileQuietAndWakesOnPublish) {
  RouteService svc = make_service({"er", 24, 48, 9}, 4);
  for (int burst = 0; burst < 3; ++burst) {
    svc.submit({RouteService::Delta::cost_change(
        static_cast<NodeId>(1 + burst), Cost{2 + burst})});
    svc.drain();
  }
  const std::uint64_t publishes = svc.publish_count();
  ASSERT_GE(publishes, 4u);

  net::RouteServer server(svc);
  ASSERT_TRUE(server.ok()) << server.error();
  net::ClientConfig config;
  config.port = server.port();
  net::RouteClient client(config);
  ASSERT_TRUE(client.connect().ok());

  // A waiter that last saw publish 0 gets one reply carrying the current
  // state at once — never a backlog.
  const auto now = client.await_publish({0, net::kMaxParkMs});
  ASSERT_TRUE(now.ok()) << now.error.message;
  EXPECT_EQ(now.notify.snapshot_version, publishes);
  EXPECT_EQ(now.notify.published_at_ns, svc.snapshot()->published_at_ns());

  // Quiet period: the park runs out with the version unchanged, and the
  // same connection then answers a query.
  const auto quiet = client.await_publish({publishes, 50});
  ASSERT_TRUE(quiet.ok()) << quiet.error.message;
  EXPECT_EQ(quiet.notify.snapshot_version, publishes);
  const auto answered = client.query(random_batch(24, 3, 2));
  ASSERT_TRUE(answered.ok()) << answered.error.message;

  // A publish answers a parked await.
  std::thread writer([&svc] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    svc.submit({RouteService::Delta::cost_change(2, Cost{5})});
    svc.drain();
  });
  const auto woken = client.await_publish({publishes, net::kMaxParkMs});
  writer.join();
  ASSERT_TRUE(woken.ok()) << woken.error.message;
  EXPECT_GT(woken.notify.snapshot_version, publishes);
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
    replica.wait_for_publish_beyond(primary.publish_count() - 1, 10000);

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
      ASSERT_GE(replica.wait_for_publish_beyond(version - 1, 10000), version)
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
  replica.wait_for_publish_beyond(primary.publish_count() - 1, 10000);
  const auto before = replica.replication_counters();

  // Payment-only churn: totals move, no sink tree does. The replica must
  // pick up the new globals notify-driven while fetching zero shards.
  // A republish takes the next version like any publish, so the catch-up
  // is awaited on the served version.
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

// --- one read path ----------------------------------------------------------

// A primary and a replica serving the same snapshot, both driven through
// service::Backend&: the one read path answers and counts alike on both.
TEST(BackendParity, PrimaryAndReplicaShareOneReadPath) {
  RouteService primary = make_service({"tiered", 24, 53, 8}, 4);
  const NodeId n = static_cast<NodeId>(primary.node_count());
  net::RouteServer server(primary);
  ASSERT_TRUE(server.ok()) << server.error();
  ReplicaConfig config;
  config.upstream.port = server.port();
  ReplicaService replica(config);
  ASSERT_TRUE(replica.wait_until_ready(10000));

  // Every request kind, then a node out of range.
  std::vector<Request> batch;
  for (const RequestKind kind :
       {RequestKind::kCost, RequestKind::kPrice, RequestKind::kPairPayment,
        RequestKind::kNextHop, RequestKind::kPath, RequestKind::kPayment})
    batch.push_back({kind, 2, 1, static_cast<NodeId>(n - 1)});
  batch.push_back({RequestKind::kCost, kInvalidNode, 0, n});

  std::vector<std::vector<service::Reply>> answers;
  for (service::Backend* backend :
       {static_cast<service::Backend*>(&primary),
        static_cast<service::Backend*>(&replica)}) {
    const service::Counters before = backend->counters();
    answers.push_back(backend->query(batch));
    const service::Counters after = backend->counters();
    EXPECT_EQ(after.queries - before.queries, batch.size());
    EXPECT_EQ(after.batches - before.batches, 1u);

    const auto snap = backend->snapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(backend->publish_count(), snap->version());
    EXPECT_EQ(backend->wait_for_publish_beyond(0, 0), snap->version());
    EXPECT_EQ(backend->export_cut().newest, snap);
    EXPECT_EQ(answers.back().front().snapshot_version, snap->version());
  }
  ASSERT_EQ(answers[0].size(), answers[1].size());
  for (std::size_t q = 0; q < batch.size(); ++q)
    EXPECT_TRUE(service::same_answer(answers[0][q], answers[1][q])) << q;
  EXPECT_EQ(answers[1].back().status, service::Status::kBadNode);

  // `publishes` counts what each backend served: the primary's one cold
  // publish, and the replica's installs, one per synced version.
  EXPECT_EQ(primary.counters().publishes, 1u);
  EXPECT_EQ(replica.counters().publishes, 1u);
  primary.submit(RouteService::Delta::cost_change(2, Cost{9}));
  const std::uint64_t version = primary.drain();
  ASSERT_GE(replica.wait_for_publish_beyond(version - 1, 10000), version);
  EXPECT_EQ(replica.counters().publishes, 2u);
  EXPECT_EQ(replica.snapshot()->checksum(), primary.snapshot()->checksum());
}

TEST(ReplicaE2E, WarmStartServesCheckpointBeforeUpstreamIsReachable) {
  const std::string dir = "replica_warm_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  std::uint64_t want_checksum = 0;
  {
    service::ServiceConfig config;
    config.shards = 2;
    config.checkpoint_directory = dir;
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

// A warm replica's clock is its image's version, so its first sync is a
// catch-up like any other. The fresh primary converges the same
// deterministic topology to the image's blocks and publishes them under
// the image's version, so only the final chunk travels: the replica then
// serves the primary's snapshot, publish stamp included, built from the
// image's own blocks.
TEST(ReplicaE2E, WarmStartAdoptsMatchingBlocksFromCheckpoint) {
  const std::string dir = "replica_adopt_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  const test::InstanceSpec spec{"er", 24, 54, 7};
  {
    service::ServiceConfig config;
    config.checkpoint_directory = dir;
    RouteService writer(test::make_instance(spec), config);
  }
  RouteService primary = make_service(spec, 4);

  // The replica starts before its upstream listens, so the image is read
  // back before any sync can replace it.
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
  const auto image = replica.snapshot();
  ASSERT_EQ(image->version(), primary.snapshot()->version());
  // Only the publish stamps differ, so the checksum shows the sync.
  ASSERT_NE(image->checksum(), primary.snapshot()->checksum());

  net::ServerConfig server_config;
  server_config.port = port;
  net::RouteServer server(primary, server_config);
  ASSERT_TRUE(server.ok()) << server.error();
  ASSERT_TRUE(
      test::serves_within(replica, primary.snapshot()->checksum(), 10000));

  const auto counters = replica.replication_counters();
  EXPECT_EQ(counters.full_syncs, 0u);
  EXPECT_EQ(counters.delta_syncs, 1u);
  EXPECT_EQ(counters.shards_fetched, 0u);
  const auto served = replica.snapshot();
  for (NodeId j = 0; j < served->node_count(); ++j)
    EXPECT_TRUE(served->shares_block_with(*image, j)) << "destination " << j;
  replica.stop();
  std::filesystem::remove_all(dir);
}

TEST(ReplicaE2E, WarmImageIsReleasedOnceSyncedPastIt) {
  const std::string dir = "replica_release_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  service::ServiceConfig primary_config;
  primary_config.shards = 4;
  primary_config.checkpoint_directory = dir;
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
  ASSERT_TRUE(
      test::serves_within(replica, primary.snapshot()->checksum(), 10000));

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
  config.forward_deltas = false;
  ReplicaService replica(config);
  ASSERT_TRUE(replica.wait_until_ready(10000));
  replica.wait_for_publish_beyond(0, 10000);

  net::RouteServer front(replica);
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

// Every exchange is one request and its reply, so a replica syncs over one
// upstream connection and forwards writes over one more, and a remote
// client needs one connection for queries and waits alike.
TEST(ReplicaE2E, UpstreamConnectionBudget) {
  RouteService primary = make_service({"er", 20, 57, 6}, 2);
  const std::vector<RouteService::Delta> write{
      RouteService::Delta::cost_change(0, Cost{4})};

  {  // A forwarding replica after one forwarded write.
    net::RouteServer front(primary);
    ASSERT_TRUE(front.ok()) << front.error();
    ReplicaConfig config;
    config.upstream.port = front.port();
    ReplicaService replica(config);
    ASSERT_TRUE(replica.wait_until_ready(10000));
    const auto ack = replica.submit_deltas(write);
    ASSERT_TRUE(ack.ok()) << ack.error;
    ASSERT_GE(replica.wait_for_publish_beyond(ack.publish_count - 1, 10000),
              ack.publish_count);
    EXPECT_EQ(front.stats().connections, 2u);
  }
  {  // A read-only replica.
    net::RouteServer front(primary);
    ASSERT_TRUE(front.ok()) << front.error();
    ReplicaConfig config;
    config.upstream.port = front.port();
    config.forward_deltas = false;
    ReplicaService replica(config);
    ASSERT_TRUE(replica.wait_until_ready(10000));
    EXPECT_EQ(replica.submit_deltas(write).status,
              service::SubmitAck::Status::kReadOnly);
    EXPECT_EQ(front.stats().connections, 1u);
  }
  {  // A remote client after one query and one wait.
    net::RouteServer front(primary);
    ASSERT_TRUE(front.ok()) << front.error();
    net::ClientConfig config;
    config.port = front.port();
    net::RemoteQueryBackend backend(config);
    const auto answered = backend.query_batch(random_batch(20, 58, 4));
    ASSERT_TRUE(answered.ok()) << answered.error;
    EXPECT_EQ(backend.wait_for_publish_beyond(0, 10000),
              primary.publish_count());
    EXPECT_EQ(front.stats().connections, 1u);
  }
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
  replica.wait_for_publish_beyond(0, 10000);

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
    ASSERT_GE(replica.wait_for_publish_beyond(version - 1, 10000), version);
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
