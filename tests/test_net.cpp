// The remote front end: fpss-wire codec fidelity (round-trips, truncation
// and corruption rejection, pre-allocation bounds), the socket I/O under
// both ends (every IoResult, the spin read policy, a write larger than the
// socket buffer), client/server loopback equivalence with the in-process
// query path, warm starts, and delta coalescing — the suite the CI ASan
// job leans on for the "malformed frames are rejected without allocation
// or crash" acceptance bar.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.h"
#include "graphgen/fixtures.h"
#include "mechanism/vcg.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket_io.h"
#include "net/wire.h"
#include "service/checkpoint.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/snapshot.h"
#include "util/binio.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace fpss {
namespace {

using service::Reply;
using service::Request;
using service::RequestKind;
using service::RouteService;
using service::Status;

// --- codec round-trips -----------------------------------------------------

TEST(Wire, FrameHeaderRoundTrip) {
  const std::string frame = net::encode_frame(net::FrameType::kQueryBatch,
                                              "payload-bytes");
  ASSERT_EQ(frame.size(), net::kFrameHeaderBytes + 13);
  const auto head = net::decode_frame_header(
      std::string_view(frame).substr(0, net::kFrameHeaderBytes), {});
  ASSERT_TRUE(head.ok()) << head.error;
  EXPECT_EQ(head.header.type, net::FrameType::kQueryBatch);
  EXPECT_EQ(head.header.payload_bytes, 13u);
  EXPECT_TRUE(net::payload_checksum_ok(head.header,
                                       std::string_view(frame).substr(
                                           net::kFrameHeaderBytes)));
}

TEST(Wire, RequestBatchRoundTrip) {
  std::vector<Request> batch;
  batch.push_back({RequestKind::kCost, kInvalidNode, 0, 5});
  batch.push_back({RequestKind::kPrice, 2, 0, 5});
  batch.push_back({RequestKind::kPayment, 7, kInvalidNode, kInvalidNode});
  // An unknown kind tag must survive the codec (the service turns it into
  // a kBadKind reply; the codec is not the place to reject it).
  Request unknown;
  unknown.kind = static_cast<RequestKind>(200);
  batch.push_back(unknown);

  const std::string payload = net::encode_requests(batch);
  const auto decoded = net::decode_requests(payload, 16);
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  ASSERT_EQ(decoded.requests.size(), batch.size());
  for (std::size_t q = 0; q < batch.size(); ++q)
    EXPECT_EQ(decoded.requests[q], batch[q]);
}

TEST(Wire, ReplyBatchRoundTripIncludingInfinitiesAndPaths) {
  std::vector<Reply> batch;
  Reply ok;
  ok.status = Status::kOk;
  ok.value = Cost{42};
  ok.amount = 1234567;
  ok.node = 3;
  ok.path = graph::Path{0, 3, 9, 5};
  ok.snapshot_version = 17;
  ok.published_at_ns = 1754300000000000000ull;
  ok.age_ns = 99999;
  batch.push_back(ok);

  Reply unreachable;
  unreachable.status = Status::kUnreachable;
  unreachable.value = Cost::infinity();
  unreachable.node = kInvalidNode;
  unreachable.snapshot_version = 17;
  batch.push_back(unreachable);

  Reply bad;
  bad.status = Status::kBadKind;
  batch.push_back(bad);

  const std::string payload = net::encode_replies(batch);
  const auto decoded = net::decode_replies(payload, {});
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  ASSERT_EQ(decoded.replies.size(), batch.size());
  for (std::size_t q = 0; q < batch.size(); ++q) {
    EXPECT_EQ(decoded.replies[q], batch[q]);  // every field, age included
    EXPECT_TRUE(service::same_answer(decoded.replies[q], batch[q]));
  }
  EXPECT_TRUE(decoded.replies[1].value.is_infinite());
}

TEST(Wire, DeltaBatchRoundTrip) {
  std::vector<RouteService::Delta> batch;
  batch.push_back(RouteService::Delta::cost_change(4, Cost{11}));
  batch.push_back(RouteService::Delta::add_link(1, 2));
  batch.push_back(RouteService::Delta::remove_link(2, 3));
  batch.push_back(RouteService::Delta::republish());

  const std::string payload = net::encode_deltas(batch);
  const auto decoded = net::decode_deltas(payload, 16);
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  ASSERT_EQ(decoded.deltas.size(), batch.size());
  for (std::size_t d = 0; d < batch.size(); ++d) {
    EXPECT_EQ(decoded.deltas[d].kind, batch[d].kind);
    EXPECT_EQ(decoded.deltas[d].u, batch[d].u);
    EXPECT_EQ(decoded.deltas[d].v, batch[d].v);
    EXPECT_EQ(decoded.deltas[d].cost, batch[d].cost);
  }
}

TEST(Wire, ControlPayloadRoundTrips) {
  net::Hello hello{net::kWireVersion, 512};
  net::Hello hello2;
  ASSERT_TRUE(net::decode_hello(net::encode_hello(hello), hello2));
  EXPECT_EQ(hello2.max_batch, 512u);

  net::HelloAck ack;
  ack.node_count = 60;
  ack.snapshot_version = 9;
  ack.max_batch = 4096;
  ack.hop_count = 3;
  net::HelloAck ack2;
  const std::string ack_payload = net::encode_hello_ack(ack);
  ASSERT_TRUE(net::decode_hello_ack(ack_payload, ack2));
  EXPECT_EQ(ack2.node_count, 60u);
  EXPECT_EQ(ack2.snapshot_version, 9u);
  EXPECT_EQ(ack2.max_batch, 4096u);
  EXPECT_EQ(ack2.hop_count, 3u);
  // Every truncation is rejected: each decoder accepts exactly what its
  // encoder writes.
  for (std::size_t cut = 0; cut < ack_payload.size(); ++cut)
    EXPECT_FALSE(net::decode_hello_ack(ack_payload.substr(0, cut), ack2))
        << "hello-ack prefix " << cut << " accepted";

  net::DeltaAck delta_ack{7, 42};
  net::DeltaAck delta_ack2;
  const std::string delta_ack_payload = net::encode_delta_ack(delta_ack);
  ASSERT_TRUE(net::decode_delta_ack(delta_ack_payload, delta_ack2));
  EXPECT_EQ(delta_ack2.accepted, 7u);
  EXPECT_EQ(delta_ack2.publish_count, 42u);
  EXPECT_FALSE(net::decode_delta_ack(net::encode_u64(7), delta_ack2));
  for (std::size_t cut = 0; cut < delta_ack_payload.size(); ++cut)
    EXPECT_FALSE(
        net::decode_delta_ack(delta_ack_payload.substr(0, cut), delta_ack2))
        << "delta-ack prefix " << cut << " accepted";

  net::ErrorFrame error{net::WireStatus::kOversized, "too big"};
  net::ErrorFrame error2;
  ASSERT_TRUE(net::decode_error(net::encode_error(error), error2));
  EXPECT_EQ(error2.code, net::WireStatus::kOversized);
  EXPECT_EQ(error2.message, "too big");

  std::uint64_t value = 0;
  ASSERT_TRUE(net::decode_u64(net::encode_u64(77), value));
  EXPECT_EQ(value, 77u);
}

namespace {

/// Applies `visit(value)` to every field of `frame`, in frame order,
/// through the fields() tables.
template <typename Visit>
void for_each_field(net::CountersFrame& frame, Visit visit) {
  const auto walk = [&visit]<typename T>(T& record) {
    for (const util::CounterField<T>& field : T::fields())
      visit(record.*field.member);
  };
  walk(frame.service);
  walk(frame.server);
  for (net::PeerCounters& peer : frame.peers) walk(peer);
  if (frame.has_replica) walk(frame.replica);
}

/// A frame whose every declared field holds a distinct value, 1000 up, in
/// frame order: service, server, two peers, replica.
net::CountersFrame numbered_frame() {
  net::CountersFrame frame;
  frame.peers.push_back({"127.0.0.1"});
  frame.peers.push_back({"(other)"});
  frame.has_replica = true;
  std::uint64_t next = 1000;
  for_each_field(frame, [&next](std::uint64_t& value) { value = next++; });
  return frame;
}

std::uint64_t fnv_digest(const std::string& bytes) {
  util::Fnv1a64 fnv;
  for (const char c : bytes) fnv.byte(static_cast<std::uint8_t>(c));
  return fnv.digest();
}

}  // namespace

TEST(Wire, CountersFrameRoundTripsEveryDeclaredField) {
  net::CountersFrame with = numbered_frame();
  net::CountersFrame without = with;
  without.has_replica = false;
  for (net::CountersFrame* sent : {&with, &without}) {
    SCOPED_TRACE(sent->has_replica ? "with replica" : "without replica");
    const std::string payload = net::encode_counters(*sent);
    net::CountersFrame got;
    ASSERT_TRUE(net::decode_counters(payload, got));
    ASSERT_EQ(got.has_replica, sent->has_replica);
    ASSERT_EQ(got.peers.size(), sent->peers.size());
    for (std::size_t p = 0; p < got.peers.size(); ++p)
      EXPECT_EQ(got.peers[p].peer, sent->peers[p].peer);
    std::vector<std::uint64_t> sent_values, got_values;
    for_each_field(*sent, [&](std::uint64_t& v) { sent_values.push_back(v); });
    for_each_field(got, [&](std::uint64_t& v) { got_values.push_back(v); });
    EXPECT_EQ(got_values, sent_values);
    EXPECT_EQ(sent_values.size(),
              20u + 5u + 2u * 4u + (sent->has_replica ? 15u : 0u));

    for (std::size_t cut = 0; cut < payload.size(); ++cut)
      EXPECT_FALSE(net::decode_counters(payload.substr(0, cut), got))
          << "counters prefix " << cut << " accepted";
    EXPECT_FALSE(net::decode_counters(payload + '\0', got));
  }

  // The payload bytes are pinned: reordering, dropping or adding a table
  // entry changes every tool's view of the frame.
  EXPECT_EQ(fnv_digest(net::encode_counters(with)), 0x8baca36c48423bbcULL);
  EXPECT_EQ(fnv_digest(net::encode_counters(without)), 0x1d7da2c20ecb197bULL);

  // A presence byte other than 0 or 1 is rejected.
  std::string bad_presence = net::encode_counters(without);
  bad_presence.back() = 2;
  net::CountersFrame got;
  EXPECT_FALSE(net::decode_counters(bad_presence, got));
}

TEST(Wire, CountersTableHasOneRowPerDeclaredField) {
  net::CountersFrame frame = numbered_frame();
  for (const bool replica : {true, false}) {
    frame.has_replica = replica;
    const util::Table table = net::counters_table(frame);
    ASSERT_EQ(table.row_count(), 20u + 5u + 2u * 4u + (replica ? 15u : 0u));
    std::set<std::string> names;
    for (const auto& row : table.rows()) names.insert(row[0]);
    EXPECT_EQ(names.size(), table.row_count()) << "duplicate row names";
  }
  const util::Table table = net::counters_table(frame);
  EXPECT_EQ(table.rows().front(),
            (std::vector<std::string>{"service.queries", "1000"}));
  EXPECT_EQ(table.rows().back(),
            (std::vector<std::string>{"peer[(other)].rejected_frames",
                                      "1032"}));
}

// --- rejection: truncation, corruption, bounds -----------------------------

TEST(Wire, EveryTruncationOfEveryPayloadIsRejected) {
  std::vector<Request> requests;
  requests.push_back({RequestKind::kCost, kInvalidNode, 0, 5});
  requests.push_back({RequestKind::kPrice, 2, 0, 5});
  std::vector<Reply> replies;
  Reply reply;
  reply.value = Cost{3};
  reply.path = graph::Path{0, 1, 5};
  replies.push_back(reply);
  replies.push_back(reply);
  std::vector<RouteService::Delta> deltas;
  deltas.push_back(RouteService::Delta::cost_change(4, Cost{11}));
  deltas.push_back(RouteService::Delta::remove_link(2, 3));

  const std::string req_payload = net::encode_requests(requests);
  for (std::size_t cut = 0; cut < req_payload.size(); ++cut)
    EXPECT_FALSE(net::decode_requests(req_payload.substr(0, cut), 16).ok())
        << "request prefix " << cut << " accepted";

  const std::string reply_payload = net::encode_replies(replies);
  for (std::size_t cut = 0; cut < reply_payload.size(); ++cut)
    EXPECT_FALSE(net::decode_replies(reply_payload.substr(0, cut), {}).ok())
        << "reply prefix " << cut << " accepted";

  const std::string delta_payload = net::encode_deltas(deltas);
  for (std::size_t cut = 0; cut < delta_payload.size(); ++cut)
    EXPECT_FALSE(net::decode_deltas(delta_payload.substr(0, cut), 16).ok())
        << "delta prefix " << cut << " accepted";

  // Headers are fixed-size: any truncation is rejected outright.
  const std::string frame = net::encode_frame(net::FrameType::kHello, "x");
  for (std::size_t cut = 0; cut < net::kFrameHeaderBytes; ++cut)
    EXPECT_FALSE(net::decode_frame_header(frame.substr(0, cut), {}).ok());
}

TEST(Wire, HeaderCorruptionIsTypedAndRejected) {
  const net::WireLimits limits;
  std::string frame = net::encode_frame(net::FrameType::kQueryBatch, "abc");
  auto header_of = [&](const std::string& f) {
    return net::decode_frame_header(
        std::string_view(f).substr(0, net::kFrameHeaderBytes), limits);
  };

  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_EQ(header_of(bad_magic).status, net::WireStatus::kMalformed);
  EXPECT_FALSE(header_of(bad_magic).ok());

  std::string bad_version = frame;
  bad_version[4] = 9;
  EXPECT_EQ(header_of(bad_version).status,
            net::WireStatus::kUnsupportedVersion);

  std::string bad_type = frame;
  bad_type[5] = '\x66';
  EXPECT_EQ(header_of(bad_type).status, net::WireStatus::kBadFrameType);

  // A length beyond the limit is rejected from the header alone — before
  // any payload buffer could be allocated.
  std::string oversized = frame;
  const std::uint32_t huge = limits.max_payload_bytes + 1;
  std::memcpy(oversized.data() + 8, &huge, sizeof(huge));
  EXPECT_EQ(header_of(oversized).status, net::WireStatus::kOversized);

  // No encoder writes a nonzero reserved field, so none passes the gate,
  // whichever of its bits is set.
  for (const std::size_t byte : {std::size_t{6}, std::size_t{7}}) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string reserved = frame;
      reserved[byte] = static_cast<char>(1 << bit);
      EXPECT_FALSE(header_of(reserved).ok()) << byte << ":" << bit;
      EXPECT_EQ(header_of(reserved).status, net::WireStatus::kMalformed);
    }
  }

  // Corrupted payload fails the checksum.
  const auto head = header_of(frame);
  ASSERT_TRUE(head.ok());
  EXPECT_FALSE(net::payload_checksum_ok(head.header, "abd"));
  EXPECT_FALSE(net::payload_checksum_ok(head.header, "abcd"));
  EXPECT_TRUE(net::payload_checksum_ok(head.header, "abc"));
}

TEST(Wire, FrameChecksumIsXxh64) {
  // The published XXH64 seed-0 vectors: the short path, and (39 bytes)
  // one 32-byte stripe of the four lanes plus a 4-byte and 1-byte tail.
  EXPECT_EQ(util::xxh64(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(util::xxh64("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(util::xxh64("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(util::xxh64("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ULL);

  for (const std::string_view payload :
       {std::string_view(), std::string_view("abc"),
        std::string_view("Nobody inspects the spammish repetition")}) {
    const std::string frame =
        net::encode_frame(net::FrameType::kReplyBatch, payload);
    ASSERT_EQ(frame.size(), net::kFrameHeaderBytes + payload.size());
    EXPECT_EQ(static_cast<std::uint8_t>(frame[4]), 5u) << "fpss-wire v5";
    util::BinReader checksum{std::string_view(frame).substr(12, 8)};
    EXPECT_EQ(checksum.u64(), util::xxh64(payload));
    EXPECT_EQ(frame.substr(net::kFrameHeaderBytes), payload);
  }
}

TEST(Wire, EverySingleBitFlipFailsTheFrameChecksum) {
  // A reply batch long enough to run the lanes, whose tail after the
  // 32-byte stripes takes the 8-byte, the 4-byte and the 1-byte steps.
  std::vector<Reply> replies(5);
  for (Reply& reply : replies) {
    reply.value = Cost{7};
    reply.path = graph::Path{0, 4, 2};
  }
  const std::string payload = net::encode_replies(replies);
  ASSERT_GE(payload.size(), 32u);
  ASSERT_GE(payload.size() % 32, 13u);
  ASSERT_GE(payload.size() % 8, 5u);
  const std::string frame =
      net::encode_frame(net::FrameType::kReplyBatch, payload);
  const net::WireLimits limits;
  const auto head = net::decode_frame_header(
      std::string_view(frame).substr(0, net::kFrameHeaderBytes), limits);
  ASSERT_TRUE(head.ok()) << head.error;
  ASSERT_TRUE(net::payload_checksum_ok(head.header, payload));

  for (std::size_t bit = 0; bit < 8 * payload.size(); ++bit) {
    std::string flipped = payload;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_FALSE(net::payload_checksum_ok(head.header, flipped))
        << "payload bit " << bit;
  }
  for (std::size_t bit = 0; bit < 64; ++bit) {
    std::string flipped = frame.substr(0, net::kFrameHeaderBytes);
    const std::size_t at = 12 + bit / 8;  // the checksum field
    flipped[at] = static_cast<char>(flipped[at] ^ (1 << (bit % 8)));
    const auto flipped_head = net::decode_frame_header(flipped, limits);
    ASSERT_TRUE(flipped_head.ok()) << flipped_head.error;
    EXPECT_FALSE(net::payload_checksum_ok(flipped_head.header, payload))
        << "checksum bit " << bit;
  }
}

TEST(Wire, LyingBatchCountsAreRejectedBeforeAllocation) {
  // Payload claims 100000 requests but carries none: the exact-size check
  // fires before any reserve happens.
  std::string lying;
  lying.push_back(static_cast<char>(0xa0));
  lying.push_back(static_cast<char>(0x86));
  lying.push_back(0x01);
  lying.push_back(0x00);  // count = 100000, little-endian
  EXPECT_FALSE(net::decode_requests(lying, 4096).ok());
  EXPECT_FALSE(net::decode_deltas(lying, 4096).ok());
  EXPECT_FALSE(net::decode_replies(lying, {}).ok());

  // Batches over the negotiated limit are rejected as oversized.
  std::vector<Request> batch(5);
  const auto too_many = net::decode_requests(net::encode_requests(batch), 4);
  EXPECT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status, net::WireStatus::kOversized);
}

// --- loopback: remote equals local -----------------------------------------

struct Loopback {
  explicit Loopback(RouteService& svc, net::ServerConfig config = {})
      : server(svc, config) {
    EXPECT_TRUE(server.ok()) << server.error();
    net::ClientConfig client_config;
    client_config.port = server.port();
    client = std::make_unique<net::RouteClient>(client_config);
    EXPECT_TRUE(client->connect().ok());
  }
  net::RouteServer server;
  std::unique_ptr<net::RouteClient> client;
};

TEST(RouteServerNet, LoopbackAnswersBitIdenticalToLocalQuery) {
  const graph::Graph g = test::make_instance({"er", 20, 71, 10});
  RouteService svc(g);
  Loopback loop(svc);

  EXPECT_EQ(loop.client->server_node_count(), g.node_count());
  EXPECT_EQ(loop.client->server_snapshot_version(), svc.publish_count());

  // Every kind, every status: valid pairs, self-pairs, bad nodes, and an
  // unknown kind tag.
  std::vector<Request> batch;
  util::Rng rng(71);
  const NodeId n = static_cast<NodeId>(g.node_count());
  for (int q = 0; q < 200; ++q) {
    Request r;
    r.kind = static_cast<RequestKind>(1 + rng.below(6));
    r.k = static_cast<NodeId>(rng.below(n));
    r.i = static_cast<NodeId>(rng.below(n));
    r.j = static_cast<NodeId>(rng.below(n));
    batch.push_back(r);
  }
  batch.push_back({RequestKind::kCost, 0, n, 2});           // bad node
  batch.push_back({RequestKind::kPrice, n, 0, 2});          // bad node
  batch.push_back({static_cast<RequestKind>(250), 0, 0, 1});  // bad kind

  const auto remote = loop.client->query(batch);
  ASSERT_TRUE(remote.ok()) << remote.error.message;
  const auto local = svc.query(batch);
  ASSERT_EQ(remote.replies.size(), local.size());
  for (std::size_t q = 0; q < local.size(); ++q) {
    EXPECT_TRUE(service::same_answer(remote.replies[q], local[q]))
        << "answer " << q << " diverged";
    EXPECT_EQ(remote.replies[q].snapshot_version, svc.publish_count());
  }
  EXPECT_EQ(remote.replies[batch.size() - 3].status, Status::kBadNode);
  EXPECT_EQ(remote.replies[batch.size() - 1].status, Status::kBadKind);
}

TEST(RouteServerNet, PipelinedBatchesComeBackInOrder) {
  const auto f = graphgen::fig1();
  RouteService svc(f.g);
  Loopback loop(svc);

  const std::vector<Request> a{{RequestKind::kCost, kInvalidNode, f.x, f.z}};
  const std::vector<Request> b{{RequestKind::kPrice, f.d, f.x, f.z}};
  const std::vector<Request> c{{RequestKind::kPath, kInvalidNode, f.x, f.z}};
  ASSERT_TRUE(loop.client->send(a).ok());
  ASSERT_TRUE(loop.client->send(b).ok());
  ASSERT_TRUE(loop.client->send(c).ok());
  EXPECT_EQ(loop.client->outstanding(), 3u);

  const auto ra = loop.client->receive();
  const auto rb = loop.client->receive();
  const auto rc = loop.client->receive();
  ASSERT_TRUE(ra.ok() && rb.ok() && rc.ok());
  EXPECT_EQ(loop.client->outstanding(), 0u);
  EXPECT_EQ(ra.replies.front().value, Cost{3});
  EXPECT_EQ(rb.replies.front().value, Cost{3});
  EXPECT_EQ(rc.replies.front().path, (graph::Path{f.x, f.b, f.d, f.z}));
  EXPECT_FALSE(loop.client->receive().ok());  // nothing outstanding
}

TEST(RouteServerNet, RemoteDeltasCountersAndDrain) {
  const auto f = graphgen::fig1();
  RouteService svc(f.g);
  Loopback loop(svc);

  // One valid delta plus one naming a node outside the network: the server
  // accepts exactly the valid one.
  std::vector<RouteService::Delta> deltas;
  deltas.push_back(RouteService::Delta::cost_change(f.b, Cost{3}));
  deltas.push_back(RouteService::Delta::cost_change(99, Cost{1}));
  const auto accepted = loop.client->submit_deltas(deltas);
  ASSERT_TRUE(accepted.ok()) << accepted.error.message;
  EXPECT_EQ(accepted.accepted, 1u);
  // The ack's version is post-drain: the write is already published.
  EXPECT_EQ(accepted.publish_count, svc.publish_count());
  EXPECT_GE(accepted.publish_count, 2u);

  const auto drained = loop.client->drain();
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained.value, svc.publish_count());
  graph::Graph mutated = f.g;
  mutated.set_cost(f.b, Cost{3});
  const mechanism::VcgMechanism mech(mutated);
  EXPECT_EQ(svc.snapshot()->price(f.d, f.x, f.z), mech.price(f.d, f.x, f.z));
  EXPECT_EQ(svc.snapshot()->cost(f.x, f.z), mech.routes().cost(f.x, f.z));

  // One remote batch so the per-peer query tally below has something to
  // count.
  const std::vector<Request> probe{
      {RequestKind::kCost, kInvalidNode, f.x, f.z},
      {RequestKind::kPrice, f.d, f.x, f.z}};
  ASSERT_TRUE(loop.client->query(probe).ok());

  const auto counters = loop.client->counters();
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters.frame.service.deltas_applied, 1u);
  EXPECT_GE(counters.frame.service.publishes, 2u);

  // The same reply carries the daemon's per-peer accounting: everything
  // above came from this one loopback client.
  EXPECT_GE(counters.frame.server.connections, 1u);
  ASSERT_EQ(counters.frame.peers.size(), 1u);
  const net::PeerCounters& peer = counters.frame.peers.front();
  EXPECT_EQ(peer.peer, "127.0.0.1");
  EXPECT_GE(peer.connections, 1u);
  EXPECT_EQ(peer.batches, 1u);
  EXPECT_EQ(peer.queries, probe.size());
  EXPECT_EQ(peer.rejected_frames, 0u);
}

// A declared cost above kMaxFinite / n^2 could carry a price or a pair
// payment out of Cost's finite range, so the service refuses it like an
// out-of-range node: the frame is acked with nothing accepted instead of
// aborting the updater, and the same connection is served on. Every node
// at the bound itself converges to finite answers.
TEST(RouteServerNet, OversizedCostDeltaIsRefusedAndServingGoesOn) {
  const graph::Graph g = test::make_instance({"er", 12, 76, 6});
  const NodeId n = static_cast<NodeId>(g.node_count());
  RouteService svc(g);
  Loopback loop(svc);
  const std::uint64_t version = svc.publish_count();

  const auto refused =
      loop.client->submit_deltas(std::vector<RouteService::Delta>{
          RouteService::Delta::cost_change(3, Cost{Cost::kMaxFinite})});
  ASSERT_TRUE(refused.ok()) << refused.error.message;
  EXPECT_EQ(refused.accepted, 0u);
  EXPECT_EQ(svc.publish_count(), version);
  const std::vector<Request> probe{
      {RequestKind::kPairPayment, kInvalidNode, 0, static_cast<NodeId>(n - 1)},
      {RequestKind::kPrice, 3, 0, static_cast<NodeId>(n - 1)}};
  const auto answered = loop.client->query(probe);
  ASSERT_TRUE(answered.ok()) << answered.error.message;
  ASSERT_EQ(answered.replies.size(), probe.size());
  const auto local = svc.query(probe);
  for (std::size_t q = 0; q < probe.size(); ++q)
    EXPECT_TRUE(service::same_answer(answered.replies[q], local[q])) << q;

  const Cost bound{Cost::kMaxFinite / (static_cast<Cost::rep>(n) * n)};
  std::vector<RouteService::Delta> at_bound;
  for (NodeId v = 0; v < n; ++v)
    at_bound.push_back(RouteService::Delta::cost_change(v, bound));
  const auto accepted = loop.client->submit_deltas(at_bound);
  ASSERT_TRUE(accepted.ok()) << accepted.error.message;
  EXPECT_EQ(accepted.accepted, n);
  const auto above =
      loop.client->submit_deltas(std::vector<RouteService::Delta>{
          RouteService::Delta::cost_change(0, Cost{bound.value() + 1})});
  ASSERT_TRUE(above.ok()) << above.error.message;
  EXPECT_EQ(above.accepted, 0u);

  std::vector<Request> payments;
  for (NodeId j = 1; j < n; ++j)
    payments.push_back({RequestKind::kPairPayment, kInvalidNode, 0, j});
  const auto paid = loop.client->query(payments);
  ASSERT_TRUE(paid.ok()) << paid.error.message;
  for (const service::Reply& reply : paid.replies) {
    EXPECT_EQ(reply.status, service::Status::kOk);
    EXPECT_TRUE(reply.value.is_finite());
  }
}

TEST(RouteServerNet, MalformedAndOversizedFramesAreRejectedWithoutCrash) {
  const auto f = graphgen::fig1();
  RouteService svc(f.g);
  net::RouteServer server(svc);
  ASSERT_TRUE(server.ok());

  // Raw socket: speak deliberately broken fpss-wire at the server.
  auto dial = [&]() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  };
  auto expect_error = [&](int fd, net::WireStatus code) {
    std::string head(net::kFrameHeaderBytes, '\0');
    std::size_t got = 0;
    while (got < head.size()) {
      const ssize_t n = ::recv(fd, head.data() + got, head.size() - got, 0);
      ASSERT_GT(n, 0);
      got += static_cast<std::size_t>(n);
    }
    const auto decoded = net::decode_frame_header(head, {});
    ASSERT_TRUE(decoded.ok()) << decoded.error;
    ASSERT_EQ(decoded.header.type, net::FrameType::kError);
    std::string payload(decoded.header.payload_bytes, '\0');
    got = 0;
    while (got < payload.size()) {
      const ssize_t n =
          ::recv(fd, payload.data() + got, payload.size() - got, 0);
      ASSERT_GT(n, 0);
      got += static_cast<std::size_t>(n);
    }
    net::ErrorFrame error;
    ASSERT_TRUE(net::decode_error(payload, error));
    EXPECT_EQ(error.code, code);
    // After an error frame the server closes the connection (FIN or RST;
    // either way no further byte arrives).
    char byte;
    EXPECT_LE(::recv(fd, &byte, 1, 0), 0);
  };
  auto send_all = [](int fd, std::string_view bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  };

  {  // Garbage header: rejected as malformed from 20 bytes alone.
    const int fd = dial();
    send_all(fd, std::string(net::kFrameHeaderBytes, 'Z'));
    expect_error(fd, net::WireStatus::kMalformed);
    ::close(fd);
  }
  {  // Unsupported version byte.
    const int fd = dial();
    std::string frame = net::encode_frame(net::FrameType::kHello,
                                          net::encode_hello({}));
    frame[4] = static_cast<char>(net::kWireVersion + 1);
    send_all(fd, frame);
    expect_error(fd, net::WireStatus::kUnsupportedVersion);
    ::close(fd);
  }
  {  // Payload length beyond the server's limit: rejected pre-allocation.
    const int fd = dial();
    std::string frame = net::encode_frame(net::FrameType::kQueryBatch, "");
    const std::uint32_t huge = net::WireLimits{}.max_payload_bytes + 1;
    std::memcpy(frame.data() + 8, &huge, sizeof(huge));
    send_all(fd, frame);
    expect_error(fd, net::WireStatus::kOversized);
    ::close(fd);
  }
  {  // Corrupted payload: checksum mismatch.
    const int fd = dial();
    std::string frame =
        net::encode_frame(net::FrameType::kQueryBatch,
                          net::encode_requests(std::vector<Request>(1)));
    frame.back() = static_cast<char>(frame.back() ^ 0x20);
    send_all(fd, frame);
    expect_error(fd, net::WireStatus::kMalformed);
    ::close(fd);
  }
  {  // A nonzero reserved header field: malformed from the header alone.
    const int fd = dial();
    std::string frame = net::encode_frame(net::FrameType::kHello,
                                          net::encode_hello({}));
    frame[7] = '\x01';
    send_all(fd, frame);
    expect_error(fd, net::WireStatus::kMalformed);
    ::close(fd);
  }
  {  // A reply-only frame type is not a valid request.
    const int fd = dial();
    send_all(fd, net::encode_frame(net::FrameType::kReplyBatch, ""));
    expect_error(fd, net::WireStatus::kBadFrameType);
    ::close(fd);
  }

  EXPECT_GE(server.stats().rejected_frames, 6u);

  // The server is still healthy: a well-formed client gets answers.
  net::ClientConfig config;
  config.port = server.port();
  net::RouteClient client(config);
  ASSERT_TRUE(client.connect().ok());
  const std::vector<Request> batch{{RequestKind::kCost, kInvalidNode, f.x, f.z}};
  const auto result = client.query(batch);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.replies.front().value, Cost{3});
}

TEST(RouteClientNet, TypedErrors) {
  net::ClientConfig config;
  config.port = 1;  // nothing listens here
  config.connect_attempts = 2;
  config.backoff_ms = 1;
  net::RouteClient client(config);

  const std::vector<Request> batch{{RequestKind::kCost, kInvalidNode, 0, 1}};
  const auto before = client.query(batch);
  EXPECT_EQ(before.error.status, net::ClientStatus::kNotConnected);

  const auto err = client.connect();
  EXPECT_EQ(err.status, net::ClientStatus::kConnectFailed);
  EXPECT_FALSE(client.connected());
}

TEST(Wire, ReplicationControlPayloadRoundTrips) {
  // The park head: all of a kAwaitPublish or kSnapshotFetch payload.
  const net::Await await{41, 250};
  const std::string await_payload = net::encode_await(await);
  net::Await await2;
  ASSERT_TRUE(net::decode_await(await_payload, await2));
  EXPECT_EQ(await2.since, 41u);
  EXPECT_EQ(await2.wait_ms, 250u);
  EXPECT_FALSE(net::decode_await(await_payload + '\0', await2));
  for (std::size_t cut = 0; cut < await_payload.size(); ++cut)
    EXPECT_FALSE(net::decode_await(await_payload.substr(0, cut), await2))
        << "await prefix " << cut << " accepted";

  // Publish notifies.
  net::PublishNotify notify{9, 12345};
  net::PublishNotify notify2;
  const std::string notify_payload = net::encode_publish_notify(notify);
  EXPECT_EQ(notify_payload.size(), 16u);
  ASSERT_TRUE(net::decode_publish_notify(notify_payload, notify2));
  EXPECT_EQ(notify2.snapshot_version, 9u);
  EXPECT_EQ(notify2.published_at_ns, 12345u);
  EXPECT_FALSE(net::decode_publish_notify(notify_payload + '\0', notify2));
  for (std::size_t cut = 0; cut < notify_payload.size(); ++cut)
    EXPECT_FALSE(
        net::decode_publish_notify(notify_payload.substr(0, cut), notify2))
        << "notify prefix " << cut << " accepted";
}

// A well-formed frame of the wrong type must surface as kUnexpectedFrame
// (the stream desynced), not kProtocolError (the bytes were garbage) —
// the satellite distinction a resyncing replica relies on.
TEST(RouteClientNet, UnexpectedFrameTypeIsTypedDistinctFromCorruption) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);

  // A confused fake server: completes the handshake correctly, then
  // answers the query batch with a perfectly valid kDrainReply.
  std::thread impostor([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    auto read_frame = [fd]() {
      std::string head(net::kFrameHeaderBytes, '\0');
      std::size_t got = 0;
      while (got < head.size()) {
        const ssize_t n = ::recv(fd, head.data() + got, head.size() - got, 0);
        ASSERT_GT(n, 0);
        got += static_cast<std::size_t>(n);
      }
      const auto header = net::decode_frame_header(head, {});
      ASSERT_TRUE(header.ok());
      std::string payload(header.header.payload_bytes, '\0');
      got = 0;
      while (got < payload.size()) {
        const ssize_t n =
            ::recv(fd, payload.data() + got, payload.size() - got, 0);
        ASSERT_GT(n, 0);
        got += static_cast<std::size_t>(n);
      }
    };
    auto write_frame = [fd](net::FrameType type, const std::string& payload) {
      const std::string frame = net::encode_frame(type, payload);
      std::size_t sent = 0;
      while (sent < frame.size()) {
        const ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent,
                                 MSG_NOSIGNAL);
        ASSERT_GT(n, 0);
        sent += static_cast<std::size_t>(n);
      }
    };
    read_frame();  // kHello
    net::HelloAck ack;
    ack.node_count = 4;
    ack.snapshot_version = 1;
    ack.max_batch = 64;
    write_frame(net::FrameType::kHelloAck, net::encode_hello_ack(ack));
    read_frame();  // kQueryBatch
    write_frame(net::FrameType::kDrainReply, net::encode_u64(1));
    ::close(fd);
  });

  net::ClientConfig config;
  config.port = port;
  net::RouteClient client(config);
  ASSERT_TRUE(client.connect().ok());
  const std::vector<Request> batch{{RequestKind::kCost, kInvalidNode, 0, 1}};
  const auto result = client.query(batch);
  EXPECT_EQ(result.error.status, net::ClientStatus::kUnexpectedFrame);
  EXPECT_NE(result.error.status, net::ClientStatus::kProtocolError);
  EXPECT_FALSE(client.connected());  // a desynced stream is unusable

  impostor.join();
  ::close(listener);
}

TEST(RouteServerNet, GracefulStopDrainsAndRefusesNewWork) {
  const auto f = graphgen::fig1();
  RouteService svc(f.g);
  Loopback loop(svc);

  const std::vector<Request> batch{{RequestKind::kCost, kInvalidNode, f.x, f.z}};
  ASSERT_TRUE(loop.client->query(batch).ok());

  loop.server.stop();
  EXPECT_FALSE(loop.client->query(batch).ok());

  // And a fresh connection is refused outright.
  net::ClientConfig config;
  config.port = loop.server.port();
  config.connect_attempts = 1;
  net::RouteClient late(config);
  EXPECT_FALSE(late.connect().ok());
}

// A read that fails closes the connection with nothing left outstanding
// on it, so the next connect() starts a clean pipeline and every query
// gets its own batch's replies, not an earlier batch's.
TEST(RouteClientNet, FailedReadLeavesNothingOutstanding) {
  RouteService svc(test::make_instance({"er", 12, 75, 6}));
  net::ServerConfig server_config;
  auto server = std::make_unique<net::RouteServer>(svc, server_config);
  ASSERT_TRUE(server->ok()) << server->error();
  net::ClientConfig config;
  config.port = server->port();
  net::RouteClient client(config);
  ASSERT_TRUE(client.connect().ok());
  const auto batch_of = [](std::size_t size) {
    return std::vector<Request>(size,
                                {RequestKind::kCost, kInvalidNode, 0, 1});
  };
  ASSERT_TRUE(client.query(batch_of(2)).ok());

  // The server goes away under the idle connection: the next request is
  // sent, and its read fails.
  server.reset();
  EXPECT_FALSE(client.query(batch_of(3)).ok());
  EXPECT_EQ(client.outstanding(), 0u);

  server_config.port = config.port;
  server = std::make_unique<net::RouteServer>(svc, server_config);
  ASSERT_TRUE(server->ok()) << server->error();
  ASSERT_TRUE(client.connect().ok());
  for (const std::size_t size : {std::size_t{6}, std::size_t{4}}) {
    const auto answered = client.query(batch_of(size));
    ASSERT_TRUE(answered.ok()) << answered.error.message;
    EXPECT_EQ(answered.replies.size(), size);
  }
}

// A parked request holds its worker for up to kMaxParkMs; stop() must not
// wait that out. The park ends within one 100 ms slice and the request
// still gets its reply: the unchanged clock.
TEST(RouteServerNet, StopReleasesAParkedAwait) {
  const auto f = graphgen::fig1();
  RouteService svc(f.g);
  Loopback loop(svc);
  const std::uint64_t count = svc.publish_count();

  std::atomic<bool> answered{false};
  net::NotifyResult reply;
  std::thread waiter([&] {
    reply = loop.client->await_publish({count, net::kMaxParkMs});
    answered.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_FALSE(answered.load()) << "the await was not parked";

  const auto start = std::chrono::steady_clock::now();
  loop.server.stop();
  const auto took = std::chrono::steady_clock::now() - start;
  waiter.join();
  EXPECT_LT(took, std::chrono::milliseconds(500));
  ASSERT_TRUE(reply.ok()) << reply.error.message;
  EXPECT_EQ(reply.notify.snapshot_version, count);
}

// The hunt for torn notify metadata: under delta churn, every
// kPublishNotify's (version, stamp) pair must belong to one snapshot the
// primary actually published. Reading the two in separate calls lets a
// publish land in between and pair one snapshot's version with the next
// one's stamp.
TEST(RouteServerNet, NotifyVersionAndStampComeFromOnePublishedSnapshot) {
  const graph::Graph g = test::make_instance({"er", 12, 74, 6});
  const NodeId n = static_cast<NodeId>(g.node_count());
  RouteService svc(g);
  constexpr std::size_t kWaiters = 6;
  net::ServerConfig server_config;
  server_config.workers = kWaiters + 1;
  net::RouteServer server(svc, server_config);
  ASSERT_TRUE(server.ok()) << server.error();
  net::ClientConfig config;
  config.port = server.port();

  std::atomic<bool> done{false};
  std::atomic<std::size_t> started{0};
  // Readers hammering the store, as serving readers do: their lock traffic
  // is what stretches a parked request's gap between two separate reads.
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r)
    threads.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) svc.snapshot();
    });
  // Each waiter loops parked awaits, each from the version its last reply
  // carried: the first answers at once, every later one on a publish.
  std::vector<std::vector<net::PublishNotify>> notifies(kWaiters);
  for (std::size_t s = 0; s < kWaiters; ++s)
    threads.emplace_back([&, s] {
      net::RouteClient client(config);
      const bool connected = client.connect().ok();
      started.fetch_add(1);
      std::uint64_t since = 0;
      while (connected && !done.load(std::memory_order_relaxed)) {
        const auto reply = client.await_publish({since, 20});
        if (!reply.ok()) return;
        notifies[s].push_back(reply.notify);
        since = reply.notify.snapshot_version;
      }
    });
  while (started.load() < kWaiters)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Every snapshot the primary publishes, by version: this thread is the
  // only writer and drains each delta, so each publish is the newest
  // snapshot until the next submit. Every delta is a real cost change, so
  // each publish has a version of its own.
  std::map<std::uint64_t, std::uint64_t> published;
  const auto record = [&] {
    const auto snap = svc.snapshot();
    published.emplace(snap->version(), snap->published_at_ns());
  };
  record();
  for (NodeId w = 0; w < 600; ++w) {
    svc.submit(RouteService::Delta::cost_change(
        w % n, Cost{static_cast<Cost::rep>(100 + w)}));
    svc.drain();
    record();
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  std::size_t total = 0;
  for (const auto& list : notifies)
    for (const net::PublishNotify& notify : list) {
      ++total;
      const auto found = published.find(notify.snapshot_version);
      ASSERT_NE(found, published.end())
          << "version " << notify.snapshot_version;
      EXPECT_EQ(notify.published_at_ns, found->second)
          << "version " << notify.snapshot_version;
    }
  EXPECT_GT(total, kWaiters);
}

// --- warm start ------------------------------------------------------------

TEST(RouteServiceWarm, WarmStartServesSavedEpochThenReconverges) {
  const graph::Graph g = test::make_instance({"er", 18, 81, 9});
  RouteService cold(g);
  const auto saved_snapshot = cold.snapshot();

  // Through the persistence path, exactly as `route_server --snapshot`
  // does on a daemon restart.
  const std::string file = ::testing::TempDir() + "/fpss_warm_test.bin";
  ASSERT_TRUE(service::save_snapshot(*saved_snapshot, file).ok());
  auto loaded = service::load_snapshot(file);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  std::remove(file.c_str());

  RouteService warm(g, std::move(loaded.snapshot));
  // Epoch 0: the saved snapshot itself, served before any convergence.
  EXPECT_EQ(warm.publish_count(), saved_snapshot->version());
  EXPECT_EQ(warm.snapshot()->published_at_ns(),
            saved_snapshot->published_at_ns());
  EXPECT_EQ(warm.snapshot()->checksum(), saved_snapshot->checksum());

  // Warm and cold answer identically — same values, same version, same
  // publish stamp (the stamp rode through the file).
  std::vector<Request> batch;
  util::Rng rng(81);
  for (int q = 0; q < 100; ++q) {
    Request r;
    r.kind = static_cast<RequestKind>(1 + rng.below(6));
    r.k = static_cast<NodeId>(rng.below(g.node_count()));
    r.i = static_cast<NodeId>(rng.below(g.node_count()));
    r.j = static_cast<NodeId>(rng.below(g.node_count()));
    batch.push_back(r);
  }
  const auto from_cold = cold.query(batch);
  const auto from_warm = warm.query(batch);
  for (std::size_t q = 0; q < batch.size(); ++q)
    ASSERT_TRUE(service::same_answer(from_cold[q], from_warm[q]))
        << "answer " << q;

  // First delta triggers the deferred initial convergence; both services
  // must land on the same converged state.
  cold.submit(RouteService::Delta::cost_change(2, Cost{55}));
  warm.submit(RouteService::Delta::cost_change(2, Cost{55}));
  cold.drain();
  const auto warm_version = warm.drain();
  // The first publish continues the image's clock.
  EXPECT_EQ(warm_version, saved_snapshot->version() + 1);

  const auto snap_cold = cold.snapshot();
  const auto snap_warm = warm.snapshot();
  ASSERT_TRUE(snap_warm->self_check());
  for (NodeId i = 0; i < g.node_count(); ++i)
    for (NodeId j = 0; j < g.node_count(); ++j) {
      ASSERT_EQ(snap_warm->cost(i, j), snap_cold->cost(i, j));
      ASSERT_EQ(snap_warm->path(i, j), snap_cold->path(i, j));
      ASSERT_EQ(snap_warm->pair_payment(i, j), snap_cold->pair_payment(i, j));
    }
}

TEST(RouteServiceWarm, WarmStartRestoresPaymentTotals) {
  const auto f = graphgen::fig1();
  RouteService first(f.g);
  first.charge(f.x, f.z, 100);
  first.submit(RouteService::Delta::republish());
  first.drain();
  ASSERT_EQ(first.snapshot()->payment_total(f.d), 300);

  RouteService second(f.g, first.snapshot());
  // The ledger was seeded from the snapshot: totals survive the restart
  // and further charges accumulate on top.
  EXPECT_EQ(second.snapshot()->payment_total(f.d), 300);
  second.charge(f.x, f.z, 1);
  second.submit(RouteService::Delta::republish());
  second.drain();
  EXPECT_EQ(second.snapshot()->payment_total(f.d), 303);
}

// --- delta coalescing ------------------------------------------------------

TEST(RouteServiceCoalesce, BurstCoalescesToOnePublishAndSequentialState) {
  const graph::Graph g = test::make_instance({"er", 16, 91, 8});
  RouteService svc(g);
  const std::uint64_t publishes_before = svc.publish_count();

  // A burst where most deltas are superseded or net no-ops:
  //   node 2: 5 then 9            -> one effective change (9)
  //   node 3: 4 then its old cost -> net no-op, dropped entirely
  //   an absent link: add+remove  -> net no-op, dropped entirely
  //   a republish                 -> folded into the burst's publish
  const auto absent = [&] {
    for (NodeId u = 0; u < g.node_count(); ++u)
      for (NodeId v = static_cast<NodeId>(u + 1); v < g.node_count(); ++v)
        if (!g.has_edge(u, v)) return std::make_pair(u, v);
    return std::make_pair(kInvalidNode, kInvalidNode);
  }();
  ASSERT_NE(absent.first, kInvalidNode);

  std::vector<RouteService::Delta> burst;
  burst.push_back(RouteService::Delta::cost_change(2, Cost{5}));
  burst.push_back(RouteService::Delta::cost_change(3, Cost{4}));
  burst.push_back(RouteService::Delta::add_link(absent.first, absent.second));
  burst.push_back(RouteService::Delta::cost_change(2, Cost{9}));
  burst.push_back(
      RouteService::Delta::remove_link(absent.first, absent.second));
  burst.push_back(RouteService::Delta::cost_change(3, g.cost(3)));
  burst.push_back(RouteService::Delta::republish());
  ASSERT_EQ(svc.submit(burst), burst.size());
  svc.drain();

  // One burst, one publish, one reconvergence.
  EXPECT_EQ(svc.publish_count(), publishes_before + 1);
  const auto counters = svc.counters();
  EXPECT_EQ(counters.deltas_applied, burst.size());
  EXPECT_EQ(counters.deltas_coalesced, burst.size() - 1);

  // The final state is exactly the sequential application's final state.
  graph::Graph mutated = g;
  mutated.set_cost(2, Cost{9});
  RouteService reference(mutated);
  const auto got = svc.snapshot();
  const auto want = reference.snapshot();
  ASSERT_TRUE(got->self_check());
  for (NodeId i = 0; i < g.node_count(); ++i)
    for (NodeId j = 0; j < g.node_count(); ++j) {
      ASSERT_EQ(got->cost(i, j), want->cost(i, j));
      ASSERT_EQ(got->pair_payment(i, j), want->pair_payment(i, j));
    }
}

TEST(RouteServiceCoalesce, StalenessGaugeTracksServedAge) {
  const auto f = graphgen::fig1();
  RouteService svc(f.g);
  EXPECT_EQ(svc.counters().max_staleness_ns, 0u);
  const std::vector<Request> batch{
      {RequestKind::kCost, kInvalidNode, f.x, f.z}};
  svc.query(batch);
  const auto first = svc.counters().max_staleness_ns;
  EXPECT_GT(first, 0u);  // some nanoseconds passed since the publish
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  svc.query(batch);
  EXPECT_GT(svc.counters().max_staleness_ns, first);

  // Replies carry the same age the gauge saw.
  const auto answers = svc.query(batch);
  EXPECT_GT(answers.front().age_ns, 0u);
  EXPECT_EQ(answers.front().published_at_ns,
            svc.snapshot()->published_at_ns());
}

// --- fuzz-derived regressions ----------------------------------------------

// Hand-minimized malformed frame headers, pinned as regressions so the
// rejection behaviour the fuzz harness (fuzz/fuzz_wire.cpp) relies on
// cannot silently regress. Each input is the smallest byte string that
// reaches its rejection branch.
TEST(Wire, HandMinimizedMalformedHeadersAreRejected) {
  using namespace fpss::net;
  const WireLimits limits;

  // 1. Correct length, wrong magic: the first gate. 20 zero bytes.
  {
    const std::string zeros(kFrameHeaderBytes, '\0');
    const HeaderResult r = decode_frame_header(zeros, limits);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("magic"), std::string::npos);
  }

  // 2. Valid magic + version but a payload length one past the limit:
  //    must be rejected as kOversized *before* any payload allocation.
  {
    std::string header = encode_frame(FrameType::kHello, "");
    header.resize(kFrameHeaderBytes);
    const std::uint32_t lying = limits.max_payload_bytes + 1;
    std::memcpy(&header[8], &lying, sizeof(lying));  // payload_bytes field
    const HeaderResult r = decode_frame_header(header, limits);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status, WireStatus::kOversized);
  }

  // 3. Valid header whose checksum does not match the payload: the frame
  //    gate's second step. Flip one payload bit after encoding.
  {
    std::string frame = encode_frame(FrameType::kHello,
                                     encode_hello(Hello{}));
    ASSERT_GT(frame.size(), kFrameHeaderBytes);
    frame.back() = static_cast<char>(frame.back() ^ 0x01);
    const HeaderResult r =
        decode_frame_header(frame.substr(0, kFrameHeaderBytes), limits);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(
        payload_checksum_ok(r.header, frame.substr(kFrameHeaderBytes)));
  }
}

// --- socket_io: every IoResult, both sides of the spin window ---------------

/// A connected AF_UNIX stream pair: end 0 reads, end 1 plays the peer.
class SocketPair {
 public:
  SocketPair() { ::socketpair(AF_UNIX, SOCK_STREAM, 0, fd_); }
  ~SocketPair() {
    close(0);
    close(1);
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;

  int reader() const { return fd_[0]; }
  int peer() const { return fd_[1]; }
  const net::RecvBuffer& buffered() const { return buffered_; }
  /// read_exact on the reader end, through its receive buffer.
  net::IoResult read(char* out, std::size_t want, int timeout_ms,
                     bool* spin = nullptr,
                     const std::atomic<bool>* stopping = nullptr) {
    return net::read_exact(fd_[0], buffered_, out, want, timeout_ms, spin,
                           stopping);
  }
  bool send(std::string_view bytes) const {
    return ::send(fd_[1], bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }
  void close(int end) {
    if (fd_[end] >= 0) ::close(fd_[end]);
    fd_[end] = -1;
  }

 private:
  int fd_[2] = {-1, -1};
  net::RecvBuffer buffered_;
};

/// Runs `peer_action` on a thread `delay` from now, past the spin window.
std::thread after(std::chrono::milliseconds delay,
                  std::function<void()> peer_action) {
  return std::thread([delay, action = std::move(peer_action)] {
    std::this_thread::sleep_for(delay);
    action();
  });
}

constexpr auto kPastTheWindow = std::chrono::milliseconds(5);

TEST(SocketIo, QueuedBytesReadAtOnceAndStartTheSpin) {
  SocketPair pair;
  ASSERT_TRUE(pair.send("abcdef"));
  char buffer[6];
  bool spin = false;
  EXPECT_EQ(pair.read(buffer, sizeof(buffer), 1000, &spin),
            net::IoResult::kOk);
  EXPECT_EQ(std::string_view(buffer, sizeof(buffer)), "abcdef");
  EXPECT_TRUE(spin) << "a first byte that was already queued came in time";
}

TEST(SocketIo, EofIsClosedAtByteZeroAndAnErrorMidBuffer) {
  for (const bool spin_on_entry : {true, false}) {
    for (const std::string_view sent : {std::string_view(), std::string_view("abc")}) {
      const net::IoResult want =
          sent.empty() ? net::IoResult::kClosed : net::IoResult::kError;
      char buffer[8];
      {  // Inside the window: the EOF is queued before the read starts.
        SocketPair pair;
        ASSERT_TRUE(pair.send(sent));
        pair.close(1);
        bool spin = spin_on_entry;
        EXPECT_EQ(pair.read(buffer, sizeof(buffer), 2000, &spin), want)
            << "queued, " << sent.size() << " bytes, spin " << spin_on_entry;
      }
      {  // After it: the bytes and the EOF come once the read polls.
        SocketPair pair;
        std::thread peer = after(kPastTheWindow, [&pair, sent] {
          pair.send(sent);
          pair.close(1);
        });
        bool spin = spin_on_entry;
        EXPECT_EQ(pair.read(buffer, sizeof(buffer), 2000, &spin), want)
            << "late, " << sent.size() << " bytes, spin " << spin_on_entry;
        peer.join();
      }
    }
  }
}

TEST(SocketIo, StopFlagEndsOnlyAnIdleReadAndTheDeadlineAnyRead) {
  SocketPair pair;
  char buffer[4];
  bool spin = true;
  std::atomic<bool> stopping{true};
  EXPECT_EQ(pair.read(buffer, sizeof(buffer), 2000, &spin, &stopping),
            net::IoResult::kStopped);

  // Set while the read waits: noticed within one 100 ms poll slice.
  stopping = false;
  std::thread stopper = after(std::chrono::milliseconds(20),
                              [&stopping] { stopping = true; });
  auto start = net::Clock::now();
  EXPECT_EQ(pair.read(buffer, sizeof(buffer), 5000, &spin, &stopping),
            net::IoResult::kStopped);
  stopper.join();
  EXPECT_LT(net::Clock::now() - start, std::chrono::milliseconds(1000));

  // Nothing arrives: the deadline ends the read, and never before it:
  // next_slice_ms rounds a part-millisecond budget up, not down to 0.
  EXPECT_EQ(
      net::next_slice_ms(net::Clock::now() + std::chrono::microseconds(500)),
      1);
  start = net::Clock::now();
  EXPECT_EQ(pair.read(buffer, sizeof(buffer), 30, &spin),
            net::IoResult::kTimeout);
  EXPECT_GE(net::Clock::now() - start, std::chrono::milliseconds(30));

  // Once a frame has started arriving the stop flag no longer ends the
  // read; only the deadline does.
  stopping = false;
  ASSERT_TRUE(pair.send("ab"));
  stopper = after(std::chrono::milliseconds(20),
                  [&stopping] { stopping = true; });
  EXPECT_EQ(pair.read(buffer, sizeof(buffer), 200, &spin, &stopping),
            net::IoResult::kTimeout);
  stopper.join();
}

TEST(SocketIo, WriteDeliversMoreThanTheSocketBuffer) {
  SocketPair pair;
  const int small = 4096;
  ASSERT_EQ(::setsockopt(pair.peer(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);
  std::string bytes(1 << 20, '\0');
  for (std::size_t b = 0; b < bytes.size(); ++b)
    bytes[b] = static_cast<char>(b * 131 + b / 4099);
  std::string got(bytes.size(), '\0');
  net::IoResult read = net::IoResult::kError;
  std::thread reader([&] {
    read = pair.read(got.data(), got.size(), 5000);
  });
  EXPECT_TRUE(net::write_all(pair.peer(), bytes, 5000));
  reader.join();
  EXPECT_EQ(read, net::IoResult::kOk);
  EXPECT_TRUE(got == bytes);

  // A peer that never reads: the write gives up at its deadline.
  EXPECT_FALSE(net::write_all(pair.peer(), bytes, 30));
}

TEST(SocketIo, FramesQueuedByOneSendComeBackWholeAndInOrder) {
  SocketPair pair;
  const std::vector<std::string> payloads = {
      "first", std::string(3000, 'x'),
      net::encode_requests(std::vector<Request>(3))};
  std::string bytes;
  for (const std::string& payload : payloads)
    bytes += net::encode_frame(net::FrameType::kQueryBatch, payload);
  ASSERT_TRUE(pair.send(bytes));
  std::size_t consumed = 0;
  for (std::size_t f = 0; f < payloads.size(); ++f) {
    char header[net::kFrameHeaderBytes];
    ASSERT_EQ(pair.read(header, sizeof(header), 1000), net::IoResult::kOk);
    consumed += sizeof(header);
    // The first read's one recv brought in all three frames.
    EXPECT_EQ(pair.buffered().size(), bytes.size() - consumed);
    const auto head = net::decode_frame_header(
        std::string_view(header, sizeof(header)), {});
    ASSERT_TRUE(head.ok()) << head.error;
    std::string payload(head.header.payload_bytes, '\0');
    ASSERT_EQ(pair.read(payload.data(), payload.size(), 1000),
              net::IoResult::kOk);
    consumed += payload.size();
    EXPECT_TRUE(net::payload_checksum_ok(head.header, payload));
    EXPECT_EQ(payload, payloads[f]) << "frame " << f;
  }
  EXPECT_EQ(pair.buffered().size(), 0u);
}

TEST(SocketIo, AReadLargerThanTheBufferArrivesWhole) {
  // 7 bytes, then a 1 MiB read: its first bytes come from the buffer the
  // small read filled, the bulk straight from the socket, and the 5 bytes
  // behind it are read after.
  std::string bytes(7 + (1u << 20) + 5, '\0');
  for (std::size_t b = 0; b < bytes.size(); ++b)
    bytes[b] = static_cast<char>(b * 131 + b / 4099);
  SocketPair pair;
  std::thread writer(
      [&] { EXPECT_TRUE(net::write_all(pair.peer(), bytes, 5000)); });
  std::string got(bytes.size(), '\0');
  EXPECT_EQ(pair.read(got.data(), 7, 5000), net::IoResult::kOk);
  EXPECT_EQ(pair.read(got.data() + 7, 1u << 20, 5000), net::IoResult::kOk);
  EXPECT_EQ(pair.read(got.data() + 7 + (1u << 20), 5, 5000),
            net::IoResult::kOk);
  writer.join();
  EXPECT_TRUE(got == bytes);
  EXPECT_EQ(pair.buffered().size(), 0u);
}

TEST(SocketIo, AReadThatStartsWithBufferedBytesIgnoresTheStopFlag) {
  SocketPair pair;
  ASSERT_TRUE(pair.send("abcdef"));
  char buffer[8];
  ASSERT_EQ(pair.read(buffer, 2, 1000), net::IoResult::kOk);
  ASSERT_EQ(pair.buffered().size(), 4u);
  const std::atomic<bool> stopping{true};
  // Wholly buffered: read at once.
  EXPECT_EQ(pair.read(buffer, 1, 1000, nullptr, &stopping),
            net::IoResult::kOk);
  EXPECT_EQ(buffer[0], 'c');
  // Partly buffered: the frame has started, so only the deadline ends it.
  EXPECT_EQ(pair.read(buffer, 8, 30, nullptr, &stopping),
            net::IoResult::kTimeout);
  EXPECT_EQ(std::string_view(buffer, 3), "def");
  // Nothing buffered: the stop flag ends the wait.
  EXPECT_EQ(pair.read(buffer, 1, 1000, nullptr, &stopping),
            net::IoResult::kStopped);
}

TEST(SocketIo, EofAfterBufferedBytesIsAnErrorNotClosed) {
  SocketPair pair;
  ASSERT_TRUE(pair.send("abc"));
  pair.close(1);
  char buffer[4];
  ASSERT_EQ(pair.read(buffer, 1, 1000), net::IoResult::kOk);
  ASSERT_EQ(pair.buffered().size(), 2u);
  EXPECT_EQ(pair.read(buffer, 4, 1000), net::IoResult::kError);
  EXPECT_EQ(pair.read(buffer, 1, 1000), net::IoResult::kClosed);
}

TEST(SocketIo, AConnectionWhoseLastWaitPassedTheWindowStopsSpinning) {
  EXPECT_TRUE(net::spins_after(net::Clock::duration::zero()));
  EXPECT_TRUE(net::spins_after(net::kSpinWindow));
  EXPECT_FALSE(net::spins_after(net::kSpinWindow + std::chrono::nanoseconds(1)));
  EXPECT_FALSE(net::spins_after(kPastTheWindow));

  SocketPair pair;
  char buffer[4];
  bool spin = true;
  std::thread late = after(kPastTheWindow, [&pair] { pair.send("late"); });
  EXPECT_EQ(pair.read(buffer, sizeof(buffer), 2000, &spin),
            net::IoResult::kOk);
  late.join();
  EXPECT_FALSE(spin) << "a reply past the window must end the spinning";

  ASSERT_TRUE(pair.send("fast"));
  EXPECT_EQ(pair.read(buffer, sizeof(buffer), 2000, &spin),
            net::IoResult::kOk);
  EXPECT_TRUE(spin) << "a reply inside the window must start it again";
}

}  // namespace
}  // namespace fpss
