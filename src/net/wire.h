// "fpss-wire v5": the length-prefixed binary framing that carries
// Query/Answer batches and control traffic between net::RouteClient and
// net::RouteServer.
//
// Every frame reuses the fpss-snap header discipline — magic, version,
// type, a reserved field that must be zero, exact payload length, a
// checksum of the payload — and both ends validate the header *before*
// allocating anything for the payload: a hostile or corrupt peer can be
// rejected after 20 bytes. The checksum is XXH64 (seed 0,
// util/checksum.h), which each end computes once per frame; content
// digests inside payloads stay FNV-1a. Payload
// encodings are little-endian via util/binio.h, with Cost traveling as
// int64 (-1 = +infinity), the same convention the snapshot format fixed,
// so a decoded Reply is bit-identical to the in-process one.
//
//   frame   := header payload
//   header  := magic:u32 "FPW1" | version:u8 | type:u8 | reserved:u16 (0)
//              | payload_len:u32 | checksum:u64(XXH64 of payload)
//
// Frame types (tags are wire-reserved; append, never renumber):
//   kHello(0x01)         -> kHelloAck(0x02)      version negotiation
//   kQueryBatch(0x10)    -> kReplyBatch(0x11)    the data path
//   kCountersFetch(0x20) -> kCountersReply(0x21) the counters frame
//   kDeltaSubmit(0x30)   -> kDeltaAck(0x31)      remote topology deltas
//   kDrain(0x40)         -> kDrainReply(0x41)    publish barrier
//   kSnapshotFetch(0x50) -> kPublishNotify(0x61) kSnapshotChunk(0x51)*
//                                                parked per-shard sync
//   kAwaitPublish(0x60)  -> kPublishNotify(0x61) parked publish wait
//   any                  -> kError(0x7f)         typed rejection
//
// Every exchange is one request and its reply: the server never writes a
// frame it was not asked for. The one clock is the served snapshot's
// version, which moves on every publish. kAwaitPublish and kSnapshotFetch
// carry the same payload, an Await, and are *parked*: the server holds
// the reply until its version exceeds the request's `since` or
// min(wait_ms, kMaxParkMs) has passed, then answers with one
// kPublishNotify describing the snapshot it serves. A fetch continues
// with the catch-up stream (* = data chunks for each shard that moved
// since `since`, then a final chunk; see service/replication.h) when
// fetch_streams says so: always for an unparked fetch, so a replica
// reconnecting to an upstream that serves its version with other content
// is caught by the final chunk's checksum at once; otherwise whenever the
// served version is not `since`, so an upstream whose version went back
// (a restarted primary) still reaches the replica at the end of a park.
// A waiter that stops asking costs nothing; one that falls behind gets
// the newest state, never a backlog.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "service/backend.h"
#include "service/protocol.h"
#include "util/counters.h"
#include "util/table.h"

namespace fpss::net {

inline constexpr std::uint8_t kWireVersion = 5;
// "FPW1" read as little-endian u32.
inline constexpr std::uint32_t kWireMagic = 0x31575046u;
inline constexpr std::size_t kFrameHeaderBytes = 20;
/// Per-frame I/O deadline both ends use for reads and writes.
inline constexpr int kIoTimeoutMs = 5000;
/// The longest a server parks a kAwaitPublish or kSnapshotFetch. Shorter
/// than the I/O deadline, so a parked reply is never taken for a dead peer.
inline constexpr std::uint32_t kMaxParkMs = 1000;
static_assert(kMaxParkMs < kIoTimeoutMs);

enum class FrameType : std::uint8_t {
  kHello = 0x01,
  kHelloAck = 0x02,
  kQueryBatch = 0x10,
  kReplyBatch = 0x11,
  kCountersFetch = 0x20,
  kCountersReply = 0x21,
  kDeltaSubmit = 0x30,
  kDeltaAck = 0x31,
  kDrain = 0x40,
  kDrainReply = 0x41,
  kSnapshotFetch = 0x50,
  kSnapshotChunk = 0x51,
  kAwaitPublish = 0x60,
  kPublishNotify = 0x61,
  kError = 0x7f,
};

/// Error-frame codes (wire-reserved tags).
enum class WireStatus : std::uint8_t {
  kMalformed = 1,           ///< undecodable header/payload, bad checksum
  kOversized = 2,           ///< frame or batch exceeds the announced limits
  kUnsupportedVersion = 3,  ///< header version != kWireVersion
  kBadFrameType = 4,        ///< unknown or out-of-sequence frame type
  kShuttingDown = 5,        ///< server is draining; retry elsewhere/later
  /// The forwarding queue is full (a replica's bounded in-flight write
  /// path): the write was NOT applied; back off and retry.
  kOverloaded = 6,
  /// A forwarding replica could not reach any upstream within its retry
  /// budget: the write was NOT applied; the replica still serves reads
  /// from its last consistent cut.
  kUpstreamDown = 7,
};

/// Size/batch bounds both ends enforce. The server rejects (without
/// allocating) any frame beyond max_payload_bytes and any batch beyond
/// max_batch; the client uses the same limits for replies.
struct WireLimits {
  std::uint32_t max_payload_bytes = 1u << 20;
  std::uint32_t max_batch = 4096;
};

struct FrameHeader {
  FrameType type = FrameType::kError;
  std::uint32_t payload_bytes = 0;
  std::uint64_t checksum = 0;
};

/// Outcome of a header decode; `error` is empty on success. On failure
/// `status` carries the typed code the rejecting side should put in its
/// kError frame.
struct HeaderResult {
  FrameHeader header;
  WireStatus status = WireStatus::kMalformed;
  std::string error;
  bool ok() const { return error.empty(); }
};

/// Builds a complete frame (header + payload).
std::string encode_frame(FrameType type, std::string_view payload);

/// Validates magic/version/type/reserved/length against `limits`. Exactly
/// kFrameHeaderBytes must be passed; the payload has NOT been read yet —
/// this is the pre-allocation gate.
HeaderResult decode_frame_header(std::string_view header_bytes,
                                 const WireLimits& limits);

/// True when the payload has the header's length and its XXH64 (seed 0)
/// matches the header's checksum: the receiver's half of the frame gate.
bool payload_checksum_ok(const FrameHeader& header, std::string_view payload);

// --- control payloads ------------------------------------------------------

struct Hello {
  std::uint8_t wire_version = kWireVersion;
  std::uint32_t max_batch = 0;  ///< client's reply-batch capacity
};

struct HelloAck {
  std::uint8_t wire_version = kWireVersion;
  std::uint64_t node_count = 0;
  std::uint64_t snapshot_version = 0;
  std::uint32_t max_batch = 0;  ///< server's request-batch capacity
  /// Chain depth of the answering backend: 0 on a primary, upstream's
  /// hop + 1 on a replica.
  std::uint32_t hop_count = 0;
};

struct ErrorFrame {
  WireStatus code = WireStatus::kMalformed;
  std::string message;
};

std::string encode_hello(const Hello& hello);
bool decode_hello(std::string_view payload, Hello& out);
std::string encode_hello_ack(const HelloAck& ack);
bool decode_hello_ack(std::string_view payload, HelloAck& out);
std::string encode_error(const ErrorFrame& error);
bool decode_error(std::string_view payload, ErrorFrame& out);

/// kDrainReply carries one u64 (the served version).
std::string encode_u64(std::uint64_t value);
bool decode_u64(std::string_view payload, std::uint64_t& out);

/// kDeltaAck: the write acknowledgment. `publish_count` is the accepting
/// backend's served version *after* the write was applied and published —
/// on a forwarding chain every tier relays the primary's post-drain
/// version unchanged, so a caller at any depth can wait_for_publish_beyond
/// (publish_count - 1) against its local replica and then read its own
/// write.
struct DeltaAck {
  std::uint64_t accepted = 0;
  std::uint64_t publish_count = 0;
};

std::string encode_delta_ack(const DeltaAck& ack);
bool decode_delta_ack(std::string_view payload, DeltaAck& out);

// --- data payloads ---------------------------------------------------------

/// Requests: count:u32 then per request kind:u8 k:u32 i:u32 j:u32.
/// Unknown kind tags are carried through (the service answers kBadKind),
/// so old servers and new clients fail softly instead of at the codec.
std::string encode_requests(std::span<const service::Request> requests);

struct RequestsResult {
  std::vector<service::Request> requests;
  WireStatus status = WireStatus::kMalformed;
  std::string error;
  bool ok() const { return error.empty(); }
};
RequestsResult decode_requests(std::string_view payload,
                               std::uint32_t max_batch);

/// Replies: count:u32 then per reply status:u8 value:i64 amount:i64
/// node:u32 snapshot_version:u64 published_at:u64 age:u64 path_len:u32
/// path:u32*. Every field round-trips exactly (costs via the -1=inf
/// convention), which is what makes remote answers bit-identical.
std::string encode_replies(std::span<const service::Reply> replies);

struct RepliesResult {
  std::vector<service::Reply> replies;
  WireStatus status = WireStatus::kMalformed;
  std::string error;
  bool ok() const { return error.empty(); }
};
RepliesResult decode_replies(std::string_view payload,
                             const WireLimits& limits);

/// Deltas: count:u32 then per delta kind:u8 u:u32 v:u32 cost:i64, with
/// kind tags 1=cost_change 2=add_link 3=remove_link 4=republish.
std::string encode_deltas(
    std::span<const service::Delta> deltas);

struct DeltasResult {
  std::vector<service::Delta> deltas;
  WireStatus status = WireStatus::kMalformed;
  std::string error;
  bool ok() const { return error.empty(); }
};
DeltasResult decode_deltas(std::string_view payload, std::uint32_t max_batch);

// --- replication payloads --------------------------------------------------

/// The payload of a parked request, kAwaitPublish or kSnapshotFetch:
/// answer once the served version exceeds `since`, or after
/// min(wait_ms, kMaxParkMs). `wait_ms` = 0 answers at once.
///
/// For a fetch, `since` is also the whole sync state: the version the
/// requester serves, 0 for none. If the notify streams (fetch_streams),
/// the server sends the data chunks of every shard whose version is above
/// `since` (every shard when `since` is 0 or above the served version),
/// then the final chunk.
/// Payload: since:u64 | wait_ms:u32.
struct Await {
  std::uint64_t since = 0;
  std::uint32_t wait_ms = 0;
};

std::string encode_await(const Await& await);
bool decode_await(std::string_view payload, Await& out);

/// kPublishNotify: the reply to a parked request — the version and
/// publish stamp of the snapshot the server serves, both from one read,
/// or zeros before its first publish. The version is the clock.
/// Payload: snapshot_version:u64 | published_at_ns:u64.
struct PublishNotify {
  std::uint64_t snapshot_version = 0;
  std::uint64_t published_at_ns = 0;
};

std::string encode_publish_notify(const PublishNotify& notify);
bool decode_publish_notify(std::string_view payload, PublishNotify& out);

/// Whether the catch-up stream follows a fetch's notify: the server serves
/// a snapshot, and the fetch was not parked (a connection's first, which
/// must check the requester's content against the served checksum) or the
/// served version is not the fetch's `since`.
inline bool fetch_streams(const PublishNotify& notify, const Await& await) {
  return notify.snapshot_version != 0 &&
         (await.wait_ms == 0 || notify.snapshot_version != await.since);
}

/// One peer's (client address's) accumulated server-side accounting —
/// the ROADMAP's per-client counters. `peer` is the textual remote
/// address (IPv4 dotted quad); a server that cannot resolve it, or whose
/// peer table overflowed, accounts under "(other)".
struct PeerCounters {
  std::string peer;
  std::uint64_t connections = 0;
  std::uint64_t queries = 0;          ///< individual requests answered
  std::uint64_t batches = 0;          ///< query batches served
  std::uint64_t rejected_frames = 0;  ///< typed kError rejections sent

  /// Frame order; see util/counters.h.
  static constexpr auto fields() {
    return std::to_array<util::CounterField<PeerCounters>>({
        {"connections", &PeerCounters::connections},
        {"queries", &PeerCounters::queries},
        {"batches", &PeerCounters::batches},
        {"rejected_frames", &PeerCounters::rejected_frames},
    });
  }
};
static_assert(util::counters_complete<PeerCounters>(sizeof(std::string)));

/// net::RouteServer's own frame-level totals. Lives here (not in
/// server.h) because the counters frame carries it and server.h already
/// includes wire.h.
struct ServerCounters {
  std::uint64_t connections = 0;
  std::uint64_t frames = 0;           ///< well-formed frames served
  std::uint64_t batches = 0;          ///< query batches answered
  std::uint64_t rejected_frames = 0;  ///< header/payload validation failures
  std::uint64_t timeouts = 0;         ///< connections dropped mid-frame

  /// Frame order; see util/counters.h.
  static constexpr auto fields() {
    return std::to_array<util::CounterField<ServerCounters>>({
        {"connections", &ServerCounters::connections},
        {"frames", &ServerCounters::frames},
        {"batches", &ServerCounters::batches},
        {"rejected_frames", &ServerCounters::rejected_frames},
        {"timeouts", &ServerCounters::timeouts},
    });
  }
};
static_assert(util::counters_complete<ServerCounters>());

/// The replica section of the counters frame (defined with the backend
/// interface, which serves it).
using ReplicaCounters = service::ReplicaCounters;

/// What a kCountersReply carries: the service's counters, the serving
/// daemon's own frame totals and per-peer breakdown, and (from a replica
/// daemon) the replication counters.
struct CountersFrame {
  service::Counters service;
  ServerCounters server;
  std::vector<PeerCounters> peers;  ///< sorted by peer address
  ReplicaCounters replica;
  bool has_replica = false;
};

/// Counters payload. Each record is its fields() table in order, one u64
/// per field:
///
///   service | server | peer_count:u32 (addr_len:u32 addr peer)*
///   | presence:u8 (0 or 1) | replica (iff presence is 1)
///
/// The decoder accepts exactly what the encoder writes: every truncation,
/// trailing byte or presence value above 1 is rejected.
std::string encode_counters(const CountersFrame& frame);
bool decode_counters(std::string_view payload, CountersFrame& out);

/// The frame as rows of `section.name  value`, one per field: sections
/// service, server, peer[<address>] per peer, and replica when present.
util::Table counters_table(const CountersFrame& frame);

}  // namespace fpss::net
