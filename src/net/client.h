// net::RouteClient: the typed client side of fpss-wire v5.
//
// connect() dials with retry-and-backoff and runs the Hello/HelloAck
// exchange, after which the server's node count and snapshot version are
// known. Calling it again is how a long-lived caller reuses a connection:
// it returns at once while the connection is live, and re-dials one the
// server closed while it sat idle. query() is the blocking convenience;
// send()/receive() expose the same exchange split in two so a caller can
// pipeline several batches on one connection (the server answers frames
// strictly in order, so replies come back FIFO). Every operation is one
// request and its reply, parked ones included (await_publish,
// fetch_snapshot), so any operation may follow any other on the same
// connection. Replies are read through the connection's fixed receive
// buffer (net/socket_io.h), so a reply frame, or several pipelined ones,
// usually costs one recv.
//
// Errors are values, not exceptions: every operation fills a result whose
// ClientStatus says what layer failed (connect, I/O timeout, protocol,
// or a typed server rejection with the server's WireStatus + message).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/socket_io.h"
#include "net/wire.h"
#include "service/backend.h"
#include "service/protocol.h"
#include "service/replication.h"

namespace fpss::net {

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// connect(): total attempts (1 = no retry).
  unsigned connect_attempts = 3;
  /// Backoff before attempt k is backoff_ms << (k-1), capped at 1s.
  int backoff_ms = 50;
  WireLimits limits;
};

enum class ClientStatus : std::uint8_t {
  kOk = 0,
  kNotConnected,    ///< operation before connect() / after close()
  kConnectFailed,   ///< all dial attempts exhausted
  kTimeout,         ///< frame I/O deadline expired
  kConnectionLost,  ///< EOF or socket error mid-exchange
  kProtocolError,   ///< undecodable frame (bad header, checksum, payload)
  /// A well-formed frame of the wrong type for this point in the
  /// exchange — the stream desynced (a pipelining bug or a confused
  /// server), as opposed to kProtocolError's byte-level corruption. The
  /// connection is closed either way, but callers can tell "the bytes
  /// were garbage" from "the conversation got out of step".
  kUnexpectedFrame,
  kServerError,     ///< server sent a typed kError frame (see wire_status)
};

const char* to_string(ClientStatus status);

struct ClientError {
  ClientStatus status = ClientStatus::kOk;
  /// Set when status == kServerError: the server's rejection code.
  std::optional<WireStatus> wire_status;
  std::string message;
  bool ok() const { return status == ClientStatus::kOk; }
};

struct QueryResult {
  ClientError error;
  std::vector<service::Reply> replies;
  bool ok() const { return error.ok(); }
};

struct CountersResult {
  ClientError error;
  CountersFrame frame;
  bool ok() const { return error.ok(); }
};

struct U64Result {
  ClientError error;
  std::uint64_t value = 0;
  bool ok() const { return error.ok(); }
};

/// Write acknowledgment. `publish_count` is the primary's version after
/// the write published (relayed unchanged through forwarding replicas);
/// wait_for_publish_beyond(publish_count - 1) against any tier then
/// guarantees reading your own write.
struct SubmitResult {
  ClientError error;
  std::uint64_t accepted = 0;
  std::uint64_t publish_count = 0;
  bool ok() const { return error.ok(); }
};

/// Receives one kSnapshotChunk payload of a fetch, in arrival order (data
/// chunks then the final chunk); false rejects it and ends the fetch. The
/// same sink type the server's encode_stream writes into.
using ChunkSink = service::ReplicationCodec::ChunkSink;

/// One kSnapshotFetch exchange, as seen on the wire. The client validates
/// framing only; reassembly and content validation are the sink's job
/// (service::ReplicationCodec::Assembler::feed for a replica).
struct SnapshotFetchResult {
  ClientError error;
  PublishNotify notify;      ///< the server's state when the park ended
  bool streamed = false;     ///< fetch_streams(notify, await); chunks followed
  std::uint64_t chunks = 0;  ///< kSnapshotChunk frames received
  std::uint64_t bytes = 0;   ///< total chunk payload bytes received
  bool ok() const { return error.ok(); }
};

struct NotifyResult {
  ClientError error;
  PublishNotify notify;
  bool ok() const { return error.ok(); }
};

class RouteClient {
 public:
  explicit RouteClient(ClientConfig config = {});
  ~RouteClient();

  RouteClient(const RouteClient&) = delete;
  RouteClient& operator=(const RouteClient&) = delete;

  /// Dials (with backoff across attempts) and performs the hello
  /// handshake. Returns at once while connected, unless the server has
  /// closed the connection (its socket reads EOF) and no reply is
  /// outstanding on it: that connection is closed and re-dialed. Nothing
  /// was sent on it, so no request is lost; a request that fails after it
  /// was sent still fails.
  ClientError connect();
  bool connected() const { return fd_ >= 0; }
  void close();

  // Learned from the HelloAck; valid after a successful connect().
  std::uint64_t server_node_count() const { return node_count_; }
  std::uint64_t server_snapshot_version() const { return snapshot_version_; }
  std::uint32_t server_max_batch() const { return server_max_batch_; }
  /// Chain depth of the server's backend: 0 = primary, n = n hops from it.
  std::uint32_t server_hop_count() const { return hop_count_; }

  /// One blocking request/reply exchange (send + receive).
  QueryResult query(std::span<const service::Request> batch);

  /// Pipelining: enqueue a batch without waiting for its reply. Replies
  /// arrive in submission order via receive(). outstanding() counts
  /// batches sent but not yet received.
  ClientError send(std::span<const service::Request> batch);
  QueryResult receive();
  std::size_t outstanding() const { return outstanding_; }

  CountersResult counters();
  /// Submits topology deltas. A replica with forwarding enabled relays
  /// them upstream; a rejection surfaces as kServerError with wire_status
  /// kOverloaded (back-pressure) or kUpstreamDown (no upstream reachable).
  SubmitResult submit_deltas(
      std::span<const service::Delta> deltas);
  /// Blocks until the server's updater has drained; value = served version.
  U64Result drain();

  /// Parked per-shard snapshot transfer: the server holds the request as
  /// `await` says, then replies with a notify. If fetch_streams(notify,
  /// await) holds (the fetch was not parked, or the notify names a served
  /// version other than `await.since`), the stream follows: the shards
  /// that moved after `await.since` (every shard when it is 0), then the
  /// final chunk, each payload going to `sink` as it arrives. Nothing is
  /// buffered beyond one frame. The first chunk `sink` rejects stops the
  /// fetch with kProtocolError and closes the connection unread.
  SnapshotFetchResult fetch_snapshot(const Await& await,
                                     const ChunkSink& sink);

  /// Parked publish wait: the reply comes once the server's served version
  /// exceeds `await.since` or min(wait_ms, kMaxParkMs) has passed, and
  /// carries the version either way.
  NotifyResult await_publish(const Await& await);

 private:
  ClientError dial_once();
  ClientError handshake();
  /// Sends one frame; on failure the connection is closed.
  ClientError send_frame(FrameType type, std::string_view payload);
  /// Reads one frame, decoding a kError frame into kServerError. On any
  /// failure the connection is closed (a desynced stream is unusable).
  ClientError receive_frame(FrameType expected, std::string& payload);
  /// receive_frame for a kPublishNotify, decoded into `out`.
  ClientError receive_notify(PublishNotify& out);

  ClientConfig config_;
  int fd_ = -1;
  std::uint64_t node_count_ = 0;
  std::uint64_t snapshot_version_ = 0;
  std::uint32_t server_max_batch_ = 0;
  std::uint32_t hop_count_ = 0;
  std::size_t outstanding_ = 0;
  /// The connection's wait history for read_exact: whether its last reply
  /// began arriving within kSpinWindow. False on a fresh connection.
  bool spin_ = false;
  /// Bytes received ahead of the reply being read; close() clears it.
  RecvBuffer buffered_;
};

}  // namespace fpss::net
