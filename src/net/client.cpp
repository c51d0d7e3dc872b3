#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "service/replication.h"

namespace fpss::net {

namespace {

using Clock = std::chrono::steady_clock;

int next_slice_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  if (left <= 0) return 0;
  return static_cast<int>(left < 100 ? left : 100);
}

enum class IoResult { kOk, kClosed, kTimeout, kError };

IoResult read_exact(int fd, char* buffer, std::size_t want, int timeout_ms) {
  std::size_t got = 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (got < want) {
    pollfd pfd{fd, POLLIN, 0};
    const int slice = next_slice_ms(deadline);
    if (slice == 0) return IoResult::kTimeout;
    const int ready = ::poll(&pfd, 1, slice);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return IoResult::kError;
    }
    if (ready == 0) continue;
    const ssize_t n = ::recv(fd, buffer + got, want - got, 0);
    if (n == 0) return IoResult::kClosed;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return IoResult::kError;
    }
    got += static_cast<std::size_t>(n);
  }
  return IoResult::kOk;
}

bool write_all(int fd, std::string_view bytes, int timeout_ms) {
  std::size_t sent = 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (sent < bytes.size()) {
    pollfd pfd{fd, POLLOUT, 0};
    const int slice = next_slice_ms(deadline);
    if (slice == 0) return false;
    const int ready = ::poll(&pfd, 1, slice);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (ready == 0) continue;
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

ClientError make_error(ClientStatus status, std::string message) {
  ClientError e;
  e.status = status;
  e.message = std::move(message);
  return e;
}

}  // namespace

const char* to_string(ClientStatus status) {
  switch (status) {
    case ClientStatus::kOk:
      return "ok";
    case ClientStatus::kNotConnected:
      return "not connected";
    case ClientStatus::kConnectFailed:
      return "connect failed";
    case ClientStatus::kTimeout:
      return "timeout";
    case ClientStatus::kConnectionLost:
      return "connection lost";
    case ClientStatus::kProtocolError:
      return "protocol error";
    case ClientStatus::kUnexpectedFrame:
      return "unexpected frame type";
    case ClientStatus::kServerError:
      return "server error";
  }
  return "unknown";
}

RouteClient::RouteClient(ClientConfig config) : config_(std::move(config)) {
  if (config_.connect_attempts == 0) config_.connect_attempts = 1;
}

RouteClient::~RouteClient() { close(); }

void RouteClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  outstanding_ = 0;
  subscribed_ = false;
}

ClientError RouteClient::dial_once() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    return make_error(ClientStatus::kConnectFailed,
                      std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return make_error(ClientStatus::kConnectFailed,
                      "bad server address: " + config_.host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    return make_error(ClientStatus::kConnectFailed,
                      "connect " + config_.host + ":" +
                          std::to_string(config_.port) + ": " + reason);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return {};
}

ClientError RouteClient::connect() {
  if (connected()) return {};
  ClientError last;
  int backoff = config_.backoff_ms;
  for (unsigned attempt = 1; attempt <= config_.connect_attempts; ++attempt) {
    if (attempt > 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = backoff < 500 ? backoff * 2 : 1000;
    }
    last = dial_once();
    if (last.ok()) {
      last = handshake();
      if (last.ok()) return {};
      // A refused handshake (e.g. version mismatch) will not improve with
      // retries of the same client; report it as-is.
      return last;
    }
  }
  return last;
}

ClientError RouteClient::handshake() {
  Hello hello;
  hello.wire_version = kWireVersion;
  hello.max_batch = config_.limits.max_batch;
  ClientError err = send_frame(FrameType::kHello, encode_hello(hello));
  if (!err.ok()) return err;
  std::string payload;
  err = receive_frame(FrameType::kHelloAck, payload);
  if (!err.ok()) return err;
  HelloAck ack;
  if (!decode_hello_ack(payload, ack)) {
    close();
    return make_error(ClientStatus::kProtocolError, "bad hello ack payload");
  }
  node_count_ = ack.node_count;
  snapshot_version_ = ack.snapshot_version;
  server_max_batch_ = ack.max_batch;
  hop_count_ = ack.hop_count;
  return {};
}

ClientError RouteClient::send_frame(FrameType type, std::string_view payload) {
  if (!connected())
    return make_error(ClientStatus::kNotConnected, "send before connect()");
  if (subscribed_ && type != FrameType::kSubscribe)
    return make_error(ClientStatus::kUnexpectedFrame,
                      "connection is subscribed; only await_notify() is valid");
  const std::string frame = encode_frame(type, payload);
  if (!write_all(fd_, frame, config_.io_timeout_ms)) {
    close();
    return make_error(ClientStatus::kTimeout, "frame send timed out");
  }
  return {};
}

ClientError RouteClient::receive_frame(FrameType expected,
                                       std::string& payload) {
  if (!connected())
    return make_error(ClientStatus::kNotConnected, "receive before connect()");
  char header_bytes[kFrameHeaderBytes];
  switch (read_exact(fd_, header_bytes, kFrameHeaderBytes,
                     config_.io_timeout_ms)) {
    case IoResult::kOk:
      break;
    case IoResult::kTimeout:
      close();
      return make_error(ClientStatus::kTimeout, "reply header timed out");
    case IoResult::kClosed:
      close();
      return make_error(ClientStatus::kConnectionLost,
                        "server closed the connection");
    case IoResult::kError:
      close();
      return make_error(ClientStatus::kConnectionLost,
                        std::string("recv: ") + std::strerror(errno));
  }
  const HeaderResult head = decode_frame_header(
      std::string_view(header_bytes, kFrameHeaderBytes), config_.limits);
  if (!head.ok()) {
    close();
    return make_error(ClientStatus::kProtocolError, head.error);
  }
  payload.assign(head.header.payload_bytes, '\0');
  if (head.header.payload_bytes > 0) {
    const IoResult io = read_exact(fd_, payload.data(), payload.size(),
                                   config_.io_timeout_ms);
    if (io != IoResult::kOk) {
      close();
      return make_error(io == IoResult::kTimeout ? ClientStatus::kTimeout
                                                 : ClientStatus::kConnectionLost,
                        "reply payload truncated");
    }
  }
  if (!payload_checksum_ok(head.header, payload)) {
    close();
    return make_error(ClientStatus::kProtocolError,
                      "reply payload checksum mismatch");
  }
  if (head.header.type == FrameType::kError) {
    ErrorFrame server_error;
    ClientError err = make_error(ClientStatus::kServerError, "server error");
    if (decode_error(payload, server_error)) {
      err.wire_status = server_error.code;
      err.message = server_error.message;
    }
    close();  // the server closes after an error frame; mirror it
    return err;
  }
  if (head.header.type != expected) {
    // The frame itself is well-formed; the *sequence* is wrong. Typed
    // distinctly from byte-level corruption so callers can tell a desynced
    // pipeline from a corrupt stream; the connection still closes (an
    // out-of-step stream cannot be resynchronized).
    close();
    return make_error(ClientStatus::kUnexpectedFrame,
                      "unexpected frame type in reply");
  }
  return {};
}

QueryResult RouteClient::query(std::span<const service::Request> batch) {
  QueryResult result;
  result.error = send(batch);
  if (!result.error.ok()) return result;
  return receive();
}

ClientError RouteClient::send(std::span<const service::Request> batch) {
  ClientError err = send_frame(FrameType::kQueryBatch, encode_requests(batch));
  if (err.ok()) ++outstanding_;
  return err;
}

QueryResult RouteClient::receive() {
  QueryResult result;
  if (outstanding_ == 0) {
    result.error =
        make_error(ClientStatus::kProtocolError, "receive() with no batch outstanding");
    return result;
  }
  std::string payload;
  result.error = receive_frame(FrameType::kReplyBatch, payload);
  // Counted down even on failure: the connection is closed and the
  // pipeline is gone either way.
  --outstanding_;
  if (!result.error.ok()) return result;
  RepliesResult replies = decode_replies(payload, config_.limits);
  if (!replies.ok()) {
    close();
    result.error = make_error(ClientStatus::kProtocolError, replies.error);
    return result;
  }
  result.replies = std::move(replies.replies);
  return result;
}

CountersResult RouteClient::counters() {
  CountersResult result;
  result.error = send_frame(FrameType::kCountersFetch, {});
  if (!result.error.ok()) return result;
  std::string payload;
  result.error = receive_frame(FrameType::kCountersReply, payload);
  if (!result.error.ok()) return result;
  if (!decode_counters(payload, result.frame)) {
    close();
    result.error =
        make_error(ClientStatus::kProtocolError, "bad counters payload");
  }
  return result;
}

SubmitResult RouteClient::submit_deltas(
    std::span<const service::Delta> deltas) {
  SubmitResult result;
  result.error = send_frame(FrameType::kDeltaSubmit, encode_deltas(deltas));
  if (!result.error.ok()) return result;
  std::string payload;
  result.error = receive_frame(FrameType::kDeltaAck, payload);
  if (!result.error.ok()) return result;
  DeltaAck ack;
  if (!decode_delta_ack(payload, ack)) {
    close();
    result.error =
        make_error(ClientStatus::kProtocolError, "bad delta ack payload");
    return result;
  }
  result.accepted = ack.accepted;
  result.publish_count = ack.publish_count;
  return result;
}

U64Result RouteClient::drain() {
  U64Result result;
  result.error = send_frame(FrameType::kDrain, {});
  if (!result.error.ok()) return result;
  std::string payload;
  result.error = receive_frame(FrameType::kDrainReply, payload);
  if (!result.error.ok()) return result;
  if (!decode_u64(payload, result.value)) {
    close();
    result.error =
        make_error(ClientStatus::kProtocolError, "bad drain reply payload");
  }
  return result;
}

SnapshotFetchResult RouteClient::fetch_snapshot(
    std::span<const std::uint64_t> known_shard_versions,
    const ChunkSink& sink) {
  SnapshotFetchResult result;
  result.error = send_frame(FrameType::kSnapshotFetch,
                            encode_shard_versions(known_shard_versions));
  if (!result.error.ok()) return result;
  // The response streams until a final chunk (kind byte 2). The sink
  // bounds it: a replica's Assembler accepts each destination once, so a
  // server repeating or inventing chunks is cut off at the first bad one.
  for (;;) {
    std::string payload;
    result.error = receive_frame(FrameType::kSnapshotChunk, payload);
    if (!result.error.ok()) return result;
    ++result.chunks;
    result.bytes += payload.size();
    if (!sink(payload)) {
      close();
      result.error = make_error(ClientStatus::kProtocolError,
                                "snapshot chunk rejected");
      return result;
    }
    if (!payload.empty() && static_cast<std::uint8_t>(payload[0]) ==
                                service::ReplicationCodec::kFinalChunk)
      return result;
  }
}

NotifyResult RouteClient::subscribe(std::uint64_t since) {
  NotifyResult result;
  result.error = send_frame(FrameType::kSubscribe, encode_u64(since));
  if (!result.error.ok()) return result;
  // The ack is the first notify, pushed immediately.
  std::string payload;
  result.error = receive_frame(FrameType::kPublishNotify, payload);
  if (!result.error.ok()) return result;
  if (!decode_publish_notify(payload, result.notify)) {
    close();
    result.error =
        make_error(ClientStatus::kProtocolError, "bad publish notify payload");
    return result;
  }
  subscribed_ = true;
  return result;
}

NotifyResult RouteClient::await_notify(int wait_ms) {
  NotifyResult result;
  if (!connected()) {
    result.error =
        make_error(ClientStatus::kNotConnected, "await before connect()");
    return result;
  }
  if (!subscribed_) {
    result.error = make_error(ClientStatus::kUnexpectedFrame,
                              "await_notify() without a subscription");
    return result;
  }
  // Pre-poll before touching receive_frame: a quiet wire is the normal
  // case and must not close the subscription the way a mid-frame timeout
  // would.
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, wait_ms < 0 ? 0 : wait_ms);
  if (ready == 0) {
    result.error = make_error(ClientStatus::kTimeout, "no notify yet");
    return result;
  }
  if (ready < 0) {
    close();
    result.error = make_error(ClientStatus::kConnectionLost,
                              std::string("poll: ") + std::strerror(errno));
    return result;
  }
  std::string payload;
  result.error = receive_frame(FrameType::kPublishNotify, payload);
  if (!result.error.ok()) return result;
  if (!decode_publish_notify(payload, result.notify)) {
    close();
    result.error =
        make_error(ClientStatus::kProtocolError, "bad publish notify payload");
  }
  return result;
}

}  // namespace fpss::net
