#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "service/replication.h"

namespace fpss::net {

namespace {

enum class IoResult {
  kOk,
  kClosed,   ///< orderly EOF before the first byte
  kTimeout,  ///< deadline expired mid-read
  kStopped,  ///< server shutdown while idle between frames
  kError,    ///< socket error
};

using Clock = std::chrono::steady_clock;

/// Remaining budget in ms, clipped to the 100ms poll slice that keeps
/// shutdown responsive.
int next_slice_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  if (left <= 0) return 0;
  return static_cast<int>(left < 100 ? left : 100);
}

/// Reads exactly `want` bytes. While still at byte zero the stop flag
/// aborts the wait (the worker is idle between frames); once a frame has
/// started arriving only the deadline can abort it — that is what lets a
/// graceful shutdown finish in-flight frames.
IoResult read_exact(int fd, char* buffer, std::size_t want, int timeout_ms,
                    const std::atomic<bool>& stopping) {
  std::size_t got = 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (got < want) {
    if (got == 0 && stopping.load(std::memory_order_relaxed))
      return IoResult::kStopped;
    pollfd pfd{fd, POLLIN, 0};
    const int slice = next_slice_ms(deadline);
    if (slice == 0) return IoResult::kTimeout;
    const int ready = ::poll(&pfd, 1, slice);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return IoResult::kError;
    }
    if (ready == 0) continue;  // slice elapsed; re-check flags
    const ssize_t n = ::recv(fd, buffer + got, want - got, 0);
    if (n == 0) return got == 0 ? IoResult::kClosed : IoResult::kError;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return IoResult::kError;
    }
    got += static_cast<std::size_t>(n);
  }
  return IoResult::kOk;
}

/// Writes the whole buffer or gives up at the deadline (a peer that never
/// reads must not pin a worker).
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

}  // namespace

RouteServer::RouteServer(service::Backend& backend, ServerConfig config)
    : backend_(backend), config_(std::move(config)) {
  if (config_.workers == 0) config_.workers = 1;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    error_ = "bad listen address: " + config_.host;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    error_ = "bind " + config_.host + ":" + std::to_string(config_.port) +
             ": " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  if (::listen(listen_fd_, 64) != 0) {
    error_ = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  workers_.reserve(config_.workers);
  for (unsigned w = 0; w < config_.workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
  acceptor_ = std::thread([this] { accept_loop(); });
}

RouteServer::~RouteServer() { stop(); }

void RouteServer::stop() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    // Unblocks the acceptor's accept(2); new connections are refused from
    // here on while workers serve out what they already hold.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    // The stop flag was written without the queue mutex; take and drop the
    // lock before notifying so a worker that just evaluated its wait
    // condition as "keep sleeping" cannot block *after* this notify and
    // miss it (the classic lost wakeup — stop() would hang in join below).
    util::MutexLock lock(queue_mutex_);
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // Connections accepted but never picked up by a worker.
  util::MutexLock lock(queue_mutex_);
  for (const int fd : pending_) ::close(fd);
  pending_.clear();
}

RouteServer::Stats RouteServer::stats() const {
  Stats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.frames = frames_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.rejected_frames = rejected_frames_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  util::MutexLock lock(peers_mutex_);
  s.peers.reserve(peers_.size());
  for (const auto& [peer, tally] : peers_) {
    PeerCounters counters;
    counters.peer = peer;
    counters.connections = tally.connections;
    counters.queries = tally.queries;
    counters.batches = tally.batches;
    counters.rejected_frames = tally.rejected_frames;
    s.peers.push_back(std::move(counters));
  }
  return s;
}

RouteServer::PeerTally& RouteServer::peer_tally(const std::string& peer) {
  const auto found = peers_.find(peer);
  if (found != peers_.end()) return found->second;
  if (peers_.size() >= kMaxPeers) return peers_["(other)"];
  return peers_[peer];
}

void RouteServer::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener shut down (or unrecoverable)
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    {
      util::MutexLock lock(queue_mutex_);
      pending_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void RouteServer::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      util::MutexLock lock(queue_mutex_);
      while (pending_.empty() && !stopping_.load(std::memory_order_relaxed))
        queue_cv_.wait(lock);
      if (pending_.empty()) return;  // stopping, nothing left to serve
      fd = pending_.front();
      pending_.pop_front();
    }
    serve_connection(fd);
  }
}

void RouteServer::serve_connection(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // The accounting key: the peer's address. Ports are ephemeral, so the
  // per-peer table aggregates by host — reconnects accumulate.
  std::string peer = "(other)";
  sockaddr_in remote{};
  socklen_t remote_len = sizeof(remote);
  char addr[INET_ADDRSTRLEN];
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&remote), &remote_len) ==
          0 &&
      remote.sin_family == AF_INET &&
      ::inet_ntop(AF_INET, &remote.sin_addr, addr, sizeof(addr)) != nullptr) {
    peer = addr;
  }
  {
    util::MutexLock lock(peers_mutex_);
    peer_tally(peer).connections += 1;
  }
  while (serve_frame(fd, peer)) {
  }
  ::close(fd);
}

bool RouteServer::send_error(int fd, const std::string& peer, WireStatus code,
                             const std::string& message) {
  rejected_frames_.fetch_add(1, std::memory_order_relaxed);
  {
    util::MutexLock lock(peers_mutex_);
    peer_tally(peer).rejected_frames += 1;
  }
  const std::string frame =
      encode_frame(FrameType::kError, encode_error({code, message}));
  write_all(fd, frame, config_.read_timeout_ms);
  return false;  // protocol errors always close the connection
}

bool RouteServer::serve_frame(int fd, const std::string& peer) {
  // 1. Header: fixed 20 bytes, validated before the payload is allocated.
  char header_bytes[kFrameHeaderBytes];
  switch (read_exact(fd, header_bytes, kFrameHeaderBytes,
                     config_.read_timeout_ms, stopping_)) {
    case IoResult::kOk:
      break;
    case IoResult::kClosed:   // peer finished; normal end of connection
    case IoResult::kStopped:  // shutdown while idle between frames
      return false;
    case IoResult::kTimeout:
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      return false;
    case IoResult::kError:
      return false;
  }
  const HeaderResult head = decode_frame_header(
      std::string_view(header_bytes, kFrameHeaderBytes), config_.limits);
  if (!head.ok()) return send_error(fd, peer, head.status, head.error);

  // 2. Payload: size is now known-bounded, so allocating is safe.
  std::string payload(head.header.payload_bytes, '\0');
  if (head.header.payload_bytes > 0) {
    switch (read_exact(fd, payload.data(), payload.size(),
                       config_.read_timeout_ms, stopping_)) {
      case IoResult::kOk:
        break;
      case IoResult::kTimeout:
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        return false;
      default:
        return false;
    }
  }
  if (!payload_checksum_ok(head.header, payload))
    return send_error(fd, peer, WireStatus::kMalformed, "payload checksum mismatch");

  // 3. Dispatch. From here the frame is served to completion even if a
  //    shutdown starts concurrently — that is the drain guarantee.
  std::string reply_frame;
  switch (head.header.type) {
    case FrameType::kHello: {
      Hello hello;
      if (!decode_hello(payload, hello))
        return send_error(fd, peer, WireStatus::kMalformed, "bad hello payload");
      if (hello.wire_version != kWireVersion)
        return send_error(fd, peer, WireStatus::kUnsupportedVersion,
                          "client wire version " +
                              std::to_string(hello.wire_version) +
                              " unsupported");
      // Node count and version from one snapshot read, never two.
      const auto snap = backend_.snapshot();
      HelloAck ack;
      ack.wire_version = kWireVersion;
      ack.node_count = snap == nullptr ? 0 : snap->node_count();
      ack.snapshot_version = snap == nullptr ? 0 : snap->version();
      ack.max_batch = config_.limits.max_batch;
      ack.hop_count = backend_.hop_count();
      reply_frame = encode_frame(FrameType::kHelloAck, encode_hello_ack(ack));
      break;
    }
    case FrameType::kQueryBatch: {
      const RequestsResult batch =
          decode_requests(payload, config_.limits.max_batch);
      if (!batch.ok()) return send_error(fd, peer, batch.status, batch.error);
      const std::vector<service::Reply> replies = backend_.query(
          std::span<const service::Request>(batch.requests));
      batches_.fetch_add(1, std::memory_order_relaxed);
      {
        util::MutexLock lock(peers_mutex_);
        PeerTally& tally = peer_tally(peer);
        tally.queries += batch.requests.size();
        tally.batches += 1;
      }
      reply_frame =
          encode_frame(FrameType::kReplyBatch, encode_replies(replies));
      break;
    }
    case FrameType::kCountersFetch: {
      ReplicaCounters replica;
      const bool is_replica = backend_.replica_counters(replica);
      reply_frame = encode_frame(
          FrameType::kCountersReply,
          encode_counters(backend_.counters(), stats(),
                          is_replica ? &replica : nullptr));
      break;
    }
    case FrameType::kDeltaSubmit: {
      if (!config_.allow_deltas)
        return send_error(fd, peer, WireStatus::kBadFrameType,
                          "delta submission disabled on this server");
      const DeltasResult deltas =
          decode_deltas(payload, config_.limits.max_batch);
      if (!deltas.ok()) return send_error(fd, peer, deltas.status, deltas.error);
      const service::SubmitAck outcome = backend_.submit_deltas(deltas.deltas);
      using Status = service::SubmitAck::Status;
      switch (outcome.status) {
        case Status::kOk:
          break;
        case Status::kReadOnly:
          return send_error(fd, peer, WireStatus::kBadFrameType,
                            outcome.error);
        case Status::kOverloaded:
          return send_error(fd, peer, WireStatus::kOverloaded, outcome.error);
        case Status::kUnavailable:
        case Status::kFailed:
          return send_error(fd, peer, WireStatus::kUpstreamDown,
                            outcome.error);
      }
      DeltaAck ack;
      ack.accepted = outcome.accepted;
      ack.publish_count = outcome.publish_count;
      reply_frame = encode_frame(FrameType::kDeltaAck, encode_delta_ack(ack));
      break;
    }
    case FrameType::kDrain: {
      reply_frame =
          encode_frame(FrameType::kDrainReply, encode_u64(backend_.drain()));
      break;
    }
    case FrameType::kSnapshotFetch: {
      const ShardVersionsResult fetch = decode_shard_versions(payload);
      if (!fetch.ok()) return send_error(fd, peer, fetch.status, fetch.error);
      frames_.fetch_add(1, std::memory_order_relaxed);
      return serve_snapshot_fetch(fd, peer, fetch.versions);
    }
    case FrameType::kSubscribe: {
      std::uint64_t since = 0;
      if (!decode_u64(payload, since))
        return send_error(fd, peer, WireStatus::kMalformed,
                          "bad subscribe payload");
      frames_.fetch_add(1, std::memory_order_relaxed);
      return serve_subscription(fd, since);
    }
    default:
      // Server-to-client types (HelloAck, ReplyBatch, ...) and kError are
      // never valid requests.
      return send_error(fd, peer, WireStatus::kBadFrameType,
                        "frame type not valid as a request");
  }

  if (!write_all(fd, reply_frame, config_.read_timeout_ms)) return false;
  frames_.fetch_add(1, std::memory_order_relaxed);
  // Stop taking new frames once shutdown began; the reply above completes
  // the in-flight exchange.
  return !stopping_.load(std::memory_order_relaxed);
}

bool RouteServer::serve_snapshot_fetch(
    int fd, const std::string& peer,
    const std::vector<std::uint64_t>& known) {
  // The cut pins the snapshot it streams, so a replica backend swapping its
  // store mid-transfer cannot pull the data out from under the stream.
  const service::ShardedSnapshotStore::ExportCut cut = backend_.export_cut();
  if (cut.newest == nullptr)
    return send_error(fd, peer, WireStatus::kShuttingDown,
                      "no snapshot published yet");
  const std::size_t shard_count = cut.shard_versions.size();
  // The dirty set: shards whose version moved since the replica's last
  // sync. A version vector of the wrong length (including the empty one a
  // bootstrap sends) cannot be compared per shard, so everything is dirty.
  const bool full = known.size() != shard_count;
  std::vector<std::uint32_t> dirty;
  for (std::size_t s = 0; s < shard_count; ++s)
    if (full || known[s] != cut.shard_versions[s])
      dirty.push_back(static_cast<std::uint32_t>(s));

  bool oversized = false;
  const bool streamed = service::ReplicationCodec::encode_stream(
      *cut.newest, cut.shard_versions, dirty, [&](std::string_view chunk) {
        if (chunk.size() > config_.limits.max_payload_bytes) {
          oversized = true;
          return false;
        }
        if (!write_all(fd, encode_frame(FrameType::kSnapshotChunk, chunk),
                       config_.read_timeout_ms))
          return false;
        frames_.fetch_add(1, std::memory_order_relaxed);
        return true;
      });
  if (oversized)
    return send_error(fd, peer, WireStatus::kOversized,
                      "snapshot chunk exceeds the frame payload limit");
  return streamed && !stopping_.load(std::memory_order_relaxed);
}

bool RouteServer::serve_subscription(int fd, std::uint64_t since) {
  // The connection is now a push channel: this worker is pinned to it
  // until the peer closes, a write fails, or the server stops. The notify
  // "queue" is depth one by construction — each iteration reads the
  // backend's *current* publish count and version, so a subscriber slower
  // than the publish rate receives one notify describing the latest state
  // with `coalesced` counting everything it skipped, never a backlog.
  std::uint64_t last = since;
  bool first = true;
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Liveness check: a subscribed peer sends nothing, so any readable
    // byte is either EOF (normal teardown) or a protocol violation; both
    // end the subscription.
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 0) > 0) return false;
    // The first notify is the subscription ack: sent immediately, telling
    // a late or re-connecting subscriber how far behind `since` it is.
    const std::uint64_t count =
        first ? backend_.publish_count()
              : backend_.wait_for_publish_beyond(last, 100);
    if (!first && count <= last) continue;  // slice elapsed; re-check peer
    // Version and stamp from one snapshot read: two separate reads could
    // straddle a publish and pair one snapshot's version with another's
    // stamp.
    const auto snap = backend_.snapshot();
    PublishNotify notify;
    notify.snapshot_version = snap == nullptr ? 0 : snap->version();
    notify.published_at_ns = snap == nullptr ? 0 : snap->published_at_ns();
    notify.publish_count = count;
    notify.coalesced = count > last + 1 ? count - last - 1 : 0;
    if (!write_all(fd, encode_frame(FrameType::kPublishNotify,
                                    encode_publish_notify(notify)),
                   config_.read_timeout_ms))
      return false;
    frames_.fetch_add(1, std::memory_order_relaxed);
    last = count;
    first = false;
  }
  return false;
}

}  // namespace fpss::net
