#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/socket_io.h"
#include "service/replication.h"

namespace fpss::net {

namespace {

/// The notify describing `snap`, the snapshot a backend serves (zeros
/// before its first publish): version and stamp from one read, never two
/// that could straddle a publish.
PublishNotify notify_of(const service::RouteSnapshot* snap) {
  PublishNotify notify;
  if (snap != nullptr) {
    notify.snapshot_version = snap->version();
    notify.published_at_ns = snap->published_at_ns();
  }
  return notify;
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

ServerCounters RouteServer::stats() const { return counters_.read(); }

std::vector<PeerCounters> RouteServer::peer_stats() const {
  util::MutexLock lock(peers_mutex_);
  std::vector<PeerCounters> peers;
  peers.reserve(peers_.size());
  for (const auto& [address, tally] : peers_) {
    peers.push_back(tally.read());
    peers.back().peer = address;
  }
  return peers;
}

CountersFrame RouteServer::counters_frame() const {
  CountersFrame frame;
  frame.service = backend_.counters();
  frame.server = stats();
  frame.peers = peer_stats();
  frame.has_replica = backend_.replica_counters(frame.replica);
  return frame;
}

RouteServer::PeerTally& RouteServer::peer_tally(const std::string& peer) {
  auto found = peers_.find(peer);
  if (found == peers_.end())
    found = peers_.try_emplace(peers_.size() < kMaxPeers ? peer : "(other)")
                .first;
  return found->second;
}

void RouteServer::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener shut down (or unrecoverable)
    }
    counters_.add(&ServerCounters::connections);
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
  PeerTally* tally = nullptr;
  {
    util::MutexLock lock(peers_mutex_);
    tally = &peer_tally(peer);
  }
  tally->add(&PeerCounters::connections);
  // The connection's read state (net/socket_io.h): its wait history and
  // the bytes received ahead of the frame being read.
  bool spin = false;
  RecvBuffer buffered;
  while (serve_frame(fd, *tally, spin, buffered)) {
  }
  ::close(fd);
}

bool RouteServer::send_error(int fd, PeerTally& peer, WireStatus code,
                             const std::string& message) {
  counters_.add(&ServerCounters::rejected_frames);
  peer.add(&PeerCounters::rejected_frames);
  const std::string frame =
      encode_frame(FrameType::kError, encode_error({code, message}));
  write_all(fd, frame, kIoTimeoutMs);
  return false;  // protocol errors always close the connection
}

bool RouteServer::serve_frame(int fd, PeerTally& peer, bool& spin,
                              RecvBuffer& buffered) {
  // 1. Header: fixed 20 bytes, validated before the payload is allocated.
  char header_bytes[kFrameHeaderBytes];
  switch (read_exact(fd, buffered, header_bytes, kFrameHeaderBytes,
                     kIoTimeoutMs, &spin, &stopping_)) {
    case IoResult::kOk:
      break;
    case IoResult::kClosed:   // peer finished; normal end of connection
    case IoResult::kStopped:  // shutdown while idle between frames
      return false;
    case IoResult::kTimeout:
      counters_.add(&ServerCounters::timeouts);
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
    switch (read_exact(fd, buffered, payload.data(), payload.size(),
                       kIoTimeoutMs, nullptr, &stopping_)) {
      case IoResult::kOk:
        break;
      case IoResult::kTimeout:
        counters_.add(&ServerCounters::timeouts);
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
      counters_.add(&ServerCounters::batches);
      peer.add(&PeerCounters::queries, batch.requests.size());
      peer.add(&PeerCounters::batches);
      reply_frame =
          encode_frame(FrameType::kReplyBatch, encode_replies(replies));
      break;
    }
    case FrameType::kCountersFetch: {
      reply_frame = encode_frame(FrameType::kCountersReply,
                                 encode_counters(counters_frame()));
      break;
    }
    case FrameType::kDeltaSubmit: {
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
    case FrameType::kSnapshotFetch:
    case FrameType::kAwaitPublish: {
      Await await;
      if (!decode_await(payload, await))
        return send_error(fd, peer, WireStatus::kMalformed,
                          "bad await payload");
      if (head.header.type == FrameType::kSnapshotFetch)
        return serve_snapshot_fetch(fd, peer, await);
      park(await);
      reply_frame = encode_frame(
          FrameType::kPublishNotify,
          encode_publish_notify(notify_of(backend_.snapshot().get())));
      break;
    }
    default:
      // Server-to-client types (HelloAck, ReplyBatch, ...) and kError are
      // never valid requests.
      return send_error(fd, peer, WireStatus::kBadFrameType,
                        "frame type not valid as a request");
  }

  if (!write_all(fd, reply_frame, kIoTimeoutMs)) return false;
  counters_.add(&ServerCounters::frames);
  // Stop taking new frames once shutdown began; the reply above completes
  // the in-flight exchange.
  return !stopping_.load(std::memory_order_relaxed);
}

void RouteServer::park(const Await& await) const {
  const auto deadline =
      Clock::now() +
      std::chrono::milliseconds(std::min(await.wait_ms, kMaxParkMs));
  // Slices of at most 100 ms, so stop() releases a parked request quickly.
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int slice = next_slice_ms(deadline);
    if (slice == 0 ||
        backend_.wait_for_publish_beyond(await.since, slice) > await.since)
      break;
  }
}

bool RouteServer::serve_snapshot_fetch(int fd, PeerTally& peer,
                                       const Await& await) {
  park(await);
  // One cut answers the fetch: the notify and the stream describe the same
  // snapshot. The cut holds it, so a publish mid-transfer cannot pull the
  // data out from under the stream.
  const service::ShardedSnapshotStore::ExportCut cut = backend_.export_cut();
  const PublishNotify notify = notify_of(cut.newest.get());
  if (!write_all(fd, encode_frame(FrameType::kPublishNotify,
                                  encode_publish_notify(notify)),
                 kIoTimeoutMs))
    return false;
  counters_.add(&ServerCounters::frames);
  if (!fetch_streams(notify, await))
    return !stopping_.load(std::memory_order_relaxed);

  // The dirty set: shards a publish after `since` changed. A shard's
  // version is the publish that last changed it, so the requester, which
  // serves `since`, holds every other shard already. With nothing served
  // (0) or a clock ahead of ours (our versions went back) every shard is
  // dirty.
  const std::uint64_t since = await.since;
  const bool full = since == 0 || since > notify.snapshot_version;
  std::vector<std::uint32_t> dirty;
  for (std::size_t s = 0; s < cut.shard_versions.size(); ++s)
    if (full || cut.shard_versions[s] > since)
      dirty.push_back(static_cast<std::uint32_t>(s));

  bool oversized = false;
  const bool streamed = service::ReplicationCodec::encode_stream(
      *cut.newest, static_cast<std::uint32_t>(cut.shard_versions.size()),
      dirty, [&](std::string_view chunk) {
        if (chunk.size() > config_.limits.max_payload_bytes) {
          oversized = true;
          return false;
        }
        if (!write_all(fd, encode_frame(FrameType::kSnapshotChunk, chunk),
                       kIoTimeoutMs))
          return false;
        counters_.add(&ServerCounters::frames);
        return true;
      });
  if (oversized)
    return send_error(fd, peer, WireStatus::kOversized,
                      "snapshot chunk exceeds the frame payload limit");
  return streamed && !stopping_.load(std::memory_order_relaxed);
}

}  // namespace fpss::net
