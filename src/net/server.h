// net::RouteServer: the blocking TCP front end that turns a RouteService
// into a daemon speaking fpss-wire v5.
//
// Shape: one accept thread plus a small worker pool. Accepted connections
// are queued; each worker serves one connection at a time, frame by frame
// (read header -> validate before allocating -> read payload -> checksum
// -> dispatch), reading through the connection's fixed receive buffer
// (net/socket_io.h), so a frame and any pipelined behind it usually cost
// one recv. A request batch is answered by exactly the same
// service::answer() evaluation a local caller gets — the snapshot store's
// RCU read path makes the workers just more reader threads.
//
// Robustness contract (pinned by test_net.cpp under ASan):
//   * a frame is rejected from its 20-byte header alone when the magic,
//     version, type, reserved field or length is wrong — the payload is
//     never allocated;
//   * oversized batches and undecodable payloads get a typed kError frame
//     and the connection is closed;
//   * per-connection reads time out (poll with a deadline), so a stalled
//     peer cannot pin a worker forever; a connection whose requests follow
//     its replies within net/socket_io.h's spin window is read by spinning
//     briefly instead of sleeping in poll;
//   * stop() is graceful: the listener closes first, workers finish the
//     frame they are serving (in-flight batches drain), then join.
//
// The server fronts a service::Backend (service/backend.h) — a local
// RouteService or a ReplicaService, both implementing it directly. Every
// frame it writes answers a request. Two requests are parked (see
// wire.h): kAwaitPublish and kSnapshotFetch hold their worker until the
// backend's served version passes the request's clock, the request's wait
// (at most kMaxParkMs) runs out, or stop() — which therefore returns
// within one 100 ms slice of a parked request. Each is then answered from
// one read of the served snapshot (a fetch: one export cut), and a fetch
// that streams (fetch_streams: it was not parked, or the served version is
// not its `since`) continues with the catch-up stream of the shards that
// moved after `since`.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.h"
#include "service/backend.h"
#include "util/counters.h"
#include "util/mutex.h"

namespace fpss::net {

class RecvBuffer;  // net/socket_io.h

struct ServerConfig {
  /// Address to bind. The default stays on loopback: the protocol has no
  /// authentication, so exposing it wider is an explicit operator choice.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  unsigned workers = 4;
  WireLimits limits;
};

class RouteServer {
 public:
  /// Binds and starts serving immediately. Check ok() — constructors
  /// cannot return the bind error, and a daemon that silently isn't
  /// listening is worse than one that reports why. The backend must
  /// outlive the server.
  RouteServer(service::Backend& backend, ServerConfig config = {});
  ~RouteServer();

  RouteServer(const RouteServer&) = delete;
  RouteServer& operator=(const RouteServer&) = delete;

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  /// The bound port (the resolved one when config.port was 0).
  std::uint16_t port() const { return port_; }

  /// Monotone totals across all connections.
  ServerCounters stats() const;
  /// The per-peer breakdown, sorted by peer address.
  std::vector<PeerCounters> peer_stats() const;
  /// What a kCountersFetch to this server returns: the backend's counters
  /// (and replica section), stats() and peer_stats().
  CountersFrame counters_frame() const;

  /// Graceful shutdown: stop accepting, serve out in-flight frames, join
  /// every thread. Idempotent; the destructor calls it.
  void stop();

 private:
  /// One peer's live tallies; its address is the key it is stored under.
  using PeerTally = util::LiveCounters<PeerCounters, sizeof(std::string)>;

  /// Per-peer tallies, keyed by the peer's textual address. Bounded: once
  /// kMaxPeers distinct addresses exist, further ones account under
  /// "(other)" — a scanner cycling source addresses must not grow server
  /// memory without bound.
  static constexpr std::size_t kMaxPeers = 256;

  void accept_loop();
  void worker_loop();
  void serve_connection(int fd);
  /// One request/reply exchange; returns false when the connection should
  /// close (EOF, timeout, protocol error, shutdown). `peer` is the tally
  /// the connection accounts under, and `spin` and `buffered` its read
  /// state for read_exact.
  bool serve_frame(int fd, PeerTally& peer, bool& spin, RecvBuffer& buffered);
  /// Holds a parked request until the backend's served version exceeds
  /// `await.since`, min(wait_ms, kMaxParkMs) passes, or the server stops.
  void park(const Await& await) const;
  /// Answers one kSnapshotFetch: parks, reads one export cut, writes its
  /// notify, and, if fetch_streams, streams data chunks for every shard
  /// whose version is above `await.since` (every shard when it is 0 or
  /// above the served version), then the final chunk. Returns false
  /// (close) on any write failure.
  bool serve_snapshot_fetch(int fd, PeerTally& peer, const Await& await);
  bool send_error(int fd, PeerTally& peer, WireStatus code,
                  const std::string& message);
  /// The tally this peer accounts under (the overflow bucket when the
  /// table is full).
  PeerTally& peer_tally(const std::string& peer) FPSS_REQUIRES(peers_mutex_);

  service::Backend& backend_;
  ServerConfig config_;
  std::string error_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  ///< stop() already completed (main thread only)

  util::Mutex queue_mutex_;
  util::CondVar queue_cv_;
  /// Accepted fds awaiting a worker.
  std::deque<int> pending_ FPSS_GUARDED_BY(queue_mutex_);

  util::LiveCounters<ServerCounters> counters_;  ///< written by any worker

  /// Guards the table, not the tallies: a map node is never erased or
  /// moved, so a connection resolves its tally once, under the lock, and
  /// bumps it with relaxed atomics for every frame after.
  mutable util::Mutex peers_mutex_;
  std::map<std::string, PeerTally> peers_ FPSS_GUARDED_BY(peers_mutex_);

  std::vector<std::thread> workers_;
  std::thread acceptor_;
};

}  // namespace fpss::net
