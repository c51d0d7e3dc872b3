// net::RouteServer: the blocking TCP front end that turns a RouteService
// into a daemon speaking fpss-wire v1.
//
// Shape: one accept thread plus a small worker pool. Accepted connections
// are queued; each worker serves one connection at a time, frame by frame
// (read header -> validate before allocating -> read payload -> checksum
// -> dispatch), so a request batch is answered by exactly the same
// service::answer() evaluation a local caller gets — the snapshot store's
// RCU read path makes the workers just more reader threads.
//
// Robustness contract (pinned by test_net.cpp under ASan):
//   * a frame is rejected from its 20-byte header alone when the magic,
//     version, type, or length is wrong — the payload is never allocated;
//   * oversized batches and undecodable payloads get a typed kError frame
//     and the connection is closed;
//   * per-connection reads time out (poll with a deadline), so a stalled
//     peer cannot pin a worker forever;
//   * stop() is graceful: the listener closes first, workers finish the
//     frame they are serving (in-flight batches drain), then join.
//
// The server fronts a service::Backend (service/backend.h) — a local
// RouteService or a ReplicaService, both implementing it directly. Two
// frame types stream instead of request/reply: kSnapshotFetch elicits a
// burst of kSnapshotChunk frames (the per-shard replication transfer),
// and kSubscribe converts the connection into a push channel that holds
// its worker and emits kPublishNotify frames until either side closes —
// size the worker pool for one pinned worker per subscribed replica.
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

struct ServerConfig {
  /// Address to bind. The default stays on loopback: the protocol has no
  /// authentication, so exposing it wider is an explicit operator choice.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  unsigned workers = 4;
  /// How long a worker waits for the rest of a frame before giving up on
  /// the connection.
  int read_timeout_ms = 5000;
  WireLimits limits;
  /// Accept kDeltaSubmit frames (a pure read replica would say no).
  bool allow_deltas = true;
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
  /// Per-peer counters live behind peers_mutex_ (written per served frame,
  /// read by peer_stats()); keyed by the peer's textual address. Bounded:
  /// once kMaxPeers distinct addresses exist, further ones account under
  /// "(other)" — a scanner cycling source addresses must not grow server
  /// memory without bound.
  static constexpr std::size_t kMaxPeers = 256;

  void accept_loop();
  void worker_loop();
  void serve_connection(int fd);
  /// One request/reply exchange; returns false when the connection should
  /// close (EOF, timeout, protocol error, shutdown). `peer` is the
  /// connection's accounting key.
  bool serve_frame(int fd, const std::string& peer);
  /// Streams the per-shard snapshot transfer for one kSnapshotFetch:
  /// data chunks for every shard whose version differs from `known`, then
  /// the final chunk. Returns false (close) on any write failure.
  bool serve_snapshot_fetch(int fd, const std::string& peer,
                            const std::vector<std::uint64_t>& known);
  /// The push loop a kSubscribe converts the connection into; returns only
  /// when the peer closes, a write fails, or the server stops.
  bool serve_subscription(int fd, std::uint64_t since);
  bool send_error(int fd, const std::string& peer, WireStatus code,
                  const std::string& message);
  /// The counters this peer accounts under (the overflow bucket when the
  /// table is full).
  PeerCounters& peer_counters(const std::string& peer)
      FPSS_REQUIRES(peers_mutex_);

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

  mutable util::Mutex peers_mutex_;
  std::map<std::string, PeerCounters> peers_ FPSS_GUARDED_BY(peers_mutex_);

  std::vector<std::thread> workers_;
  std::thread acceptor_;
};

}  // namespace fpss::net
