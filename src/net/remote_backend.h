// net::RemoteQueryBackend: a client for a route daemon (primary or replica
// front) speaking the same query/write/wait vocabulary as the in-process
// service::Backend, with every failure reported as a value.
//
// Wraps two RouteClient connections to the same address: a request/reply
// data connection (queries, writes, counters, drain) and a lazily-dialed
// subscription connection that turns wait_for_publish_beyond into the
// wire's push channel — a kSubscribe stream whose notify clock is the
// server's publish count. Both reconnect on demand, so a client pointed at
// a replica front keeps working across the replica's own upstream
// failovers (the replica's publish clock survives them).
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "net/client.h"
#include "service/backend.h"

namespace fpss::net {

class RemoteQueryBackend {
 public:
  explicit RemoteQueryBackend(ClientConfig config);
  ~RemoteQueryBackend();

  /// Dials the data connection eagerly (every operation also dials on
  /// demand; this exists so tools can surface a connect failure early).
  ClientError connect();

  service::QueryOutcome query_batch(std::span<const service::Request> batch);
  /// Applies (or, at a replica, forwards) deltas and publishes before
  /// acknowledging. A typed server rejection maps to its SubmitAck status
  /// (kOverloaded, kUnavailable, kReadOnly); any other failure is kFailed.
  service::SubmitAck submit_deltas(std::span<const service::Delta> deltas);
  /// The full counters frame: service + server + replica sections.
  CountersResult counters();
  /// Blocks until the server's publish clock exceeds `count` or the
  /// timeout elapses; returns the clock at return.
  std::uint64_t wait_for_publish_beyond(std::uint64_t count, int timeout_ms);
  /// Publish barrier on the server; value = served version.
  U64Result drain();
  /// Chain depth of the server's backend (0 = primary); valid once any
  /// operation has connected.
  std::uint32_t server_hop_count() const;

 private:
  ClientError ensure_data();

  ClientConfig config_;
  RouteClient data_;
  /// Subscription connection; null until the first publish wait. Its
  /// notify clock (the server's publish count) persists across calls.
  std::unique_ptr<RouteClient> notify_;
  std::uint64_t notify_count_ = 0;
};

}  // namespace fpss::net
