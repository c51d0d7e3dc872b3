// net::RemoteQueryBackend: a client for a route daemon (primary or replica
// front) speaking the same query/write/wait vocabulary as the in-process
// service::Backend, with every failure reported as a value.
//
// Wraps one RouteClient connection: queries, writes, counters and drain
// are plain request/reply, and wait_for_publish_beyond is a run of parked
// kAwaitPublish requests (each at most kMaxParkMs) on the same
// connection, whose clock is the server's served version. Every operation
// goes through RouteClient::connect(), which re-dials a connection that
// failed or that the server closed while it sat idle, so a client pointed
// at a replica front keeps working across the replica's own upstream
// failovers (the replica keeps serving, and so keeps its version, through
// them) and across the front's idle deadline or restart.
#pragma once

#include <cstdint>
#include <span>

#include "net/client.h"
#include "service/backend.h"

namespace fpss::net {

class RemoteQueryBackend {
 public:
  explicit RemoteQueryBackend(ClientConfig config);

  /// Dials the data connection, or re-dials one the server closed (see
  /// RouteClient::connect()). Every operation calls it first; tools call
  /// it to surface a connect failure early.
  ClientError connect();

  service::QueryOutcome query_batch(std::span<const service::Request> batch);
  /// Applies (or, at a replica, forwards) deltas and publishes before
  /// acknowledging. A typed server rejection maps to its SubmitAck status
  /// (kOverloaded, kUnavailable, kReadOnly); any other failure is kFailed.
  service::SubmitAck submit_deltas(std::span<const service::Delta> deltas);
  /// The full counters frame: service + server + replica sections.
  CountersResult counters();
  /// Blocks until the server's served version exceeds `count` or the
  /// timeout elapses; returns the version the last reply carried (0 when
  /// the server could not be reached).
  std::uint64_t wait_for_publish_beyond(std::uint64_t count, int timeout_ms);
  /// Publish barrier on the server; value = served version.
  U64Result drain();
  /// Chain depth of the server's backend (0 = primary); valid once any
  /// operation has connected.
  std::uint32_t server_hop_count() const;

 private:
  RouteClient data_;
};

}  // namespace fpss::net
