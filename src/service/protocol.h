// The versioned request/response model every query path shares.
//
// PR 4 makes RouteService reachable over a socket, which forces the query
// types to be *wire-stable*: explicit tag values reserved forever, a
// status channel for malformed input (instead of silently serving
// Cost::infinity() or, worse, reading out of range), and provenance
// (snapshot version + publish timestamp + age) on every reply. The same
// structs — and the single evaluator `answer()` — are used verbatim by the
// in-process RouteService::query() and by the net::RouteServer, so a local
// call and a remote call return bit-identical answers for the same
// snapshot (the loopback test in test_net.cpp pins this).
#pragma once

#include <cstdint>

#include "graph/path.h"
#include "service/snapshot.h"
#include "util/cost.h"
#include "util/types.h"

namespace fpss::service {

/// What a Request asks for. The numeric values are the wire tags of
/// fpss-wire v1 — append new kinds, never renumber. Tag 0 is reserved as
/// "invalid" so a zeroed frame cannot alias a real query.
enum class RequestKind : std::uint8_t {
  kCost = 1,         ///< c(i, j)                    -> value
  kPrice = 2,        ///< p^k_ij                     -> value
  kPairPayment = 3,  ///< sum_k p^k_ij               -> value
  kNextHop = 4,      ///< i's next hop toward j      -> node (+ value = c(i,j))
  kPath = 5,         ///< full selected path         -> path (+ value = c(i,j))
  kPayment = 6,      ///< k's owed+settled totals    -> amount
};

/// Per-reply outcome. Wire tags of fpss-wire v1; same stability rule.
enum class Status : std::uint8_t {
  kOk = 0,
  kUnreachable = 1,  ///< i cannot currently reach j (answer fields still
                     ///< carry the snapshot's conventions: infinite cost,
                     ///< empty path, invalid next hop, zero prices)
  kBadNode = 2,      ///< a referenced node id is out of range
  kBadKind = 3,      ///< unknown request tag (e.g. from a newer client)
};

/// One element of a batched read. Identical for local and remote callers.
struct Request {
  RequestKind kind = RequestKind::kCost;
  NodeId k = kInvalidNode;  ///< transit node (kPrice/kPayment)
  NodeId i = kInvalidNode;
  NodeId j = kInvalidNode;

  friend bool operator==(const Request&, const Request&) = default;
};

/// The answer to one Request. Every reply names the snapshot that produced
/// it (version + publish wall-clock stamp + age at answer time), so remote
/// clients can bound staleness and detect epoch changes across batches.
struct Reply {
  Status status = Status::kOk;
  Cost value = Cost::infinity();  ///< kCost/kPrice/kPairPayment/kNextHop/kPath
  Cost::rep amount = 0;           ///< kPayment
  NodeId node = kInvalidNode;     ///< kNextHop
  graph::Path path;               ///< kPath
  std::uint64_t snapshot_version = 0;
  std::uint64_t published_at_ns = 0;  ///< wall-clock stamp of the snapshot
  std::uint64_t age_ns = 0;           ///< answer time minus publish time

  friend bool operator==(const Reply&, const Reply&) = default;
};

/// Evaluates one request against one snapshot — the single authority both
/// the in-process and the remote path call. `now_ns` is the answer-time
/// wall clock (passed in so a whole batch shares one reading).
Reply answer(const RouteSnapshot& snapshot, const Request& request,
             std::uint64_t now_ns);

/// True when two replies are the same answer — every field except age_ns,
/// which measures *when* the question was asked, not what the answer is.
/// The local-vs-remote equivalence tests compare with this.
bool same_answer(const Reply& a, const Reply& b);

}  // namespace fpss::service
