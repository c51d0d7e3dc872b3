#include "service/protocol.h"

#include "util/clock.h"

namespace fpss::service {

namespace {

bool valid_node(NodeId v, std::size_t n) { return v < n; }

}  // namespace

Reply answer(const RouteSnapshot& snapshot, const Request& request,
             std::uint64_t now_ns) {
  Reply reply;
  reply.snapshot_version = snapshot.version();
  reply.published_at_ns = snapshot.published_at_ns();
  reply.age_ns = util::age_from(snapshot.published_at_ns(), now_ns);
  const std::size_t n = snapshot.node_count();

  switch (request.kind) {
    case RequestKind::kCost:
    case RequestKind::kPairPayment:
    case RequestKind::kNextHop:
    case RequestKind::kPath: {
      if (!valid_node(request.i, n) || !valid_node(request.j, n)) {
        reply.status = Status::kBadNode;
        return reply;
      }
      const bool reachable = snapshot.reachable(request.i, request.j);
      if (!reachable) reply.status = Status::kUnreachable;
      switch (request.kind) {
        case RequestKind::kCost:
          reply.value = snapshot.cost(request.i, request.j);
          break;
        case RequestKind::kPairPayment:
          reply.value = snapshot.pair_payment(request.i, request.j);
          break;
        case RequestKind::kNextHop:
          reply.node = snapshot.next_hop(request.i, request.j);
          reply.value = snapshot.cost(request.i, request.j);
          break;
        case RequestKind::kPath:
          reply.path = snapshot.path(request.i, request.j);
          reply.value = snapshot.cost(request.i, request.j);
          break;
        default:
          break;
      }
      return reply;
    }
    case RequestKind::kPrice:
      if (!valid_node(request.k, n) || !valid_node(request.i, n) ||
          !valid_node(request.j, n)) {
        reply.status = Status::kBadNode;
        return reply;
      }
      if (!snapshot.reachable(request.i, request.j))
        reply.status = Status::kUnreachable;
      reply.value = snapshot.price(request.k, request.i, request.j);
      return reply;
    case RequestKind::kPayment:
      if (!valid_node(request.k, n)) {
        reply.status = Status::kBadNode;
        return reply;
      }
      reply.amount = snapshot.payment_total(request.k);
      reply.value = Cost::zero();
      return reply;
  }
  // Unknown tag (a raw byte cast from the wire): the typed error the old
  // union-of-fields Answer could not express.
  reply.status = Status::kBadKind;
  return reply;
}

bool same_answer(const Reply& a, const Reply& b) {
  return a.status == b.status && a.value == b.value && a.amount == b.amount &&
         a.node == b.node && a.path == b.path &&
         a.snapshot_version == b.snapshot_version &&
         a.published_at_ns == b.published_at_ns;
}

}  // namespace fpss::service
