// route_query: command-line client for a running route_server daemon.
//
//   $ route_query [--host H] [--port P] <command> [args]
//
//   cost i j        LCP cost from i to j
//   price k i j     per-packet price p^k_ij (Theorem 1)
//   pair i j        total transit payment for the pair (i, j)
//   nexthop i j     first hop of the served LCP
//   path i j        the full served LCP
//   payment k       node k's accumulated payment total
//   counters        the server's counters frame, one `section.name value`
//                   row per field: service, server, each peer, and on a
//                   replica daemon its replication health (syncs, bytes,
//                   lag, chain hop, forwarding tallies)
//   drain           wait for the updater to drain; prints the version
//   republish       submit a republish delta (forces a fresh publish)
//
// The data path runs through net::RemoteQueryBackend, so a primary, a
// replica, or a deep chain tier all answer through one code path (writes
// included: `republish` against a forwarding replica relays upstream
// transparently).
//
// Every routed answer is printed with the snapshot version it came from
// and that snapshot's age at answer time — the staleness the RCU serving
// model trades for wait-free reads, made visible.
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include <string>
#include <vector>

#include "flags.h"
#include "net/remote_backend.h"
#include "net/wire.h"
#include "service/protocol.h"

namespace {

using namespace fpss;

int usage() {
  std::printf(
      "usage: route_query [--host H] [--port P] <command> [args]\n"
      "  cost i j | price k i j | pair i j | nexthop i j | path i j\n"
      "  payment k | counters | drain | republish\n");
  return 2;
}

/// Reports an argument that did not parse, then the usage line.
int bad_argument(const char* what, const char* value) {
  std::printf("route_query: bad %s '%s'\n", what, value);
  return usage();
}

void print_meta(const service::Reply& reply) {
  std::printf("  snapshot v%" PRIu64 ", age %.3f ms\n", reply.snapshot_version,
              static_cast<double>(reply.age_ns) / 1e6);
}

const char* status_name(service::Status status) {
  switch (status) {
    case service::Status::kOk:
      return "ok";
    case service::Status::kUnreachable:
      return "unreachable";
    case service::Status::kBadNode:
      return "bad node";
    case service::Status::kBadKind:
      return "bad request kind";
  }
  return "unknown";
}

int run_request(net::RemoteQueryBackend& backend,
                const service::Request& request) {
  const auto result = backend.query_batch({&request, 1});
  if (!result.ok()) {
    std::printf("query failed: %s\n", result.error.c_str());
    return 1;
  }
  const service::Reply& reply = result.replies.front();
  if (reply.status != service::Status::kOk) {
    std::printf("%s\n", status_name(reply.status));
    print_meta(reply);
    return reply.status == service::Status::kUnreachable ? 0 : 1;
  }
  switch (request.kind) {
    case service::RequestKind::kCost:
      std::printf("cost(%u -> %u) = %lld\n", request.i, request.j,
                  static_cast<long long>(reply.value.value()));
      break;
    case service::RequestKind::kPrice:
      std::printf("price p^%u_(%u,%u) = %lld\n", request.k, request.i,
                  request.j, static_cast<long long>(reply.value.value()));
      break;
    case service::RequestKind::kPairPayment:
      std::printf("pair payment(%u, %u) = %lld\n", request.i, request.j,
                  static_cast<long long>(reply.value.value()));
      break;
    case service::RequestKind::kNextHop:
      std::printf("next hop(%u -> %u) = %u (route cost %lld)\n", request.i,
                  request.j, reply.node,
                  static_cast<long long>(reply.value.value()));
      break;
    case service::RequestKind::kPath: {
      std::printf("path(%u -> %u) =", request.i, request.j);
      for (const NodeId v : reply.path) std::printf(" %u", v);
      std::printf("  (cost %lld)\n",
                  static_cast<long long>(reply.value.value()));
      break;
    }
    case service::RequestKind::kPayment:
      std::printf("payment total(%u) = %lld\n", request.k,
                  static_cast<long long>(reply.amount));
      break;
  }
  print_meta(reply);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fpss;

  net::ClientConfig config;
  int arg = 1;
  for (; arg < argc; ++arg) {
    const std::string flag = argv[arg];
    if (flag == "--host" && arg + 1 < argc) {
      config.host = argv[++arg];
    } else if (flag == "--port" && arg + 1 < argc) {
      if (!examples::parse_number(argv[++arg], config.port, std::uint16_t{1}))
        return bad_argument("--port", argv[arg]);
    } else {
      break;
    }
  }
  if (arg >= argc || config.port == 0) return usage();
  const std::string command = argv[arg++];
  const int operands = argc - arg;
  // Every operand is a node id; parse them before connecting.
  std::vector<NodeId> node;
  for (int o = arg; o < argc; ++o) {
    node.emplace_back();
    if (!examples::parse_number(argv[o], node.back()))
      return bad_argument("node", argv[o]);
  }

  net::RemoteQueryBackend client(config);
  if (const auto err = client.connect(); !err.ok()) {
    std::printf("connect failed: %s (%s)\n", err.message.c_str(),
                net::to_string(err.status));
    return 1;
  }

  service::Request request;
  if (command == "cost" && operands == 2) {
    request.kind = service::RequestKind::kCost;
    request.i = node[0];
    request.j = node[1];
    return run_request(client, request);
  }
  if (command == "price" && operands == 3) {
    request.kind = service::RequestKind::kPrice;
    request.k = node[0];
    request.i = node[1];
    request.j = node[2];
    return run_request(client, request);
  }
  if (command == "pair" && operands == 2) {
    request.kind = service::RequestKind::kPairPayment;
    request.i = node[0];
    request.j = node[1];
    return run_request(client, request);
  }
  if (command == "nexthop" && operands == 2) {
    request.kind = service::RequestKind::kNextHop;
    request.i = node[0];
    request.j = node[1];
    return run_request(client, request);
  }
  if (command == "path" && operands == 2) {
    request.kind = service::RequestKind::kPath;
    request.i = node[0];
    request.j = node[1];
    return run_request(client, request);
  }
  if (command == "payment" && operands == 1) {
    request.kind = service::RequestKind::kPayment;
    request.k = node[0];
    return run_request(client, request);
  }
  if (command == "counters" && operands == 0) {
    const auto result = client.counters();
    if (!result.ok()) {
      std::printf("counters failed: %s\n", result.error.message.c_str());
      return 1;
    }
    std::printf("%s", net::counters_table(result.frame).to_text().c_str());
    return 0;
  }
  if (command == "drain" && operands == 0) {
    const auto result = client.drain();
    if (!result.ok()) {
      std::printf("drain failed: %s\n", result.error.message.c_str());
      return 1;
    }
    std::printf("drained; serving snapshot v%" PRIu64 "\n", result.value);
    return 0;
  }
  if (command == "republish" && operands == 0) {
    const service::Delta republish = service::Delta::republish();
    const auto submitted = client.submit_deltas({&republish, 1});
    if (!submitted.ok()) {
      std::printf("submit failed: %s\n", submitted.error.c_str());
      return 1;
    }
    // The ack carries the primary's post-publish version; a forwarding
    // replica's front may not serve it yet, so print the local served
    // version separately.
    const auto drained = client.drain();
    if (!drained.ok()) {
      std::printf("drain failed: %s\n", drained.error.message.c_str());
      return 1;
    }
    std::printf("republished (ack v%" PRIu64 "); serving snapshot v%" PRIu64
                "\n",
                submitted.publish_count, drained.value);
    return 0;
  }
  return usage();
}
