// route_replica: a replica chained behind route_server — and, in
// self-test mode, a full primary/replica topology on loopback.
//
// Self-test mode (default) wires up
//
//   RouteService ── RouteServer ──(fpss-wire)── ReplicaService ── RouteServer
//      (primary)      :ephemeral   parked sync +     (replica)     :ephemeral
//                                 delta forwarding
//
// then churns the primary through several re-convergence cycles and, after
// each one, waits for the replica to catch up (its parked fetch, whose
// `since` is the version it serves, is answered by the publish itself
// with the shards that moved) and checks a batch of queries
// through both servers for bit-identical answers, both over the wire
// through net::RemoteQueryBackend; the final cycle
// exercises the write path end to end: a delta submitted at the *replica*
// front is forwarded to the primary, whose ack's version then lets the
// submitter read its own write back through the replica.
//
//   $ ./route_replica [nodes] [cycles]
//
// Daemon mode syncs from a running route_server (or another route_replica
// — replicas chain) and serves the same fpss-wire protocol, forwarding
// writes upstream unless --forward-deltas 0 makes the tier read-only:
//
//   $ ./route_replica --connect HOST:PORT[,HOST:PORT...] [--host H]
//                     [--listen PORT] [--workers W] [--checkpoint-dir DIR]
//                     [--forward-deltas 0|1]
//
// --connect takes a fallback list in preference order; on upstream death
// the replica serves its last consistent cut and fails over round-robin.
// A bare port is shorthand for --host's value (default 127.0.0.1).
//
// With --checkpoint-dir the replica warm-starts from a local fpss-snap v6
// checkpoint directory and serves it before the upstream is reachable.
// The image's version is its first fetch's `since`, so an upstream still
// serving it sends no shard, and blocks of moved shards whose content
// matches the local image are adopted instead of re-materialized from the
// wire.
#include <csignal>
#include <cstdio>
#include <cstring>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "flags.h"
#include "graphgen/costs.h"
#include "graphgen/random.h"
#include "net/remote_backend.h"
#include "net/server.h"
#include "replica/replica.h"
#include "service/service.h"
#include "util/rng.h"

namespace {

using namespace fpss;

int usage() {
  std::printf(
      "usage: route_replica [nodes] [cycles]\n"
      "       route_replica --connect HOST:PORT[,HOST:PORT...] [--host H]\n"
      "                     [--listen PORT] [--workers W]\n"
      "                     [--checkpoint-dir DIR] [--forward-deltas 0|1]\n");
  return 2;
}

/// Reports an argument that did not parse, then the usage line.
int bad_argument(const char* what, const char* value) {
  std::printf("route_replica: bad %s '%s'\n", what, value);
  return usage();
}

/// The smallest network make_network builds: a tiered graph needs a core
/// of three, and the core is nodes / 12 + 2.
constexpr std::size_t kMinNodes = 12;

// Same seeded generator as route_server: a replica daemon pointed at a
// route_server of the same --nodes sees the identical network.
graph::Graph make_network(std::size_t nodes) {
  util::Rng rng(4202);
  graphgen::TieredParams params;
  params.core_count = nodes / 12 + 2;
  params.mid_count = nodes / 4 + 2;
  params.stub_count = nodes - params.core_count - params.mid_count;
  graph::Graph g = graphgen::tiered_internet(params, rng);
  graphgen::assign_degree_costs(g, 1, 9);
  return g;
}

/// Queries both daemons with the same randomized batch (every request
/// kind, including out-of-range nodes) and compares every answer.
bool compare_answers(net::RemoteQueryBackend& primary,
                     net::RemoteQueryBackend& replica, NodeId n,
                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<service::Request> batch;
  for (int q = 0; q < 48; ++q) {
    service::Request r;
    const auto kinds = {service::RequestKind::kCost, service::RequestKind::kPrice,
                        service::RequestKind::kPairPayment,
                        service::RequestKind::kNextHop,
                        service::RequestKind::kPath,
                        service::RequestKind::kPayment};
    r.kind = *(kinds.begin() + static_cast<long>(rng.below(kinds.size())));
    r.k = static_cast<NodeId>(rng.below(n));
    r.i = static_cast<NodeId>(rng.below(n));
    r.j = static_cast<NodeId>(rng.below(n));
    batch.push_back(r);
  }
  batch.push_back({service::RequestKind::kCost, 0, n, 0});  // bad node

  const auto from_primary = primary.query_batch(batch);
  const auto from_replica = replica.query_batch(batch);
  if (!from_primary.ok() || !from_replica.ok()) {
    std::printf("compare: query failed (%s / %s)\n",
                from_primary.error.c_str(), from_replica.error.c_str());
    return false;
  }
  for (std::size_t q = 0; q < batch.size(); ++q)
    if (!service::same_answer(from_primary.replies[q],
                              from_replica.replies[q])) {
      std::printf("compare: answer %zu diverged\n", q);
      return false;
    }
  return true;
}

/// Parses "HOST:PORT[,HOST:PORT...]" (a bare PORT means default_host) into
/// a fallback list. Returns empty on a malformed entry.
std::vector<net::ClientConfig> parse_connect(const std::string& spec,
                                             const std::string& default_host) {
  std::vector<net::ClientConfig> upstreams;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string entry =
        spec.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    net::ClientConfig upstream;
    const std::size_t colon = entry.rfind(':');
    const std::string port_text =
        colon == std::string::npos ? entry : entry.substr(colon + 1);
    upstream.host =
        colon == std::string::npos ? default_host : entry.substr(0, colon);
    if (upstream.host.empty() ||
        !examples::parse_number(port_text, upstream.port, std::uint16_t{1}))
      return {};
    upstreams.push_back(std::move(upstream));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return upstreams;
}

// --- daemon mode -----------------------------------------------------------

std::atomic<bool> g_shutdown{false};

void handle_signal(int) { g_shutdown.store(true, std::memory_order_relaxed); }

int run_daemon(std::vector<net::ClientConfig> upstreams,
               std::uint16_t listen_port, unsigned workers,
               const std::string& checkpoint_dir, bool forward_deltas) {
  replica::ReplicaConfig config;
  config.upstreams = std::move(upstreams);
  config.checkpoint_directory = checkpoint_dir;
  config.forward_deltas = forward_deltas;
  replica::ReplicaService replica(config);

  const auto& first = config.upstreams.front();
  if (replica.wait_until_ready(10000)) {
    const auto served = replica.snapshot();
    std::printf("route_replica: serving v%llu (%zu nodes) from %s:%u "
                "(hop %u, %zu upstream%s)\n",
                static_cast<unsigned long long>(served->version()),
                served->node_count(), first.host.c_str(), first.port,
                replica.hop_count(), config.upstreams.size(),
                config.upstreams.size() == 1 ? "" : "s");
  } else {
    std::printf("route_replica: no upstream ready yet (%zu configured); "
                "serving empty until one appears\n",
                config.upstreams.size());
  }

  net::ServerConfig server_config;
  server_config.port = listen_port;
  server_config.workers = workers;
  net::RouteServer server(replica, server_config);
  if (!server.ok()) {
    std::printf("route_replica: %s\n", server.error().c_str());
    return 1;
  }
  std::printf("route_replica: listening on %s:%u (%u workers, writes %s); "
              "Ctrl-C to stop\n",
              server_config.host.c_str(), server.port(), server_config.workers,
              forward_deltas ? "forwarded" : "refused");

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (!g_shutdown.load(std::memory_order_relaxed))
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::printf("\nroute_replica: draining...\n");
  server.stop();
  replica.stop();
  std::printf("%s\n",
              net::counters_table(server.counters_frame()).to_text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fpss;

  // --- daemon mode ---------------------------------------------------------
  if (argc > 1 && std::strcmp(argv[1], "--connect") == 0) {
    if (argc < 3) return usage();
    const std::string connect_spec = argv[2];
    std::string default_host = "127.0.0.1";
    std::uint16_t listen_port = 0;
    unsigned workers = 4;
    std::string checkpoint_dir;
    int forward_deltas = 1;
    // Every flag takes a value.
    int arg = 3;
    for (; arg + 1 < argc; arg += 2) {
      const std::string flag = argv[arg];
      const char* const value = argv[arg + 1];
      bool ok = true;
      if (flag == "--host")
        default_host = value;
      else if (flag == "--listen")
        ok = examples::parse_number(value, listen_port);
      else if (flag == "--workers")
        ok = examples::parse_number(value, workers, 1u);
      else if (flag == "--checkpoint-dir")
        checkpoint_dir = value;
      else if (flag == "--forward-deltas")
        ok = examples::parse_number(value, forward_deltas, 0, 1);
      else
        return bad_argument("flag", flag.c_str());
      if (!ok) return bad_argument(flag.c_str(), value);
    }
    if (arg < argc) return bad_argument("flag", argv[arg]);
    std::vector<net::ClientConfig> upstreams =
        parse_connect(connect_spec, default_host);
    if (upstreams.empty()) return bad_argument("--connect list", argv[2]);
    return run_daemon(std::move(upstreams), listen_port, workers,
                      checkpoint_dir, forward_deltas != 0);
  }

  // --- self-test mode ------------------------------------------------------
  std::size_t nodes = 48;
  std::size_t cycles = 3;
  if (argc > 3 || (argc > 1 && !examples::parse_number(argv[1], nodes,
                                                        kMinNodes)) ||
      (argc > 2 && !examples::parse_number(argv[2], cycles)))
    return usage();

  const graph::Graph g = make_network(nodes);
  service::ServiceConfig svc_config;
  svc_config.shards = 4;
  service::RouteService primary(g, svc_config);
  std::printf("primary: %zu nodes, %zu edges, serving v%llu (4 shards)\n",
              g.node_count(), g.edge_count(),
              static_cast<unsigned long long>(primary.publish_count()));

  net::RouteServer primary_server(primary);
  if (!primary_server.ok()) {
    std::printf("primary server: %s\n", primary_server.error().c_str());
    return 1;
  }

  replica::ReplicaConfig replica_config;
  replica_config.upstream.port = primary_server.port();
  replica::ReplicaService replica(replica_config);
  if (!replica.wait_until_ready(10000) ||
      replica.wait_for_publish_beyond(0, 10000) < primary.publish_count()) {
    std::printf("replica: bootstrap sync did not complete\n");
    return 1;
  }
  std::printf("replica: bootstrapped at v%llu (hop %u)\n",
              static_cast<unsigned long long>(replica.snapshot()->version()),
              replica.hop_count());

  net::RouteServer replica_server(replica);
  if (!replica_server.ok()) {
    std::printf("replica server: %s\n", replica_server.error().c_str());
    return 1;
  }

  net::ClientConfig to_primary;
  to_primary.port = primary_server.port();
  net::RemoteQueryBackend primary_backend(to_primary);
  net::ClientConfig to_replica;
  to_replica.port = replica_server.port();
  net::RemoteQueryBackend replica_backend(to_replica);
  if (!primary_backend.connect().ok() || !replica_backend.connect().ok()) {
    std::printf("client connect failed\n");
    return 1;
  }

  bool all_equal = compare_answers(primary_backend, replica_backend,
                                   static_cast<NodeId>(nodes), 11);

  // Churn: each cycle perturbs a couple of node costs, republishes, and
  // waits for the replica's parked fetch to carry it over.
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    const NodeId node = static_cast<NodeId>(1 + cycle % (nodes - 1));
    primary.submit({service::RouteService::Delta::cost_change(
                        node, Cost{static_cast<Cost::rep>(2 + cycle)}),
                    service::RouteService::Delta::cost_change(
                        0, Cost{static_cast<Cost::rep>(1 + cycle % 3)})});
    const std::uint64_t version = primary.drain();
    const std::uint64_t caught_up =
        replica.wait_for_publish_beyond(version - 1, 10000);
    const bool equal = caught_up >= version &&
                       compare_answers(primary_backend, replica_backend,
                                       static_cast<NodeId>(nodes), 101 + cycle);
    std::printf("cycle %zu: primary v%llu, replica v%llu, answers %s\n",
                cycle + 1, static_cast<unsigned long long>(version),
                static_cast<unsigned long long>(caught_up),
                equal ? "bit-identical" : "DIVERGED");
    all_equal = all_equal && equal;
  }

  // Forwarded write round-trip: submit at the *replica* front, let the
  // forwarder relay it to the primary, then use the ack's version to read
  // the write back through the replica — the read-your-write
  // contract, exercised over two wire hops.
  const service::Delta write = service::Delta::cost_change(0, Cost{5});
  const auto forwarded = replica_backend.submit_deltas({&write, 1});
  bool forward_ok = forwarded.ok() && forwarded.accepted == 1;
  if (!forward_ok) {
    std::printf("forwarded write failed: %s\n", forwarded.error.c_str());
  } else {
    const std::uint64_t seen = replica_backend.wait_for_publish_beyond(
        forwarded.publish_count - 1, 10000);
    forward_ok = seen >= forwarded.publish_count &&
                 compare_answers(primary_backend, replica_backend,
                                 static_cast<NodeId>(nodes), 4242);
    std::printf("forwarded write: ack v%llu, replica v%llu, answers %s\n",
                static_cast<unsigned long long>(forwarded.publish_count),
                static_cast<unsigned long long>(seen),
                forward_ok ? "bit-identical" : "DIVERGED");
  }

  // The counters frame a monitoring client sees carries the replication
  // section too — fetch it over the wire from the replica's server.
  const auto remote_counters = replica_backend.counters();
  const bool counters_ok =
      remote_counters.ok() && remote_counters.frame.has_replica;
  if (counters_ok)
    std::printf("%s\n",
                net::counters_table(remote_counters.frame).to_text().c_str());

  replica_server.stop();
  replica.stop();
  primary_server.stop();

  const auto sync = replica.replication_counters();
  const bool synced_incrementally =
      sync.full_syncs >= 1 && sync.delta_syncs >= cycles &&
      sync.notifies_received >= cycles && sync.deltas_forwarded >= 1 &&
      sync.hop_count == 1;
  const bool ok =
      all_equal && forward_ok && counters_ok && synced_incrementally;
  std::printf(ok ? "route_replica: OK\n" : "route_replica: FAILED\n");
  return ok ? 0 : 1;
}
