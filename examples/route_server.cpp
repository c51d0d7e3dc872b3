// route_server: the serving layer under live load — and, with --listen,
// a real fpss-wire daemon.
//
// Self-test mode (default) boots a RouteService on a tiered AS graph and
// demonstrates the full lifecycle:
//
//   1. reader threads (4 by default) hammer price/cost/path/payment queries
//      while the background updater applies topology churn and republishes
//      — each reader validates every answer against the snapshot's own
//      invariant (route cost == sum of transit node costs), so a torn read
//      cannot go unnoticed;
//   2. at least two full re-convergence cycles happen mid-flight;
//   3. traffic charges accumulate into payment totals (Sect. 6.4);
//   4. the final snapshot is saved to disk and reloaded bit-identically;
//   5. a net::RouteServer is started on an ephemeral loopback port and a
//      net::RouteClient's remote answers are checked bit-for-bit against
//      the in-process query() on the same snapshot.
//
//   $ ./route_server [nodes] [readers] [cycles]
//
// Daemon mode serves fpss-wire v1 until SIGINT/SIGTERM:
//
//   $ ./route_server --listen [port] [--nodes N] [--workers W]
//                    [--snapshot file.bin] [--shards K]
//                    [--checkpoint-dir DIR] [--checkpoint-every N]
//
// With --snapshot the daemon warm-starts: the saved snapshot (from a
// previous run over the same deterministic topology) is served as epoch 0
// immediately, before any convergence has run — query it with route_query
// and watch age_ns count the staleness.
//
// --shards splits the publication store so a delta burst republishes only
// the shards it touched. --checkpoint-dir enables incremental
// checkpointing every N publishes (--checkpoint-every, default 1) into one
// fpss-snap v5 file, a bootstrap stream plus one appended catch-up stream
// per checkpoint; on restart the daemon recovers the newest complete
// stream from that directory and warm-starts from it — no --snapshot
// needed.
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
#include "net/client.h"
#include "net/remote_backend.h"
#include "net/server.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "service/snapshot.h"
#include "util/rng.h"

namespace {

using namespace fpss;

// The generator is seeded, so every run (and every restart of the daemon)
// over the same node count sees the identical network — which is what
// makes --snapshot warm starts sound.
/// The smallest network make_network builds: a tiered graph needs a core
/// of three, and the core is nodes / 12 + 2.
constexpr std::size_t kMinNodes = 12;

int usage() {
  std::printf(
      "usage: route_server [nodes] [readers] [cycles]\n"
      "       route_server --listen [port] [--nodes N] [--workers W]\n"
      "                    [--snapshot file.bin] [--shards K]\n"
      "                    [--checkpoint-dir DIR] [--checkpoint-every N]\n");
  return 2;
}

/// Reports an argument that did not parse, then the usage line.
int bad_argument(const char* what, const char* value) {
  std::printf("route_server: bad %s '%s'\n", what, value);
  return usage();
}

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

/// One reader: random queries against whatever epoch is current, checking
/// the cross-array invariant that only holds inside one complete snapshot.
void reader_loop(const service::RouteService& svc, std::uint64_t seed,
                 const std::atomic<bool>& stop, std::atomic<std::uint64_t>& reads,
                 std::atomic<std::uint64_t>& torn) {
  util::Rng rng(seed);
  const auto n = svc.node_count();
  while (!stop.load(std::memory_order_relaxed)) {
    const auto snap = svc.snapshot();
    const NodeId i = static_cast<NodeId>(rng.below(n));
    const NodeId j = static_cast<NodeId>(rng.below(n));
    const Cost c = snap->cost(i, j);
    if (c.is_infinite()) {
      reads.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Within one snapshot the stored route's transit costs must sum to the
    // stored route cost; across a torn pair of epochs they generally don't.
    Cost::rep along = 0;
    for (const NodeId k : snap->path(i, j))
      if (k != i && k != j) along += snap->node_cost(k).value();
    if (Cost{along} != c) torn.fetch_add(1, std::memory_order_relaxed);
    reads.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Remote-vs-local equivalence over the loopback: every request kind
/// (including deliberately bad ones) through a real socket must match the
/// in-process answer on every field but age_ns.
bool loopback_check(service::RouteService& svc) {
  net::ServerConfig server_config;
  server_config.workers = 2;
  net::RouteServer server(svc, server_config);
  if (!server.ok()) {
    std::printf("loopback: server failed: %s\n", server.error().c_str());
    return false;
  }
  net::ClientConfig client_config;
  client_config.port = server.port();
  net::RemoteQueryBackend remote_backend(client_config);
  if (const auto err = remote_backend.connect(); !err.ok()) {
    std::printf("loopback: connect failed: %s\n", err.message.c_str());
    return false;
  }

  const NodeId n = static_cast<NodeId>(svc.node_count());
  std::vector<service::Request> batch;
  util::Rng rng(7);
  for (int q = 0; q < 64; ++q) {
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

  const auto remote = remote_backend.query_batch(batch);
  if (!remote.ok()) {
    std::printf("loopback: query failed: %s\n", remote.error.c_str());
    return false;
  }
  const auto local = svc.query(batch);
  if (remote.replies.size() != local.size()) return false;
  for (std::size_t q = 0; q < local.size(); ++q)
    if (!service::same_answer(remote.replies[q], local[q])) {
      std::printf("loopback: answer %zu diverged\n", q);
      return false;
    }
  std::printf("loopback: %zu remote answers bit-identical to local query()\n",
              local.size());
  std::printf("%s\n",
              net::counters_table(server.counters_frame()).to_text().c_str());
  return true;
}

// --- daemon mode -----------------------------------------------------------

std::atomic<bool> g_shutdown{false};

void handle_signal(int) { g_shutdown.store(true, std::memory_order_relaxed); }

int run_daemon(std::uint16_t port, std::size_t nodes, unsigned workers,
               const std::string& snapshot_file, std::size_t shards,
               const std::string& checkpoint_dir,
               std::uint64_t checkpoint_every) {
  const graph::Graph g = make_network(nodes);

  std::shared_ptr<const service::RouteSnapshot> warm;
  if (!snapshot_file.empty()) {
    auto loaded = service::load_snapshot(snapshot_file);
    if (!loaded.ok()) {
      std::printf("cannot load snapshot %s: %s\n", snapshot_file.c_str(),
                  loaded.error.c_str());
      return 1;
    }
    if (loaded.snapshot->node_count() != g.node_count()) {
      std::printf("snapshot has %zu nodes but --nodes %zu generates %zu\n",
                  loaded.snapshot->node_count(), nodes, g.node_count());
      return 1;
    }
    warm = std::move(loaded.snapshot);
  } else if (!checkpoint_dir.empty()) {
    // A restarted daemon recovers from its own checkpoint directory: the
    // bootstrap stream plus every complete catch-up after it.
    auto recovered = service::load_checkpoint(checkpoint_dir);
    if (recovered.ok() && recovered.snapshot->node_count() == g.node_count()) {
      std::printf("route_server: recovered checkpoint v%llu (+%llu "
                  "catch-ups) from %s\n",
                  static_cast<unsigned long long>(
                      recovered.snapshot->version()),
                  static_cast<unsigned long long>(recovered.records_applied),
                  checkpoint_dir.c_str());
      warm = std::move(recovered.snapshot);
    }
  }

  service::ServiceConfig svc_config;
  svc_config.shards = shards;
  svc_config.checkpoint.directory = checkpoint_dir;
  svc_config.checkpoint.every_publishes = checkpoint_every;

  // Warm start serves the saved epoch instantly; cold start converges
  // first (blocking until snapshot v1 exists).
  service::RouteService svc =
      warm ? service::RouteService(g, std::move(warm), svc_config)
           : service::RouteService(g, svc_config);

  net::ServerConfig config;
  config.port = port;
  config.workers = workers;
  net::RouteServer server(svc, config);
  if (!server.ok()) {
    std::printf("route_server: %s\n", server.error().c_str());
    return 1;
  }
  std::printf("route_server: %zu nodes, %zu edges; %s v%llu\n",
              g.node_count(), g.edge_count(),
              snapshot_file.empty() ? "serving snapshot"
                                    : "warm-started at snapshot",
              static_cast<unsigned long long>(svc.version()));
  std::printf("route_server: listening on %s:%u (%u workers); "
              "Ctrl-C to stop\n",
              config.host.c_str(), server.port(), config.workers);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (!g_shutdown.load(std::memory_order_relaxed))
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::printf("\nroute_server: draining...\n");
  server.stop();
  std::printf("%s\n",
              net::counters_table(server.counters_frame()).to_text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fpss;

  // --- daemon mode ---------------------------------------------------------
  if (argc > 1 && std::strcmp(argv[1], "--listen") == 0) {
    std::uint16_t port = 0;
    std::size_t nodes = 60;
    unsigned workers = 4;
    std::string snapshot_file;
    std::size_t shards = 1;
    std::string checkpoint_dir;
    std::uint64_t checkpoint_every = 1;
    int arg = 2;
    if (arg < argc && argv[arg][0] != '-') {
      if (!examples::parse_number(argv[arg], port))
        return bad_argument("port", argv[arg]);
      ++arg;
    }
    // Every flag takes a value.
    for (; arg + 1 < argc; arg += 2) {
      const std::string flag = argv[arg];
      const char* const value = argv[arg + 1];
      bool ok = true;
      if (flag == "--nodes")
        ok = examples::parse_number(value, nodes, kMinNodes);
      else if (flag == "--workers")
        ok = examples::parse_number(value, workers, 1u);
      else if (flag == "--snapshot")
        snapshot_file = value;
      else if (flag == "--shards")
        ok = examples::parse_number(value, shards, std::size_t{1});
      else if (flag == "--checkpoint-dir")
        checkpoint_dir = value;
      else if (flag == "--checkpoint-every")
        ok = examples::parse_number(value, checkpoint_every, std::uint64_t{1});
      else
        return bad_argument("flag", flag.c_str());
      if (!ok) return bad_argument(flag.c_str(), value);
    }
    if (arg < argc) return bad_argument("flag", argv[arg]);
    return run_daemon(port, nodes, workers, snapshot_file, shards,
                      checkpoint_dir, checkpoint_every);
  }

  // --- self-test mode ------------------------------------------------------
  std::size_t nodes = 60;
  std::size_t readers = 4;
  std::size_t cycles = 3;
  if (argc > 4 || (argc > 1 && !examples::parse_number(argv[1], nodes,
                                                        kMinNodes)) ||
      (argc > 2 && !examples::parse_number(argv[2], readers)) ||
      (argc > 3 && !examples::parse_number(argv[3], cycles)))
    return usage();

  const graph::Graph g = make_network(nodes);
  service::RouteService svc(g);
  std::printf("route_server: %zu nodes, %zu edges; serving snapshot v%llu\n",
              g.node_count(), g.edge_count(),
              static_cast<unsigned long long>(svc.version()));

  // --- readers on, churn in the background -------------------------------
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> pool;
  for (std::size_t r = 0; r < readers; ++r)
    pool.emplace_back(reader_loop, std::cref(svc), 97 + r, std::cref(stop),
                      std::ref(reads), std::ref(torn));

  // Each cycle perturbs costs and forces a full re-convergence + publish
  // while the readers stay hot.
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    const NodeId node = static_cast<NodeId>(1 + cycle % (nodes - 1));
    svc.submit({service::RouteService::Delta::cost_change(
                    node, Cost{static_cast<Cost::rep>(2 + cycle)}),
                service::RouteService::Delta::cost_change(
                    0, Cost{static_cast<Cost::rep>(1 + cycle % 3)})});
    const auto version = svc.drain();
    std::printf("cycle %zu: republished v%llu (%llu reads so far)\n",
                cycle + 1, static_cast<unsigned long long>(version),
                static_cast<unsigned long long>(
                    reads.load(std::memory_order_relaxed)));
  }

  // --- traffic accounting -------------------------------------------------
  const NodeId src = 0;
  const NodeId dst = static_cast<NodeId>(nodes - 1);
  svc.charge(src, dst, 1000);
  svc.settle();
  svc.submit(service::RouteService::Delta::republish());
  svc.drain();

  stop.store(true, std::memory_order_relaxed);
  for (auto& t : pool) t.join();

  const auto total_reads = reads.load();
  const auto torn_reads = torn.load();
  std::printf("%zu readers: %llu reads, %llu torn\n", readers,
              static_cast<unsigned long long>(total_reads),
              static_cast<unsigned long long>(torn_reads));

  Cost::rep collected = 0;
  const auto snap = svc.snapshot();
  for (NodeId k = 0; k < snap->node_count(); ++k)
    collected += svc.payment(k);
  std::printf("payments after 1000 packets %u -> %u: %lld collected\n", src,
              dst, static_cast<long long>(collected));

  // --- persistence --------------------------------------------------------
  const std::string file = "route_server_snapshot.bin";
  if (auto saved = service::save_snapshot(*snap, file); !saved.ok()) {
    std::printf("save failed: %s\n", saved.error.c_str());
    return 1;
  }
  const auto loaded = service::load_snapshot(file);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.error.c_str());
    return 1;
  }
  const bool identical =
      loaded.snapshot->checksum() == snap->checksum() &&
      loaded.snapshot->version() == snap->version() &&
      loaded.snapshot->self_check();
  std::printf("snapshot v%llu saved + reloaded: checksum %016llx (%s)\n",
              static_cast<unsigned long long>(snap->version()),
              static_cast<unsigned long long>(snap->checksum()),
              identical ? "bit-identical" : "MISMATCH");
  std::remove(file.c_str());

  // --- remote front end ---------------------------------------------------
  const bool remote_ok = loopback_check(svc);

  const bool ok = torn_reads == 0 && identical && total_reads > 0 && remote_ok;
  std::printf(ok ? "route_server: OK\n" : "route_server: FAILED\n");
  return ok ? 0 : 1;
}
