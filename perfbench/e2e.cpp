// End-to-end serving benchmark over loopback.
//
// Runs the real serving stack in one process: service::RouteService behind
// net::RouteServer, read by net::RouteClient connections and written
// through submit_deltas; on mesh_leaf two replica::ReplicaService tiers,
// each behind its own RouteServer, sit between the primary and the
// clients. The load generator uses at most three threads and connections
// of its own, so it fits next to the server on a 4-core host.
//
//   e2e --workload query_mix|write_churn|mesh_leaf --seed N --seconds S
//       [--trace 0|1] [--trace-file PATH] [--commit ID]
//
// An untraced run (--trace 0) measures the end-to-end metrics. A traced
// run measures the first half of the window untraced and the second half
// traced, so the difference of the two halves is the tracing overhead;
// spans are recorded only here, around calls into each layer's public
// functions, and the layers' own counters are read at the window edges.
//
// Correctness is checked, not assumed: every reply must carry Status kOk,
// a seeded sample of remote replies is compared with an in-process query
// of the same tier while no write is in flight, and after the window every
// tier must hold content bit-identical to a cold RouteService built on the
// final graph. Any failure makes `correct` false and the exit code 1.
//
// The last stdout line is one JSON object with the verdict and every metric
// the workload produced; perfbench/run.py selects from it.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "graph/analysis.h"
#include "harness.h"
#include "net/client.h"
#include "net/remote_backend.h"
#include "net/server.h"
#include "net/wire.h"
#include "pricing/session.h"
#include "replica/replica.h"
#include "service/protocol.h"
#include "service/service.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_REFUSE
#define PERFBENCH_REFUSE "built outside perfbench/CMakeLists.txt"
#endif

namespace {

using namespace fpss;
using perfbench::now_ns;
using perfbench::Samples;
using perfbench::Series;
using perfbench::Trace;
using perfbench::Tracer;
using service::Reply;
using service::Request;
using service::RequestKind;
using service::RouteService;
using Delta = RouteService::Delta;
using Batch = std::vector<Request>;

constexpr std::size_t kBatchSize = 16;
constexpr std::size_t kPoolBatches = 512;
/// Reader batches between two attempts to verify a remote reply.
constexpr std::uint64_t kVerifyEvery = 64;
/// mesh_leaf: writes between two writer-side verifications.
constexpr std::uint64_t kWriterVerifyEvery = 16;
/// write_churn's open-loop schedule, in write operations per second. A
/// cost change drains in ~20-27 ms at n=64 next to the reader, a flap in
/// two of those, so this keeps the writer about a quarter busy. On a shared
/// host whose capacity swings 2-3x with CPU steal, a rate near capacity
/// turns every slow minute into an unbounded backlog; at this rate the
/// queue stays short. A 40 s window then holds ~480 submits: p50 and p90
/// are sound, p99 has ~5 samples beyond it and is reported, not gated.
constexpr double kChurnRate = 10.0;
/// write_churn: every kFlapEvery-th operation flaps a link (20%); the rest
/// change a node's cost. A fixed position, not a coin flip: runs of
/// back-to-back flaps would build a backlog whose size varies by seed.
constexpr std::size_t kFlapEvery = 5;
/// Upper bound on the deltas the traced run replays into a standalone
/// pricing::Session.
constexpr std::size_t kReplayDeltas = 200;
/// Set-up is repeated at least kSetupMin times and until kSetupBudgetNs
/// has been spent (at most kSetupMax times); setup_s is the median, so a
/// few-millisecond set-up is not one noisy sample.
constexpr int kSetupMin = 5;
constexpr int kSetupMax = 50;
constexpr std::uint64_t kSetupBudgetNs = 500'000'000;
/// Equal slices of the measured window; a run reports the median over
/// them of each statistic, so a burst of host noise cannot move it.
constexpr std::size_t kSlices = 8;
constexpr int kWaitMs = 10000;
/// Every workload serves the same topology; --seed varies the queries and
/// the writes. Topology drives reconvergence cost, so a per-seed graph
/// would make runs of one commit disagree more than commits do.
constexpr std::uint64_t kTopologySeed = 17001;

struct Spec {
  const char* name;
  std::size_t n;
  std::size_t shards;
  unsigned engine_threads;
  int depth;         ///< replica tiers between the primary and the clients
  unsigned readers;  ///< closed-loop query connections
  bool writes;       ///< one write connection beside the readers
};

// Why each workload exists: query_mix puts all the work on client -> wire
// -> server -> store acquire -> answer() with pricing, publish and replica
// idle; write_churn makes reconvergence, coalescing and the staged publish
// (engine pool width 2) do most of the work; mesh_leaf keeps reconvergence
// short so forward relay and replica sync carry a large share.
constexpr Spec kSpecs[] = {
    {"query_mix", 128, 8, 1, 0, 2, false},
    {"write_churn", 64, 8, 2, 0, 1, true},
    {"mesh_leaf", 24, 4, 1, 2, 1, true},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
  std::string commit = "unknown";
};

service::ServiceConfig service_config(const Spec& spec) {
  service::ServiceConfig config;
  config.shards = spec.shards;
  config.engine.threads = spec.engine_threads;
  return config;
}

// --- inputs ------------------------------------------------------------------

/// Seeded query batches: price 40%, cost 20%, path 15%, next-hop 15%,
/// pair-payment 5%, payment 5%. A price names a transit node of the
/// current path when there is one, so most prices are non-zero.
std::vector<Batch> make_batches(const service::RouteSnapshot& snap,
                                std::mt19937_64& rng) {
  const auto n = static_cast<NodeId>(snap.node_count());
  const auto node = [&] { return static_cast<NodeId>(rng() % n); };
  std::vector<Batch> pool(kPoolBatches);
  for (Batch& batch : pool) {
    for (std::size_t r = 0; r < kBatchSize; ++r) {
      Request q;
      q.i = node();
      do q.j = node(); while (q.j == q.i);
      const std::uint64_t pick = rng() % 100;
      if (pick < 40) {
        q.kind = RequestKind::kPrice;
        const graph::Path path = snap.path(q.i, q.j);
        q.k = path.size() > 2 ? path[1 + rng() % (path.size() - 2)] : node();
      } else if (pick < 60) {
        q.kind = RequestKind::kCost;
      } else if (pick < 75) {
        q.kind = RequestKind::kPath;
      } else if (pick < 90) {
        q.kind = RequestKind::kNextHop;
      } else if (pick < 95) {
        q.kind = RequestKind::kPairPayment;
      } else {
        q.kind = RequestKind::kPayment;
        q.k = node();
      }
      batch.push_back(q);
    }
  }
  return pool;
}

/// One scheduled write: a cost change, or a link flap (remove_link then
/// add_link on the same link, sent as two submits).
struct WriteOp {
  bool flap = false;
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  Cost cost;

  std::vector<Delta> deltas() const {
    if (flap) return {Delta::remove_link(u, v), Delta::add_link(u, v)};
    return {Delta::cost_change(u, cost)};
  }
};

/// A cost in [1, 10] different from node u's current one, applied to `g`.
Cost next_cost(graph::Graph& g, NodeId u, std::mt19937_64& rng) {
  auto c = static_cast<Cost::rep>(1 + rng() % 10);
  if (Cost{c} == g.cost(u)) c = c % 10 + 1;
  g.set_cost(u, Cost{c});
  return Cost{c};
}

/// write_churn's operation sequence. Flaps only touch links whose removal
/// keeps the graph biconnected, so every price stays defined.
std::vector<WriteOp> make_churn_ops(graph::Graph g, std::size_t count,
                                    std::mt19937_64& rng) {
  std::vector<std::pair<NodeId, NodeId>> flappable;
  for (const auto& [u, v] : g.edges()) {
    graph::Graph without = g;
    without.remove_edge(u, v);
    if (graph::is_biconnected(without)) flappable.emplace_back(u, v);
  }
  std::vector<WriteOp> ops(count);
  for (std::size_t i = 0; i < count; ++i) {
    WriteOp& op = ops[i];
    if (!flappable.empty() && i % kFlapEvery == kFlapEvery - 1) {
      const auto& [u, v] = flappable[rng() % flappable.size()];
      op = {true, u, v, Cost::zero()};
    } else {
      op.u = static_cast<NodeId>(rng() % g.node_count());
      op.cost = next_cost(g, op.u, rng);
    }
  }
  return ops;
}

void apply(graph::Graph& g, const WriteOp& op) {
  if (op.flap) {
    g.remove_edge(op.u, op.v);
    g.add_edge(op.u, op.v);
  } else {
    g.set_cost(op.u, op.cost);
  }
}

// --- the serving stack -------------------------------------------------------

/// A primary, its front, `depth` chained replica tiers each with a front,
/// and the benchmark's client connections to the last front.
struct Stack {
  Stack(const Spec& spec, const graph::Graph& g) : error(start(spec, g)) {}

  /// Builds the stack; returns why it failed, or "" on success.
  std::string start(const Spec& spec, const graph::Graph& g) {
    primary = std::make_unique<RouteService>(g, service_config(spec));
    net::ServerConfig front;  // daemon default: 4 workers
    fronts.push_back(std::make_unique<net::RouteServer>(*primary, front));
    if (!fronts.back()->ok()) return "bind: " + fronts.back()->error();
    for (int d = 0; d < spec.depth; ++d) {
      replica::ReplicaConfig config;
      config.upstream.port = fronts.back()->port();
      tiers.push_back(std::make_unique<replica::ReplicaService>(config));
      if (!tiers.back()->wait_until_ready(kWaitMs))
        return "replica bootstrap timed out";
      if (tiers.back()->wait_for_publish_beyond(primary->publish_count() - 1,
                                                kWaitMs) <
          primary->publish_count())
        return "replica never caught up";
      fronts.push_back(
          std::make_unique<net::RouteServer>(*tiers.back(), front));
      if (!fronts.back()->ok()) return "bind: " + fronts.back()->error();
    }
    net::ClientConfig client;
    client.port = fronts.back()->port();
    for (unsigned r = 0; r < spec.readers; ++r) {
      readers.push_back(std::make_unique<net::RouteClient>(client));
      if (!readers.back()->connect().ok()) return "reader connect";
    }
    if (!spec.writes) return "";
    if (spec.depth == 0) {
      writer = std::make_unique<net::RouteClient>(client);
      if (!writer->connect().ok()) return "writer connect";
    } else {
      leaf_writer = std::make_unique<net::RemoteQueryBackend>(client);
      if (!leaf_writer->connect().ok()) return "writer connect";
      // Opens the subscription the read-your-own-write wait uses.
      if (leaf_writer->wait_for_publish_beyond(0, kWaitMs) == 0)
        return "writer subscribe";
    }
    return "";
  }

  /// Clients first, then leaf-first: a front dies before the backend it
  /// serves, and a tier before the front it syncs from.
  ~Stack() {
    readers.clear();
    writer.reset();
    leaf_writer.reset();
    while (!fronts.empty()) {
      fronts.pop_back();
      if (!tiers.empty() && fronts.size() == tiers.size()) tiers.pop_back();
    }
    primary.reset();
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  bool ok() const { return error.empty(); }

  /// The tier the clients talk to, queried in-process.
  std::vector<Reply> local_query(const Batch& batch) const {
    return tiers.empty() ? primary->query(batch) : tiers.back()->query(batch);
  }
  service::ShardedSnapshotStore::View acquire() const {
    return tiers.empty() ? primary->store().acquire()
                         : tiers.back()->store()->acquire();
  }
  RouteService::Counters serving_counters() const {
    return tiers.empty() ? primary->counters() : tiers.back()->counters();
  }

  std::unique_ptr<RouteService> primary;
  std::vector<std::unique_ptr<net::RouteServer>> fronts;
  std::vector<std::unique_ptr<replica::ReplicaService>> tiers;
  std::vector<std::unique_ptr<net::RouteClient>> readers;
  std::unique_ptr<net::RouteClient> writer;
  std::unique_ptr<net::RemoteQueryBackend> leaf_writer;
  std::string error;
};

// --- load -------------------------------------------------------------------

struct Window {
  std::uint64_t start = 0;
  std::uint64_t traced_from = 0;  ///< == deadline on an untraced run
  std::uint64_t deadline = 0;

  Series untraced() const {
    return {start, traced_from,
            traced_from == deadline ? kSlices : kSlices / 2};
  }
  Series traced() const { return {traced_from, deadline, kSlices / 2}; }
};

/// Lets a verifier prove no write was in flight across its remote and
/// in-process reads: writers bump `started` before a submit and hold
/// `inflight` until the write is visible.
struct WriteGate {
  std::atomic<std::uint64_t> started{0};
  std::atomic<int> inflight{0};
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t verified = 0;

  void merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    verified += o.verified;
  }
};

void sleep_until_ns(std::uint64_t when) {
  for (std::uint64_t now = now_ns(); now < when; now = now_ns())
    std::this_thread::sleep_for(std::chrono::nanoseconds(when - now));
}

bool replies_ok(const std::vector<Reply>& replies, std::size_t expected) {
  if (replies.size() != expected) return false;
  return std::all_of(replies.begin(), replies.end(), [](const Reply& r) {
    return r.status == service::Status::kOk;
  });
}

bool same_answers(const std::vector<Reply>& a, const std::vector<Reply>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!service::same_answer(a[i], b[i])) return false;
  return true;
}

/// Compares `remote` with the tier's in-process answer when the gate shows
/// no write overlapped (`started_before` was read before the remote call).
void verify(const Stack& stack, const WriteGate& gate,
            std::uint64_t started_before, const Batch& batch,
            const std::vector<Reply>& remote, Tally& tally) {
  const std::vector<Reply> local = stack.local_query(batch);
  if (gate.started.load() != started_before) return;  // not provable
  if (same_answers(remote, local)) {
    ++tally.verified;
  } else {
    ++tally.failed;
  }
}

struct ReaderResult {
  explicit ReaderResult(const Window& window)
      : rtt_us(window.untraced()), traced_rtt_us(window.traced()) {}

  Tally tally;
  Series rtt_us;         ///< weighted by requests answered correctly
  Series traced_rtt_us;
  std::uint64_t traced_batches = 0;
  std::uint64_t request_bytes = 0;
  std::uint64_t reply_bytes = 0;
};

/// Closed loop: the next batch goes out when the previous replies are
/// decoded.
void run_reader(const Stack& stack, net::RouteClient& client,
                const std::vector<Batch>& pool, std::size_t first,
                const Window& window, const WriteGate& gate, Tracer* tracer,
                std::atomic<std::uint64_t>& request_ids, ReaderResult& out) {
  const net::WireLimits limits;
  for (std::size_t next = first;; ++next) {
    const Batch& batch = pool[next % pool.size()];
    const std::uint64_t start = now_ns();
    if (start >= window.deadline) break;
    const bool traced = tracer != nullptr && start >= window.traced_from;
    const bool verify_turn = out.tally.attempted % kVerifyEvery == 0;
    const std::uint64_t started_before = gate.started.load();
    const bool quiet = gate.inflight.load() == 0;
    ++out.tally.attempted;

    if (!traced) {
      const net::QueryResult result = client.query(batch);
      const std::uint64_t end = now_ns();
      if (!result.ok() || !replies_ok(result.replies, batch.size())) {
        ++out.tally.failed;
        continue;
      }
      out.rtt_us.add(start, static_cast<double>(end - start) / 1e3,
                     batch.size());
      if (verify_turn && quiet)
        verify(stack, gate, started_before, batch, result.replies, out.tally);
      continue;
    }

    Trace trace("query.batch", request_ids.fetch_add(1), start);
    std::uint64_t t = now_ns();
    const std::string request_bytes = net::encode_requests(batch);
    trace.span("wire.encode_requests", t, now_ns());
    t = now_ns();
    const net::RequestsResult decoded =
        net::decode_requests(request_bytes, limits.max_batch);
    trace.span("wire.decode_requests", t, now_ns());
    t = now_ns();
    const net::QueryResult result = client.query(batch);
    const std::uint64_t round_trip_end = now_ns();
    trace.span("net.roundtrip", t, round_trip_end);
    if (!result.ok() || !decoded.ok() ||
        !replies_ok(result.replies, batch.size())) {
      ++out.tally.failed;
      continue;
    }
    out.traced_rtt_us.add(t, static_cast<double>(round_trip_end - t) / 1e3,
                          batch.size());
    t = now_ns();
    const std::string reply_bytes = net::encode_replies(result.replies);
    trace.span("wire.encode_replies", t, now_ns());
    t = now_ns();
    const net::RepliesResult back = net::decode_replies(reply_bytes, limits);
    trace.span("wire.decode_replies", t, now_ns());
    t = now_ns();
    {
      const auto view = stack.acquire();
      trace.span("store.acquire", t, now_ns());
      if (view.empty()) ++out.tally.failed;
    }
    trace.finish(now_ns());
    tracer->submit(trace);
    if (!back.ok() || back.replies.size() != batch.size()) ++out.tally.failed;
    ++out.traced_batches;
    out.request_bytes += request_bytes.size();
    out.reply_bytes += reply_bytes.size();
    if (verify_turn && quiet)
      verify(stack, gate, started_before, batch, result.replies, out.tally);
  }
}

struct WriterResult {
  explicit WriterResult(const Window& window)
      : visible_ms(window.untraced()), traced_visible_ms(window.traced()) {}

  Tally tally;
  Series visible_ms;
  Series traced_visible_ms;
  Samples late_ms;            ///< open loop: actual send - scheduled send
  Samples submit_ms;          ///< mesh_leaf: submit -> forwarded ack
  Samples propagate_ms;       ///< mesh_leaf: ack -> visible at the leaf
  std::vector<WriteOp> completed;
};

/// write_churn: open loop. Operation i is due at start + i / kChurnRate
/// and is sent when due, or as soon as the previous one is acknowledged if
/// that is later. A primary acknowledges after the publish, so the ack
/// time is the visible time.
void run_churn_writer(const Stack& stack, net::RouteClient& client,
                      const std::vector<WriteOp>& ops,
                      const Window& window, WriteGate& gate, Tracer* tracer,
                      std::atomic<std::uint64_t>& request_ids,
                      WriterResult& out) {
  const auto gap_ns = static_cast<std::uint64_t>(1e9 / kChurnRate);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::uint64_t due = window.start + i * gap_ns;
    if (due >= window.deadline) break;
    sleep_until_ns(due);
    out.late_ms.add(static_cast<double>(now_ns() - due) / 1e6);
    bool ok = true;
    std::uint64_t from = due;  // the first submit is timed from its schedule
    for (const Delta& delta : ops[i].deltas()) {
      ++out.tally.attempted;
      gate.started.fetch_add(1);
      gate.inflight.fetch_add(1);
      const std::uint64_t send = now_ns();
      const net::SubmitResult ack = client.submit_deltas({&delta, 1});
      const std::uint64_t end = now_ns();
      gate.inflight.fetch_sub(1);
      if (!ack.ok() || ack.accepted != 1 ||
          stack.primary->publish_count() < ack.publish_count) {
        ++out.tally.failed;
        ok = false;
        break;
      }
      const double visible = static_cast<double>(end - from) / 1e6;
      if (tracer != nullptr && from >= window.traced_from) {
        Trace trace("write", request_ids.fetch_add(1), from);
        if (send > from) trace.span("gen.late", from, send);
        trace.span("write.submit", send, end);
        trace.finish(end);
        tracer->submit(trace);
        out.traced_visible_ms.add(from, visible);
      } else {
        out.visible_ms.add(from, visible);
      }
      from = now_ns();
    }
    if (ok) out.completed.push_back(ops[i]);
  }
}

/// mesh_leaf: closed loop at the leaf. Submit (forwarded two hops to the
/// primary), then wait until the leaf serves the acked publish: read your
/// own write. Every kWriterVerifyEvery writes, while the chain is quiet,
/// one remote batch is checked against the leaf's in-process answer.
void run_leaf_writer(const Stack& stack, const graph::Graph& initial,
                     const std::vector<Batch>& pool, std::uint64_t seed,
                     const Window& window, WriteGate& gate, Tracer* tracer,
                     std::atomic<std::uint64_t>& request_ids,
                     WriterResult& out) {
  net::RemoteQueryBackend& backend = *stack.leaf_writer;
  graph::Graph g = initial;
  std::mt19937_64 rng(seed ^ 0x1eafu);
  for (;;) {
    const std::uint64_t start = now_ns();
    if (start >= window.deadline) break;
    WriteOp op;
    op.u = static_cast<NodeId>(rng() % g.node_count());
    op.cost = next_cost(g, op.u, rng);
    const Delta delta = Delta::cost_change(op.u, op.cost);
    ++out.tally.attempted;
    gate.started.fetch_add(1);
    gate.inflight.fetch_add(1);
    const service::SubmitAck ack = backend.submit_deltas({&delta, 1});
    const std::uint64_t acked = now_ns();
    const std::uint64_t seen =
        ack.ok() ? backend.wait_for_publish_beyond(ack.publish_count - 1,
                                                   kWaitMs)
                 : 0;
    const std::uint64_t end = now_ns();
    gate.inflight.fetch_sub(1);
    if (!ack.ok() || ack.accepted != 1 || seen < ack.publish_count) {
      ++out.tally.failed;
      break;  // the leaf's state is unknown from here on
    }
    out.completed.push_back(op);
    const double visible = static_cast<double>(end - start) / 1e6;
    if (tracer != nullptr && start >= window.traced_from) {
      Trace trace("write", request_ids.fetch_add(1), start);
      trace.span("mesh.submit", start, acked);
      trace.span("mesh.propagate", acked, end);
      trace.finish(end);
      tracer->submit(trace);
      out.traced_visible_ms.add(start, visible);
      out.submit_ms.add(static_cast<double>(acked - start) / 1e6);
      out.propagate_ms.add(static_cast<double>(end - acked) / 1e6);
    } else {
      out.visible_ms.add(start, visible);
    }
    if (out.completed.size() % kWriterVerifyEvery == 0) {
      const Batch& batch = pool[rng() % pool.size()];
      const std::uint64_t started_before = gate.started.load();
      const service::QueryOutcome remote = backend.query_batch(batch);
      if (!remote.ok() || !replies_ok(remote.replies, batch.size())) {
        ++out.tally.failed;
      } else {
        verify(stack, gate, started_before, batch, remote.replies, out.tally);
      }
    }
  }
}

// --- per-layer replays -------------------------------------------------------

struct ReplayResult {
  Samples reconverge_ms;
  double messages = 0;
  double stages = 0;
  std::size_t deltas = 0;
};

/// Replays write_churn's delta sequence into a standalone pricing::Session
/// with the service's engine configuration.
ReplayResult replay_pricing(const Spec& spec, const graph::Graph& g,
                            const std::vector<WriteOp>& ops, Tracer& tracer) {
  ReplayResult out;
  pricing::Session session(g, pricing::Protocol::kPriceVector,
                           service_config(spec).engine);
  session.track_dirty_destinations(true);
  session.run();
  const auto policy = pricing::RestartPolicy::kRestartBarrier;
  Trace trace("pricing.replay", 0, now_ns());
  for (const WriteOp& op : ops) {
    for (const Delta& delta : op.deltas()) {
      if (out.deltas == kReplayDeltas) break;
      const std::uint64_t t = now_ns();
      bgp::RunStats stats;
      const char* name = "pricing.change_cost";
      switch (delta.kind) {
        case Delta::Kind::kCostChange:
          stats = session.change_cost(delta.u, delta.cost, policy);
          break;
        case Delta::Kind::kRemoveLink:
          stats = session.remove_link(delta.u, delta.v, policy);
          name = "pricing.remove_link";
          break;
        default:
          stats = session.add_link(delta.u, delta.v, policy);
          name = "pricing.add_link";
          break;
      }
      const std::uint64_t end = now_ns();
      trace.span(name, t, end);
      out.reconverge_ms.add(static_cast<double>(end - t) / 1e6);
      out.messages += static_cast<double>(stats.messages);
      out.stages += static_cast<double>(stats.stages);
      ++out.deltas;
    }
  }
  trace.finish(now_ns());
  tracer.submit(trace);
  return out;
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void flag(std::string what) { flags_.push_back(std::move(what)); }
  /// A line of the human-readable report only.
  void note(const std::string& what, const std::vector<double>& values) {
    std::ostringstream line;
    line << what << ':' << std::setprecision(6);
    for (double v : values) line << ' ' << v;
    notes_.push_back(line.str());
  }
  void print(std::ostream& os, bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    for (const Metric& m : metrics_)
      os << "  " << std::left << std::setw(34) << m.name << ' '
         << std::setprecision(10) << m.value << ' ' << m.unit << '\n';
    for (const std::string& n : notes_) os << "  " << n << '\n';
    for (const std::string& f : flags_) os << "  flag: " << f << '\n';
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      os << (i ? ", " : "") << '"' << metrics_[i].name
         << "\": {\"value\": " << std::setprecision(17) << metrics_[i].value
         << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    os << "}}" << std::endl;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> flags_;
};

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Write-path counters of the primary over the window.
void report_publish(Report& report, const RouteService::Counters& a,
                    const RouteService::Counters& b) {
  const std::uint64_t publishes = b.publishes - a.publishes;
  report.add("service.coalesced_frac",
             ratio(b.deltas_coalesced - a.deltas_coalesced,
                   b.deltas_applied - a.deltas_applied),
             "fraction");
  report.add("publish.ms_mean",
             ratio(b.publish_total_ns - a.publish_total_ns, publishes) / 1e6,
             "ms");
  report.add("publish.max_ms", static_cast<double>(b.max_publish_ns) / 1e6,
             "ms");
  const std::uint64_t rebuilt = b.rows_rebuilt - a.rows_rebuilt;
  report.add("publish.rows_rebuilt_frac",
             ratio(rebuilt, rebuilt + b.rows_reused - a.rows_reused),
             "fraction");
  report.add("publish.shards_per_publish",
             ratio(b.shards_republished - a.shards_republished, publishes),
             "count");
  report.add("publish.full_rebuilds",
             static_cast<double>(b.full_rebuilds - a.full_rebuilds), "count");
  report.add("publish.inflight_max",
             static_cast<double>(b.shard_exports_inflight_max), "count");
}

int run(const Options& options, const Spec& spec) {
  std::cout << "stamp: {\"workload\": \"" << spec.name
            << "\", \"seed\": " << options.seed
            << ", \"seconds\": " << options.seconds
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"commit\": \"" << options.commit
            << "\", \"compiler\": \"" << PERFBENCH_COMPILER
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"nproc\": " << std::thread::hardware_concurrency()
            << '}' << std::endl;

  // Set-up, timed several times; the last stack serves the run.
  Samples setup_s;
  graph::Graph initial(0);
  std::unique_ptr<Stack> stack;
  const std::uint64_t setup_start = now_ns();
  for (int rep = 0; rep < kSetupMax; ++rep) {
    if (rep >= kSetupMin && now_ns() - setup_start >= kSetupBudgetNs) break;
    stack.reset();
    const std::uint64_t t = now_ns();
    initial = bench::internet_like(spec.n, kTopologySeed);
    stack = std::make_unique<Stack>(spec, initial);
    setup_s.add(static_cast<double>(now_ns() - t) / 1e9);
    if (!stack->ok()) {
      std::cerr << "error: set-up failed: " << stack->error << '\n';
      return 1;
    }
  }

  std::mt19937_64 rng(options.seed);
  const std::vector<Batch> pool =
      make_batches(*stack->primary->snapshot(), rng);
  std::vector<WriteOp> churn_ops;
  if (spec.depth == 0 && spec.writes)
    churn_ops = make_churn_ops(
        initial, static_cast<std::size_t>(options.seconds * kChurnRate) + 1,
        rng);

  Tracer tracer;
  Tracer* traced = options.trace ? &tracer : nullptr;
  WriteGate gate;
  std::atomic<std::uint64_t> request_ids{1};
  Window window;
  window.start = now_ns() + 20'000'000;  // lets every thread reach its loop
  window.deadline =
      window.start + static_cast<std::uint64_t>(options.seconds * 1e9);
  window.traced_from =
      options.trace ? window.start + (window.deadline - window.start) / 2
                    : window.deadline;

  std::vector<ReaderResult> reader_results(spec.readers, ReaderResult(window));
  WriterResult writes(window);
  const RouteService::Counters primary_before = stack->primary->counters();
  const RouteService::Counters serving_before = stack->serving_counters();
  std::vector<net::ReplicaCounters> tiers_before;
  for (const auto& tier : stack->tiers)
    tiers_before.push_back(tier->replication_counters());
  {
    std::vector<std::jthread> threads;
    for (unsigned r = 0; r < spec.readers; ++r)
      threads.emplace_back([&, r] {
        sleep_until_ns(window.start);
        run_reader(*stack, *stack->readers[r], pool, r * kPoolBatches / 2,
                   window, gate, traced, request_ids, reader_results[r]);
      });
    if (spec.writes)
      threads.emplace_back([&] {
        if (spec.depth == 0) {
          run_churn_writer(*stack, *stack->writer, churn_ops, window, gate,
                           traced, request_ids, writes);
        } else {
          sleep_until_ns(window.start);
          run_leaf_writer(*stack, initial, pool, options.seed, window, gate,
                          traced, request_ids, writes);
        }
      });
  }
  const RouteService::Counters primary_after = stack->primary->counters();
  const double rss_mb = peak_rss_mb();

  // Verdict: tallies, then settle every tier and compare it bit for bit
  // with a cold service built on the final graph.
  Tally tally;
  for (const auto& r : reader_results) tally.merge(r.tally);
  tally.merge(writes.tally);
  graph::Graph final_graph = initial;
  for (const WriteOp& op : writes.completed) apply(final_graph, op);
  bool settled = true;
  {
    stack->primary->drain();
    const std::uint64_t target = stack->primary->publish_count();
    for (const auto& tier : stack->tiers)
      if (tier->wait_for_publish_beyond(target - 1, kWaitMs) < target)
        settled = false;
    RouteService cold(final_graph, service_config(spec));
    const std::uint64_t expected = cold.snapshot()->content_checksum();
    if (stack->primary->snapshot()->content_checksum() != expected)
      settled = false;
    for (const auto& tier : stack->tiers)
      if (tier->store()->newest()->content_checksum() != expected)
        settled = false;
  }
  if (!settled) ++tally.failed;
  ++tally.attempted;  // the settle check itself

  Report report;
  Series rtt_us = window.untraced(), traced_rtt_us = window.traced();
  for (const auto& r : reader_results) {
    rtt_us.merge(r.rtt_us);
    traced_rtt_us.merge(r.traced_rtt_us);
  }
  const Series& visible_ms = writes.visible_ms;

  // Throughput and p50/p90 are medians over the window's slices; p99 is
  // pooled over the whole window (a slice holds too few samples for it).
  report.add("query_qps", rtt_us.rate_median(), "requests/s");
  report.add("query_p50_us", rtt_us.slice_median(0.5), "us");
  report.add("query_p90_us", rtt_us.slice_median(0.9), "us");
  report.add("query_p99_us", rtt_us.quantile(0.99), "us");
  report.note("query_p50_us by slice", rtt_us.per_slice(0.5));
  report.add("query_samples", static_cast<double>(rtt_us.count()), "count");
  if (spec.writes) {
    report.add("write_visible_p50_ms", visible_ms.slice_median(0.5), "ms");
    report.add("write_visible_p90_ms", visible_ms.slice_median(0.9), "ms");
    report.add("write_visible_p99_ms", visible_ms.quantile(0.99), "ms");
    report.note("write_visible_p50_ms by slice", visible_ms.per_slice(0.5));
    report.add("write_samples", static_cast<double>(visible_ms.count()),
               "count");
  }
  if (spec.depth == 0 && spec.writes) {
    const double gap_ms = 1e3 / kChurnRate;
    report.add("gen_late_p99_ms", writes.late_ms.quantile(0.99), "ms");
    if (writes.late_ms.max() > gap_ms) {
      std::ostringstream f;
      f << "generator fell behind its schedule by " << writes.late_ms.max()
        << " ms, more than one inter-arrival gap (" << gap_ms << " ms)";
      report.flag(f.str());
    }
  }
  report.add("error_rate", ratio(tally.failed, tally.attempted), "fraction");
  report.add("verified_batches", static_cast<double>(tally.verified), "count");
  report.add("setup_s", setup_s.quantile(0.5), "s");
  report.add("peak_rss_mb", rss_mb, "MB");
  if (rtt_us.count() < 1000 ||
      (spec.writes && visible_ms.count() < 1000))
    report.flag("fewer than 1000 samples behind a p99");

  if (options.trace) {
    // Per-layer metrics from the traced half.
    const auto mean = [&](const char* name) {
      const Tracer::Layer* layer = tracer.layer(name);
      return layer == nullptr ? 0.0 : layer->mean_ns();
    };
    std::uint64_t traced_batches = 0, request_bytes = 0, reply_bytes = 0;
    for (const auto& r : reader_results) {
      traced_batches += r.traced_batches;
      request_bytes += r.request_bytes;
      reply_bytes += r.reply_bytes;
    }
    // Server-side evaluation per batch at the serving tier, whole window.
    const RouteService::Counters serving_after = stack->serving_counters();
    const double batch_ns =
        ratio(serving_after.total_ns - serving_before.total_ns,
              serving_after.batches - serving_before.batches);
    const double wire_ns =
        mean("wire.encode_requests") + mean("wire.decode_requests") +
        mean("wire.encode_replies") + mean("wire.decode_replies");
    report.add("wire.encode_requests_ns", mean("wire.encode_requests"), "ns");
    report.add("wire.decode_requests_ns", mean("wire.decode_requests"), "ns");
    report.add("wire.encode_replies_ns", mean("wire.encode_replies"), "ns");
    report.add("wire.decode_replies_ns", mean("wire.decode_replies"), "ns");
    report.add("wire.request_bytes", ratio(request_bytes, traced_batches),
               "bytes");
    report.add("wire.reply_bytes", ratio(reply_bytes, traced_batches), "bytes");
    report.add("service.batch_ns", batch_ns, "ns");
    report.add("store.acquire_ns", mean("store.acquire"), "ns");
    report.add("server.transport_us",
               (mean("net.roundtrip") - wire_ns - batch_ns) / 1e3, "us");
    net::ServerCounters server;
    for (const auto& front : stack->fronts) {
      const net::ServerCounters s = front->stats();
      server.rejected_frames += s.rejected_frames;
      server.timeouts += s.timeouts;
    }
    report.add("server.rejected_frames",
               static_cast<double>(server.rejected_frames), "count");
    report.add("server.timeouts", static_cast<double>(server.timeouts),
               "count");
    report.add("trace.overhead_query_p50_us",
               traced_rtt_us.slice_median(0.5) - rtt_us.slice_median(0.5),
               "us");
    if (spec.writes) {
      report.add("trace.overhead_write_visible_p50_ms",
                 writes.traced_visible_ms.slice_median(0.5) -
                     visible_ms.slice_median(0.5),
                 "ms");
      report_publish(report, primary_before, primary_after);
    }
    if (spec.depth == 0 && spec.writes) {
      const ReplayResult replay =
          replay_pricing(spec, initial, churn_ops, tracer);
      report.add("pricing.reconverge_p50_ms",
                 replay.reconverge_ms.quantile(0.5), "ms");
      report.add("pricing.reconverge_p99_ms",
                 replay.reconverge_ms.quantile(0.99), "ms");
      report.add("pricing.replayed_deltas", static_cast<double>(replay.deltas),
                 "count");
      report.add("bgp.messages_per_write",
                 replay.messages / static_cast<double>(replay.deltas), "count");
      report.add("bgp.stages_per_write",
                 replay.stages / static_cast<double>(replay.deltas), "count");
    }
    if (spec.depth > 0) {
      report.add("mesh.submit_ms", writes.submit_ms.quantile(0.5), "ms");
      report.add("mesh.propagate_ms", writes.propagate_ms.quantile(0.5), "ms");
      for (std::size_t d = 0; d < stack->tiers.size(); ++d) {
        const net::ReplicaCounters& a = tiers_before[d];
        const net::ReplicaCounters b = stack->tiers[d]->replication_counters();
        const std::string tier = "replica.r" + std::to_string(d + 1) + '.';
        const std::uint64_t syncs =
            b.delta_syncs + b.full_syncs - a.delta_syncs - a.full_syncs;
        report.add(tier + "bytes_per_sync",
                   ratio(b.bytes_fetched - a.bytes_fetched, syncs), "bytes");
        report.add(tier + "shards_per_sync",
                   ratio(b.shards_fetched - a.shards_fetched, syncs), "count");
        report.add(tier + "notifies_coalesced",
                   static_cast<double>(b.notifies_coalesced -
                                       a.notifies_coalesced),
                   "count");
        report.add(tier + "full_syncs", static_cast<double>(b.full_syncs),
                   "count");
        report.add(tier + "resyncs", static_cast<double>(b.resyncs), "count");
        report.add(tier + "forward_retries",
                   static_cast<double>(b.forward_retries), "count");
        report.add(tier + "forward_rejected",
                   static_cast<double>(b.forward_rejected), "count");
        if (b.full_syncs != 1)
          report.flag(tier + "full_syncs is not 1: a tier re-bootstrapped");
      }
    }
    // Self time per span name, from each span and the children it covers.
    std::cout << "layers (traced half): name count mean_ns mean_self_ns\n";
    for (const auto& [name, layer] : tracer.layers())
      std::cout << "  " << std::left << std::setw(24) << name << ' '
                << layer.count << ' ' << std::setprecision(6)
                << layer.mean_ns() << ' ' << layer.mean_self_ns() << '\n';
    if (!options.trace_file.empty() && !tracer.write(options.trace_file))
      std::cerr << "warning: could not write " << options.trace_file << '\n';
  }

  const bool correct = tally.failed == 0 && settled && tally.verified > 0;
  if (tally.verified == 0) report.flag("no reply could be verified");
  if (!settled)
    report.flag("a tier does not match a cold build of the final graph");
  report.print(std::cout, correct, tally.attempted, tally.failed);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string refuse = PERFBENCH_REFUSE;
  if (!refuse.empty()) {
    std::cerr << "error: refusing to measure: " << refuse << '\n';
    return 2;
  }
  Options options;
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string key = argv[a];
    const std::string value = argv[a + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--trace-file") {
      options.trace_file = value;
    } else if (key == "--commit") {
      options.commit = value;
    } else {
      std::cerr << "error: unknown option " << key << '\n';
      return 2;
    }
  }
  for (const Spec& spec : kSpecs)
    if (options.workload == spec.name && options.seconds > 0)
      return run(options, spec);
  std::cerr << "usage: e2e --workload query_mix|write_churn|mesh_leaf "
               "--seed N --seconds S [--trace 0|1] [--trace-file PATH] "
               "[--commit ID]\n";
  return 2;
}
