// Chained-mesh economics (PR 9): what each replica hop costs.
//
//   * BM_ChainPropagation    — a publish at the primary until it is
//                              visible at the leaf of a depth-1..4 chain
//                              (parked fetch answered -> dirty stream
//                              -> install, once per tier). The
//                              per-depth growth IS the staleness
//                              compounding the hop-aware counters
//                              report; leaf_sync_lag_ns is the
//                              replica's own last measurement of it.
//   * BM_ChainForwardedWrite — the full write story at depth: a delta
//                              submitted at the leaf forwards hop by hop
//                              to the primary, and the iteration ends
//                              when the leaf's chain clock reaches the
//                              ack — submit + relay + publish + propagate
//                              back down, i.e. read-your-own-write
//                              latency for the deepest tier.
//
// The chain is built OUTSIDE the timing loop (servers bound, replicas
// synced); iterations measure steady-state churn only.
// scripts/bench_baseline.sh records BENCH_chain.json so successive mesh
// PRs have a trajectory.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "net/server.h"
#include "replica/replica.h"
#include "service/service.h"

namespace {

using namespace fpss;
using replica::ReplicaConfig;
using replica::ReplicaService;
using service::RouteService;

RouteService make_service(std::size_t n, std::size_t shards) {
  service::ServiceConfig config;
  config.shards = shards;
  return RouteService(bench::internet_like(n, 17001), config);
}

/// A primary fronted by `depth` chained forwarding replicas; tier d syncs
/// from (and forwards through) fronts[d]. The leaf has no front of its
/// own — the benchmark drives it in-process.
struct Chain {
  Chain(std::size_t n, int depth) : primary(make_service(n, 2)) {
    net::ServerConfig front_config;
    front_config.workers = 6;
    fronts.push_back(
        std::make_unique<net::RouteServer>(primary, front_config));
    if (!fronts.back()->ok()) return;
    for (int d = 0; d < depth; ++d) {
      ReplicaConfig config;
      config.upstream.port = fronts.back()->port();
      tiers.push_back(std::make_unique<ReplicaService>(config));
      if (!tiers.back()->wait_until_ready(10000)) return;
      tiers.back()->wait_for_publish_beyond(primary.publish_count() - 1,
                                            10000);
      if (d + 1 < depth) {
        fronts.push_back(
            std::make_unique<net::RouteServer>(*tiers.back(), front_config));
        if (!fronts.back()->ok()) return;
      }
    }
    ok = true;
  }

  /// Leaf-first teardown: a front must outlive the tier syncing from it,
  /// and die before the backend it serves.
  ~Chain() {
    while (!tiers.empty()) {
      tiers.pop_back();
      fronts.pop_back();
    }
  }

  ReplicaService& leaf() { return *tiers.back(); }

  RouteService primary;
  std::vector<std::unique_ptr<net::RouteServer>> fronts;
  std::vector<std::unique_ptr<ReplicaService>> tiers;
  bool ok = false;
};

/// Args: {depth}. Primary-side publish until leaf visibility.
void BM_ChainPropagation(benchmark::State& state) {
  Chain chain(24, static_cast<int>(state.range(0)));
  if (!chain.ok) {
    state.SkipWithError("chain bootstrap failed");
    return;
  }
  std::uint64_t tick = 0;
  for (auto _ : state) {
    chain.primary.submit({RouteService::Delta::cost_change(
        static_cast<NodeId>(tick % 24),
        Cost{static_cast<Cost::rep>(1 + tick % 9)})});
    chain.primary.drain();
    ++tick;
    const std::uint64_t count = chain.primary.publish_count();
    if (chain.leaf().wait_for_publish_beyond(count - 1, 10000) < count)
      state.SkipWithError("leaf never caught up");
  }
  state.counters["hops"] = static_cast<double>(chain.leaf().hop_count());
  state.counters["leaf_sync_lag_ns"] = static_cast<double>(
      chain.leaf().replication_counters().sync_lag_ns);
}
BENCHMARK(BM_ChainPropagation)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Args: {depth}. Leaf-submitted write until the leaf serves it.
void BM_ChainForwardedWrite(benchmark::State& state) {
  Chain chain(24, static_cast<int>(state.range(0)));
  if (!chain.ok) {
    state.SkipWithError("chain bootstrap failed");
    return;
  }
  std::uint64_t tick = 0;
  for (auto _ : state) {
    const auto ack =
        chain.leaf().submit_deltas(std::vector<RouteService::Delta>{
            RouteService::Delta::cost_change(
                static_cast<NodeId>(tick % 24),
                Cost{static_cast<Cost::rep>(1 + tick % 9)})});
    ++tick;
    if (!ack.ok()) {
      state.SkipWithError("forwarded write failed");
      continue;
    }
    if (chain.leaf().wait_for_publish_beyond(ack.publish_count - 1, 10000) <
        ack.publish_count)
      state.SkipWithError("write never became visible at the leaf");
  }
  state.counters["hops"] = static_cast<double>(chain.leaf().hop_count());
  state.counters["forwarded"] = static_cast<double>(
      chain.leaf().replication_counters().deltas_forwarded);
}
BENCHMARK(BM_ChainForwardedWrite)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
