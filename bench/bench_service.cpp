// The serving layer's perf trajectory (ISSUE 3): what it costs to export,
// persist, publish, and — above all — query a RouteSnapshot.
//
//   * BM_SnapshotExport     — converged session -> flat snapshot arrays;
//   * BM_SnapshotSaveLoad   — "fpss-snap v6" round trip through disk;
//   * BM_QuerySingle        — query() on a batch of one price request: the
//                             full service read path (snapshot acquire,
//                             row lookup, reply, batch counters);
//   * BM_QueryBatch         — the same call amortizing one acquire over
//                             256 mixed queries;
//   * BM_QueryConcurrent    — query() on a batch of one cost request under
//                             benchmark-managed reader threads (the
//                             throughput headline);
//   * BM_PublishCycle       — a full delta -> reconverge -> publish cycle
//                             through the background updater.
//
// scripts/bench_baseline.sh runs this binary one extra time and records
// BENCH_service.json so successive serving-layer PRs have a trajectory.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "pricing/session.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "service/snapshot.h"
#include "util/rng.h"

namespace {

using namespace fpss;

std::shared_ptr<const service::RouteSnapshot> make_snapshot(std::size_t n) {
  pricing::Session session(bench::internet_like(n, 13001),
                           pricing::Protocol::kPriceVector);
  session.run();
  return service::RouteSnapshot::from_session(
      session, session.engine().converged_epochs());
}

void BM_SnapshotExport(benchmark::State& state) {
  const auto g = bench::internet_like(
      static_cast<std::size_t>(state.range(0)), 13001);
  pricing::Session session(g, pricing::Protocol::kPriceVector);
  session.run();
  for (auto _ : state) {
    auto snap = service::RouteSnapshot::from_session(
        session, session.engine().converged_epochs());
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(BM_SnapshotExport)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_SnapshotSaveLoad(benchmark::State& state) {
  const auto snap = make_snapshot(static_cast<std::size_t>(state.range(0)));
  const std::string path = "/tmp/fpss_bench_snap.bin";
  for (auto _ : state) {
    auto saved = service::save_snapshot(*snap, path);
    auto loaded = service::load_snapshot(path);
    benchmark::DoNotOptimize(loaded.snapshot);
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotSaveLoad)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_QuerySingle(benchmark::State& state) {
  static service::RouteService* svc = nullptr;
  if (state.thread_index() == 0 && svc == nullptr)
    svc = new service::RouteService(bench::internet_like(128, 13002));
  util::Rng rng(13003);
  const auto n = svc->node_count();
  service::Request request;
  request.kind = service::RequestKind::kPrice;
  for (auto _ : state) {
    request.i = static_cast<NodeId>(rng.below(n));
    request.j = static_cast<NodeId>(rng.below(n));
    request.k = static_cast<NodeId>(rng.below(n));
    benchmark::DoNotOptimize(svc->query({&request, 1}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QuerySingle);

void BM_QueryBatch(benchmark::State& state) {
  service::RouteService svc(bench::internet_like(128, 13004));
  util::Rng rng(13005);
  const auto n = svc.node_count();
  std::vector<service::Request> batch;
  for (int q = 0; q < 256; ++q) {
    service::Request request;
    request.kind = q % 2 == 0 ? service::RequestKind::kPrice
                              : service::RequestKind::kCost;
    request.k = static_cast<NodeId>(rng.below(n));
    request.i = static_cast<NodeId>(rng.below(n));
    request.j = static_cast<NodeId>(rng.below(n));
    batch.push_back(request);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.query(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_QueryBatch)->Unit(benchmark::kMicrosecond);

// Reader scaling: benchmark spawns the threads; every thread reads through
// the same store. Thread counts above the host's core count only measure
// oversubscription, so the sweep stays modest.
void BM_QueryConcurrent(benchmark::State& state) {
  static service::RouteService* svc = nullptr;
  if (state.thread_index() == 0 && svc == nullptr)
    svc = new service::RouteService(bench::internet_like(128, 13006));
  util::Rng rng(13007 + static_cast<std::uint64_t>(state.thread_index()));
  const auto n = svc->node_count();
  service::Request request;
  request.kind = service::RequestKind::kCost;
  for (auto _ : state) {
    request.i = static_cast<NodeId>(rng.below(n));
    request.j = static_cast<NodeId>(rng.below(n));
    benchmark::DoNotOptimize(svc->query({&request, 1}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QueryConcurrent)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

void BM_PublishCycle(benchmark::State& state) {
  const auto g = bench::internet_like(
      static_cast<std::size_t>(state.range(0)), 13008);
  service::RouteService svc(g);
  Cost::rep toggle = 5;
  for (auto _ : state) {
    svc.submit(service::RouteService::Delta::cost_change(0, Cost{toggle}));
    toggle = toggle == 5 ? 6 : 5;
    svc.drain();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PublishCycle)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace

BENCHMARK_MAIN();
