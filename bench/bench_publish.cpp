// Publication-path economics (ISSUE 6): what incremental copy-on-write
// export buys over a full rebuild, as a function of how much of the
// network actually changed.
//
//   * BM_FullExport          — the baseline: every sink tree re-extracted;
//   * BM_IncrementalExport   — CoW export over a dirty set of {0, 1, 10,
//                              25, 50, 100}% of destinations, n x fraction
//                              sweep (the headline: cost tracks the dirty
//                              fraction, not n^2);
//   * BM_ShardedPublishCycle — the end-to-end service path: one cost
//                              delta -> reconverge -> dirty diff -> CoW
//                              export -> per-shard publish;
//   * BM_PublishSerial /     — PublishPipeline::run's incremental publish
//     BM_PublishPipelined      without a pool and with the pool widened to
//                              the hardware width, shards x dirty-fraction
//                              sweep (the pool parallelizes the export
//                              across dirty rows; the store swaps the
//                              dirty shards in one publish).
//
// scripts/bench_baseline.sh runs this binary and records
// BENCH_publish.json so successive publication PRs have a trajectory.
#include <benchmark/benchmark.h>

#include <memory>
#include <optional>
#include <vector>

#include "bench_common.h"
#include "bgp/engine.h"
#include "pricing/session.h"
#include "service/pipeline.h"
#include "service/service.h"
#include "service/snapshot.h"
#include "service/store.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace fpss;

void BM_FullExport(benchmark::State& state) {
  const auto g = bench::internet_like(
      static_cast<std::size_t>(state.range(0)), 16001);
  pricing::Session session(g, pricing::Protocol::kPriceVector);
  session.run();
  const std::uint64_t epoch = session.engine().converged_epochs();
  for (auto _ : state) {
    auto snap = service::RouteSnapshot::from_session(session, epoch);
    benchmark::DoNotOptimize(snap);
  }
  state.counters["rows"] = static_cast<double>(g.node_count());
}
BENCHMARK(BM_FullExport)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);

/// Args: {n, dirty_percent}. The session is converged once; the dirty set
/// is a synthetic prefix of the destinations (any superset of the true —
/// here empty — change set is a valid input, which is exactly what makes
/// the export cost a pure function of the dirty fraction).
void BM_IncrementalExport(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t pct = static_cast<std::size_t>(state.range(1));
  const auto g = bench::internet_like(n, 16001);
  pricing::Session session(g, pricing::Protocol::kPriceVector);
  session.run();
  const std::uint64_t epoch = session.engine().converged_epochs();
  const auto prev = service::RouteSnapshot::from_session(session, epoch);

  std::vector<NodeId> dirty;
  const std::size_t dirty_count = (g.node_count() * pct + 99) / 100;
  for (NodeId j = 0; j < dirty_count && j < g.node_count(); ++j)
    dirty.push_back(j);

  service::SnapshotExportStats stats;
  for (auto _ : state) {
    auto snap = service::RouteSnapshot::from_session_incremental(
        prev, session, epoch, dirty, nullptr, nullptr, &stats);
    benchmark::DoNotOptimize(snap);
  }
  state.counters["rows_rebuilt"] = static_cast<double>(stats.rows_rebuilt);
  state.counters["rows_reused"] = static_cast<double>(stats.rows_reused);
}
BENCHMARK(BM_IncrementalExport)
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({32, 10})
    ->Args({32, 25})
    ->Args({32, 50})
    ->Args({32, 100})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({64, 10})
    ->Args({64, 25})
    ->Args({64, 50})
    ->Args({64, 100})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({128, 10})
    ->Args({128, 25})
    ->Args({128, 50})
    ->Args({128, 100})
    ->Unit(benchmark::kMicrosecond);

/// One cost delta through the whole background pipeline: coalesce ->
/// reconverge -> dirty diff -> CoW export -> per-shard publish. Dominated
/// by reconvergence; the publication counters reported alongside show how
/// little of the snapshot the publish itself had to touch.
void BM_ShardedPublishCycle(benchmark::State& state) {
  service::ServiceConfig config;
  config.shards = static_cast<std::size_t>(state.range(1));
  service::RouteService svc(
      bench::internet_like(static_cast<std::size_t>(state.range(0)), 16002),
      config);
  util::Rng rng(16003);
  const auto n = svc.node_count();
  for (auto _ : state) {
    svc.submit(service::RouteService::Delta::cost_change(
        static_cast<NodeId>(rng.below(n)),
        Cost{static_cast<Cost::rep>(1 + rng.below(10))}));
    svc.drain();
  }
  const auto counters = svc.counters();
  state.counters["rows_reused"] = static_cast<double>(counters.rows_reused);
  state.counters["rows_rebuilt"] = static_cast<double>(counters.rows_rebuilt);
  state.counters["shards_swapped"] =
      static_cast<double>(counters.shards_republished);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardedPublishCycle)
    ->Args({64, 1})
    ->Args({64, 8})
    ->Unit(benchmark::kMillisecond);

/// Args: {n, shards, dirty_pct}. One converged session, one fixed dirty
/// set striped across the destination space (so it spans as many shards as
/// the fraction allows), published over and over through
/// PublishPipeline::run — the serial variant with no pool, the pooled
/// variant with the engine pool widened to the hardware width. The
/// benchmark names predate the removal of the staged per-shard fan-out;
/// every committed BM_PublishPipelined row measured this same inline path.
void publish_pipeline_cycle(benchmark::State& state, bool pooled) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t shards = static_cast<std::size_t>(state.range(1));
  const std::size_t pct = static_cast<std::size_t>(state.range(2));
  const auto g = bench::internet_like(n, 16001);
  pricing::Session session(g, pricing::Protocol::kPriceVector);
  session.run();
  util::ThreadPool* pool =
      pooled
          ? session.engine().ensure_pool(util::ThreadPool::hardware_threads())
          : nullptr;
  const std::uint64_t epoch = session.engine().converged_epochs();
  const auto prev = service::RouteSnapshot::from_session(session, epoch);

  std::vector<NodeId> dirty;
  const std::size_t count = (n * pct + 99) / 100;
  for (std::size_t i = 0; i < count; ++i)
    dirty.push_back(static_cast<NodeId>(i * n / count));
  const std::optional<std::vector<NodeId>> dirty_opt(dirty);

  service::ShardedSnapshotStore store(n, shards);
  store.publish(prev);
  service::PipelineStats stats;
  for (auto _ : state) {
    auto snap = service::PublishPipeline::run(store, prev, nullptr, session,
                                              epoch, dirty_opt, nullptr, pool,
                                              &stats);
    benchmark::DoNotOptimize(snap);
  }
  state.counters["rows_rebuilt"] = static_cast<double>(stats.rows_rebuilt);
  state.counters["shards_swapped"] =
      static_cast<double>(stats.shards_swapped);
}

void BM_PublishSerial(benchmark::State& state) {
  publish_pipeline_cycle(state, false);
}
void BM_PublishPipelined(benchmark::State& state) {
  publish_pipeline_cycle(state, true);
}

#define FPSS_PUBLISH_SWEEP(bench_name)     \
  BENCHMARK(bench_name)                    \
      ->Args({128, 1, 1})                  \
      ->Args({128, 1, 10})                 \
      ->Args({128, 1, 25})                 \
      ->Args({128, 4, 1})                  \
      ->Args({128, 4, 10})                 \
      ->Args({128, 4, 25})                 \
      ->Args({128, 16, 1})                 \
      ->Args({128, 16, 10})                \
      ->Args({128, 16, 25})                \
      ->Args({128, 16, 100})               \
      ->Unit(benchmark::kMicrosecond)

FPSS_PUBLISH_SWEEP(BM_PublishSerial);
FPSS_PUBLISH_SWEEP(BM_PublishPipelined);

#undef FPSS_PUBLISH_SWEEP

}  // namespace

BENCHMARK_MAIN();
