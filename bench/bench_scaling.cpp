// Microbenchmarks of the core computational kernels, for performance
// regressions and to back DESIGN.md's complexity notes:
//   * per-destination LCP Dijkstra (node costs, canonical tie-break);
//   * k-avoiding table construction, naive vs subtree engine;
//   * protocol cold starts under both schedulers (lockstep stages and
//     discrete-event delivery), and a barrier reconvergence after one cost
//     change;
//   * strategyproofness sweep for one node (whole-mechanism recomputation
//     per deviation — the cost of auditing incentives centrally).
//
// The protocol benchmarks also report `allocs`, heap allocations per
// iteration, counted by the replacement operator new below. The count is
// exact and repeats run to run, so it shows an allocation change the
// timings are too noisy to.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench_common.h"
#include "mechanism/strategyproof.h"
#include "payments/traffic.h"
#include "pricing/session.h"
#include "routing/dijkstra.h"
#include "routing/replacement.h"

namespace {

std::atomic<std::uint64_t> allocations{0};

}  // namespace

// GCC pairs the inlined free() below with the new-expression that made
// the block and reports a mismatch; the pair is this file's own.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
#pragma GCC diagnostic pop

namespace {

using namespace fpss;

/// Reports the heap allocations made since `before` as `allocs` per
/// iteration.
void report_allocs(benchmark::State& state, std::uint64_t before) {
  state.counters["allocs"] = benchmark::Counter(
      static_cast<double>(allocations.load(std::memory_order_relaxed) -
                          before),
      benchmark::Counter::kAvgIterations);
}

void BM_SinkTree(benchmark::State& state) {
  const auto g = bench::power_law(static_cast<std::size_t>(state.range(0)),
                                  11000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::compute_sink_tree(g, 0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SinkTree)->RangeMultiplier(2)->Range(64, 1024)->Complexity();

void BM_AvoidanceNaive(benchmark::State& state) {
  const auto g = bench::power_law(static_cast<std::size_t>(state.range(0)),
                                  11001);
  const auto tree = routing::compute_sink_tree(g, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::AvoidanceTable::compute_naive(g, tree));
  }
}
BENCHMARK(BM_AvoidanceNaive)->RangeMultiplier(2)->Range(64, 512)
    ->Unit(benchmark::kMicrosecond);

void BM_AvoidanceSubtree(benchmark::State& state) {
  const auto g = bench::power_law(static_cast<std::size_t>(state.range(0)),
                                  11001);
  const auto tree = routing::compute_sink_tree(g, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::AvoidanceTable::compute(g, tree));
  }
}
BENCHMARK(BM_AvoidanceSubtree)->RangeMultiplier(2)->Range(64, 512)
    ->Unit(benchmark::kMicrosecond);

void BM_ProtocolColdStart(benchmark::State& state) {
  const auto g = bench::internet_like(
      static_cast<std::size_t>(state.range(0)), 11002);
  const std::uint64_t before = allocations.load(std::memory_order_relaxed);
  for (auto _ : state) {
    pricing::Session session(g, pricing::Protocol::kPriceVector);
    benchmark::DoNotOptimize(session.run());
  }
  report_allocs(state, before);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ProtocolColdStart)->RangeMultiplier(2)->Range(32, 256)
    ->Unit(benchmark::kMillisecond);

void BM_ProtocolColdStartParallel(benchmark::State& state) {
  const auto g = bench::internet_like(
      static_cast<std::size_t>(state.range(0)), 11002);
  const unsigned threads = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    bgp::Network net(g, pricing::make_agent_factory(
                            pricing::Protocol::kPriceVector,
                            bgp::UpdatePolicy::kIncremental));
    bgp::Engine engine(net, threads);
    benchmark::DoNotOptimize(engine.run());
  }
}
BENCHMARK(BM_ProtocolColdStartParallel)
    ->ArgsProduct({benchmark::CreateRange(32, 256, /*multi=*/2),
                   {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

// The same cold start through the event scheduler: one heap event per
// message instead of one batch per stage. The gap between this curve and
// BM_ProtocolColdStart is the cost of modelling asynchrony.
void BM_ProtocolColdStartEvent(benchmark::State& state) {
  const auto g = bench::internet_like(
      static_cast<std::size_t>(state.range(0)), 11002);
  bgp::ChannelConfig channel;
  channel.seed = 11004;
  for (auto _ : state) {
    pricing::Session session(g, pricing::Protocol::kPriceVector,
                             bgp::EngineConfig::event(channel));
    benchmark::DoNotOptimize(session.run());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ProtocolColdStartEvent)->RangeMultiplier(2)->Range(32, 256)
    ->Unit(benchmark::kMillisecond);

// The kernel of a perfbench write_churn write: one cost change reconverged
// under the restart barrier (routes settle, then every price restarts at
// +infinity and refills). Node 0, a core AS, toggles between its cost and
// that cost + 5, so the iterations alternate a worsening and an improving
// event on one warm session. They run in such pairs, after one untimed
// pair has grown every buffer, so the per-iteration counts repeat exactly.
void BM_BarrierReconverge(benchmark::State& state) {
  const auto g = bench::internet_like(
      static_cast<std::size_t>(state.range(0)), 11002);
  pricing::Session session(g, pricing::Protocol::kPriceVector);
  session.run();
  const auto toggle = [&] {
    std::uint64_t sent = 0;
    for (const Cost cost : {g.cost(0) + Cost{5}, g.cost(0)})
      sent += session
                  .change_cost(0, cost, pricing::RestartPolicy::kRestartBarrier)
                  .messages;
    return sent;
  };
  toggle();
  std::uint64_t messages = 0;
  const std::uint64_t before = allocations.load(std::memory_order_relaxed);
  while (state.KeepRunningBatch(2)) messages += toggle();
  report_allocs(state, before);
  state.counters["messages"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BarrierReconverge)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_DeviationSweepOneNode(benchmark::State& state) {
  const auto g = bench::random_er(static_cast<std::size_t>(state.range(0)),
                                  11003);
  const auto traffic = payments::TrafficMatrix::uniform(g.node_count(), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mechanism::sweep_deviations(
        g, 0, traffic, mechanism::default_deviation_grid(g.cost(0))));
  }
}
BENCHMARK(BM_DeviationSweepOneNode)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
