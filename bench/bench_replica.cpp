// Replication-path economics (ISSUE 8): what the per-shard snapshot
// transfer buys a read replica over re-shipping the whole image.
//
//   * BM_ReplicationEncode      — codec cost of streaming every shard of a
//                                 converged snapshot into wire chunks;
//   * BM_ReplicationAssemble    — the replica side: reassembling a full
//                                 stream into a sealed, checksum-verified
//                                 snapshot (with and without a base to
//                                 adopt blocks from);
//   * BM_BootstrapFetch         — end-to-end over loopback: a cold replica
//                                 client's full fetch, bytes on the wire
//                                 reported as a counter;
//   * BM_DirtyCatchUpFetch      — the headline: catch-up after a delta
//                                 burst fetches O(dirty) shards — compare
//                                 its bytes/iteration against
//                                 BM_BootstrapFetch's at the same n.
//
// scripts/bench_baseline.sh runs this binary and records
// BENCH_replica.json so successive replication PRs have a trajectory.
#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "net/client.h"
#include "net/server.h"
#include "service/backend.h"
#include "service/replication.h"
#include "service/service.h"
#include "service/store.h"

namespace {

using namespace fpss;
using service::ReplicationCodec;
using service::RouteService;

RouteService make_service(std::size_t n, std::size_t shards) {
  service::ServiceConfig config;
  config.shards = shards;
  return RouteService(bench::internet_like(n, 16001), config);
}

std::vector<std::string> encode_full_stream(const RouteService& svc) {
  const auto cut = svc.store().export_cut();
  std::vector<std::uint32_t> sent(cut.shard_versions.size());
  for (std::size_t s = 0; s < sent.size(); ++s)
    sent[s] = static_cast<std::uint32_t>(s);
  std::vector<std::string> chunks;
  ReplicationCodec::encode_stream(
      *cut.newest, static_cast<std::uint32_t>(sent.size()), sent,
      [&chunks](std::string_view chunk) {
        chunks.emplace_back(chunk);
        return true;
      });
  return chunks;
}

/// Serves `inner`'s snapshot, in its layout, from a store of its own, but
/// reports the first `stale` shards as changed by a publish after the
/// served one, so a fetch from the served version replays the identical
/// `stale`-shard catch-up every time. Read-only.
class StaleShards final : public service::Backend {
 public:
  StaleShards(const service::Backend& inner, std::size_t stale)
      : stale_(stale) {
    const service::ShardedSnapshotStore::ExportCut cut = inner.export_cut();
    publish(cut.newest, cut.shard_versions.size());
  }

  service::SubmitAck submit_deltas(
      std::span<const service::Delta> /*deltas*/) override {
    service::SubmitAck ack;
    ack.status = service::SubmitAck::Status::kReadOnly;
    return ack;
  }
  std::uint64_t drain() override { return publish_count(); }
  service::ShardedSnapshotStore::ExportCut export_cut() const override {
    service::ShardedSnapshotStore::ExportCut cut = Backend::export_cut();
    for (std::size_t s = 0; s < stale_; ++s)
      cut.shard_versions[s] = cut.newest->version() + 1;
    return cut;
  }

 private:
  std::size_t stale_;
};

/// Args: {n}. Encoding every shard of one snapshot into wire chunks.
void BM_ReplicationEncode(benchmark::State& state) {
  RouteService svc =
      make_service(static_cast<std::size_t>(state.range(0)), 8);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto chunks = encode_full_stream(svc);
    for (const auto& c : chunks) bytes += c.size();
    benchmark::DoNotOptimize(chunks);
  }
  state.counters["stream_bytes"] =
      static_cast<double>(bytes) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ReplicationEncode)->Arg(64)->Arg(128)->Unit(
    benchmark::kMicrosecond);

/// Args: {n, with_base}. Reassembly into a sealed snapshot; with_base = 1
/// adopts every block by digest instead of materializing wire copies.
void BM_ReplicationAssemble(benchmark::State& state) {
  RouteService svc =
      make_service(static_cast<std::size_t>(state.range(0)), 8);
  const auto chunks = encode_full_stream(svc);
  const auto base = state.range(1) != 0 ? svc.snapshot() : nullptr;
  std::uint64_t adopted = 0;
  for (auto _ : state) {
    ReplicationCodec::Assembler assembler(base);
    for (const auto& chunk : chunks) assembler.feed(chunk);
    const auto result = assembler.finish();
    if (!result.ok()) state.SkipWithError(result.error.c_str());
    adopted += result.blocks_adopted;
    benchmark::DoNotOptimize(result);
  }
  state.counters["blocks_adopted"] =
      static_cast<double>(adopted) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ReplicationAssemble)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Unit(benchmark::kMicrosecond);

/// Args: {n}. The full bootstrap a cold replica performs: `since` = 0,
/// every shard over a real loopback socket.
void BM_BootstrapFetch(benchmark::State& state) {
  RouteService svc =
      make_service(static_cast<std::size_t>(state.range(0)), 8);
  net::RouteServer server(svc);
  if (!server.ok()) {
    state.SkipWithError(server.error().c_str());
    return;
  }
  net::ClientConfig config;
  config.port = server.port();
  net::RouteClient client(config);
  if (!client.connect().ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  // The sink keeps nothing: this times the transfer, not the assembly.
  const net::ChunkSink discard = [](std::string_view) { return true; };
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto fetched = client.fetch_snapshot({}, discard);
    if (!fetched.ok()) state.SkipWithError(fetched.error.message.c_str());
    bytes += fetched.bytes;
    benchmark::DoNotOptimize(fetched);
  }
  state.counters["wire_bytes"] =
      static_cast<double>(bytes) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_BootstrapFetch)->Arg(64)->Arg(128)->Unit(
    benchmark::kMicrosecond);

/// Args: {n, stale_shards}. Catch-up by a replica for which exactly
/// `stale_shards` of the 8 shards moved after the version it serves: only
/// those travel. wire_bytes against BM_BootstrapFetch at the same n is the
/// O(dirty) headline — 1/8 of the shards costs ~1/8 of the bytes.
void BM_DirtyCatchUpFetch(benchmark::State& state) {
  RouteService svc =
      make_service(static_cast<std::size_t>(state.range(0)), 8);
  StaleShards stale(svc, static_cast<std::size_t>(state.range(1)));
  net::RouteServer server(stale);
  if (!server.ok()) {
    state.SkipWithError(server.error().c_str());
    return;
  }
  net::ClientConfig config;
  config.port = server.port();
  net::RouteClient client(config);
  if (!client.connect().ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  // Bootstrap once; every iteration then replays the identical partial
  // catch-up from the bootstrap's version, unparked so it always streams.
  ReplicationCodec::Assembler assembler(nullptr);
  const auto booted = client.fetch_snapshot(
      {}, [&](std::string_view chunk) { return assembler.feed(chunk); });
  if (!booted.ok()) {
    state.SkipWithError(booted.error.message.c_str());
    return;
  }
  const auto base = assembler.finish();
  if (!base.ok()) {
    state.SkipWithError(base.error.c_str());
    return;
  }
  const net::Await since_base{base.snapshot->version(), 0};

  std::uint64_t bytes = 0;
  std::uint64_t shards = 0;
  for (auto _ : state) {
    ReplicationCodec::Assembler catch_up(base.snapshot);
    const auto fetched =
        client.fetch_snapshot(since_base, [&](std::string_view chunk) {
          return catch_up.feed(chunk);
        });
    if (!fetched.ok()) state.SkipWithError(fetched.error.message.c_str());
    const auto result = catch_up.finish();
    if (!result.ok()) state.SkipWithError(result.error.c_str());
    bytes += fetched.bytes;
    shards += result.shards_sent.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["wire_bytes"] =
      static_cast<double>(bytes) / static_cast<double>(state.iterations());
  state.counters["dirty_shards"] =
      static_cast<double>(shards) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_DirtyCatchUpFetch)
    ->Args({64, 1})
    ->Args({64, 4})
    ->Args({128, 1})
    ->Args({128, 4})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
