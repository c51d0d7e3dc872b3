// The remote transport's cost model: what fpss-wire adds on top of the
// in-process query path.
//
//   * BM_WireEncodeRequests  — request batch -> payload bytes (the
//                              client's send);
//   * BM_WireEncodeReplies   — typed replies -> payload bytes (the
//                              server's send, path vectors included);
//   * BM_WireDecodeReplies   — reply payload -> typed replies (the
//                              client's hot path, path vectors included);
//   * BM_FrameChecksum       — the XXH64 frame checksum over 212 B (a
//                              perfbench request), 826 B (its reply) and
//                              1 MiB (the payload limit), in bytes/s;
//   * BM_WireFrameOverhead   — the whole frame gate for one payload:
//                              encode_frame (header + checksum) at the
//                              sender, header validation and
//                              payload_checksum_ok at the receiver;
//   * BM_LoopbackQueryBatch  — full socket round trip against a live
//                              RouteServer on loopback, batches of 16
//                              (perfbench's) and 256 — the number to hold
//                              against BM_QueryBatch in bench_service (the
//                              delta is the wire);
//   * BM_LoopbackPipelined   — same bytes with 4 batches in flight,
//                              measuring what pipelining buys back.
//
// The loopback rows are timed by the wall clock (UseRealTime): a read that
// spins (net/socket_io.h) burns the calling thread's CPU while the round
// trip gets shorter, so CPU time, and items_per_second derived from it,
// would report the opposite of what a client sees.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_common.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/service.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace {

using namespace fpss;

std::vector<service::Request> make_batch(std::size_t n, std::size_t count) {
  util::Rng rng(14001);
  std::vector<service::Request> batch;
  for (std::size_t q = 0; q < count; ++q) {
    service::Request request;
    request.kind = q % 2 == 0 ? service::RequestKind::kPrice
                              : service::RequestKind::kCost;
    request.k = static_cast<NodeId>(rng.below(n));
    request.i = static_cast<NodeId>(rng.below(n));
    request.j = static_cast<NodeId>(rng.below(n));
    batch.push_back(request);
  }
  return batch;
}

void BM_WireEncodeRequests(benchmark::State& state) {
  const auto batch = make_batch(128, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::encode_requests(batch));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_WireEncodeRequests);

void BM_WireEncodeReplies(benchmark::State& state) {
  service::RouteService svc(bench::internet_like(128, 14002));
  const auto replies = svc.query(make_batch(svc.node_count(), 256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::encode_replies(replies));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_WireEncodeReplies);

void BM_WireDecodeReplies(benchmark::State& state) {
  service::RouteService svc(bench::internet_like(128, 14002));
  const auto batch = make_batch(svc.node_count(), 256);
  const std::string payload = net::encode_replies(svc.query(batch));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::decode_replies(payload, {}));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_WireDecodeReplies);

void BM_FrameChecksum(benchmark::State& state) {
  util::Rng rng(14005);
  std::string payload(static_cast<std::size_t>(state.range(0)), '\0');
  for (char& byte : payload) byte = static_cast<char>(rng.below(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::xxh64(payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameChecksum)->Arg(212)->Arg(826)->Arg(1 << 20);

void BM_WireFrameOverhead(benchmark::State& state) {
  const std::string payload = net::encode_requests(make_batch(128, 256));
  for (auto _ : state) {
    const std::string frame =
        net::encode_frame(net::FrameType::kQueryBatch, payload);
    const std::string_view bytes(frame);
    auto head = net::decode_frame_header(
        bytes.substr(0, net::kFrameHeaderBytes), {});
    benchmark::DoNotOptimize(head);
    benchmark::DoNotOptimize(net::payload_checksum_ok(
        head.header, bytes.substr(net::kFrameHeaderBytes)));
  }
}
BENCHMARK(BM_WireFrameOverhead);

void BM_LoopbackQueryBatch(benchmark::State& state) {
  service::RouteService svc(bench::internet_like(128, 14003));
  net::RouteServer server(svc);
  net::ClientConfig config;
  config.port = server.port();
  net::RouteClient client(config);
  if (!server.ok() || !client.connect().ok()) {
    state.SkipWithError("loopback setup failed");
    return;
  }
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  const auto batch = make_batch(svc.node_count(), batch_size);
  for (auto _ : state) {
    auto result = client.query(batch);
    if (!result.ok()) {
      state.SkipWithError(result.error.message.c_str());
      return;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_LoopbackQueryBatch)
    ->Arg(16)
    ->Arg(256)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_LoopbackPipelined(benchmark::State& state) {
  service::RouteService svc(bench::internet_like(128, 14004));
  net::RouteServer server(svc);
  net::ClientConfig config;
  config.port = server.port();
  net::RouteClient client(config);
  if (!server.ok() || !client.connect().ok()) {
    state.SkipWithError("loopback setup failed");
    return;
  }
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  const auto batch = make_batch(svc.node_count(), batch_size);
  constexpr int kInFlight = 4;
  for (auto _ : state) {
    for (int b = 0; b < kInFlight; ++b)
      if (!client.send(batch).ok()) {
        state.SkipWithError("send failed");
        return;
      }
    for (int b = 0; b < kInFlight; ++b) {
      auto result = client.receive();
      if (!result.ok()) {
        state.SkipWithError(result.error.message.c_str());
        return;
      }
      benchmark::DoNotOptimize(result);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch_size) * kInFlight);
}
BENCHMARK(BM_LoopbackPipelined)
    ->Arg(16)
    ->Arg(256)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
