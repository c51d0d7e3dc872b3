// Seed-corpus generator: writes one valid exemplar per fuzz-target input
// shape into <out_dir>/{wire,replication}/. Seeds are *valid* encodings
// produced by the repo's own encoders — the fuzzer's mutations then
// explore the boundary around validity, which is where parser bugs live.
// Re-run after a wire or stream format change and commit the refreshed
// corpus.
//
// The wire/ seeds are the same bytes on every run: every clock reading
// they would carry (reply stamps and ages, the counters frame) is pinned
// to a fixed value, so `diff -r` against the committed wire/ seeds shows
// exactly what a format change moved (CI runs that check). The two
// replication/ seeds are not: they embed the service's wall-clock publish
// stamp, which their root checksum covers, so they differ on every run
// and are refreshed only when the block stream format changes.
//
//   make_corpus <corpus_dir>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "net/wire.h"
#include "service/checkpoint.h"
#include "service/replication.h"
#include "service/service.h"
#include "service/snapshot.h"

namespace {

bool write_file(const std::filesystem::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

/// A seed for a harness with a mode selector: the selector byte followed
/// by the payload.
std::string with_selector(std::uint8_t selector, std::string_view payload) {
  std::string seed(1, static_cast<char>(selector));
  seed.append(payload);
  return seed;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// The replication harness' framing: 2-byte little-endian length prefixes.
/// Chunks larger than 64 KiB are split; the assembler does not care where
/// feed() boundaries fall inside its own records... which is exactly what
/// the harness fuzzes.
std::string chunk_stream(const std::vector<std::string>& chunks) {
  std::string stream;
  for (const std::string& chunk : chunks) {
    std::size_t pos = 0;
    while (pos < chunk.size() || (chunk.empty() && pos == 0)) {
      const std::size_t len = std::min<std::size_t>(chunk.size() - pos, 0xffff);
      stream.push_back(static_cast<char>(len & 0xff));
      stream.push_back(static_cast<char>((len >> 8) & 0xff));
      stream.append(chunk, pos, len);
      pos += len;
      if (chunk.empty()) break;
    }
  }
  return stream;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_corpus <corpus_dir>\n");
    return 2;
  }
  namespace fs = std::filesystem;
  const fs::path root = argv[1];
  fs::create_directories(root / "wire");
  fs::create_directories(root / "replication");

  using namespace fpss;

  // A small real service: 8-node ring with chords, 4 shards — big enough
  // that the replication seeds have multi-shard structure.
  graph::Graph g(8);
  for (NodeId v = 0; v < 8; ++v) {
    g.set_cost(v, Cost{static_cast<Cost::rep>(1 + v % 3)});
    g.add_edge(v, (v + 1) % 8);
  }
  g.add_edge(0, 4);
  g.add_edge(2, 6);
  service::ServiceConfig config;
  config.shards = 4;
  service::RouteService svc(g, config);

  bool ok = true;

  // --- wire seeds: one valid payload per selector ---------------------------
  {
    using namespace fpss::net;
    Hello hello;
    hello.max_batch = 64;
    HelloAck ack;
    ack.node_count = 8;
    ack.snapshot_version = 1;
    ack.max_batch = 4096;
    ErrorFrame err{WireStatus::kMalformed, "exemplar"};
    DeltaAck dack;
    dack.accepted = 2;
    dack.publish_count = 3;
    std::vector<service::Request> requests;
    {
      service::Request r;
      r.kind = service::RequestKind::kPrice;
      r.k = 1;
      r.i = 0;
      r.j = 5;
      requests.push_back(r);
      r.kind = service::RequestKind::kPath;
      requests.push_back(r);
    }
    std::vector<service::Reply> replies = svc.query(requests);
    for (service::Reply& reply : replies) {
      reply.published_at_ns = 1'700'000'000'000'000'000;
      reply.age_ns = 1500;
    }
    const std::vector<service::RouteService::Delta> deltas = {
        service::RouteService::Delta::cost_change(2, Cost{7}),
        service::RouteService::Delta::add_link(1, 6),
        service::RouteService::Delta::republish(),
    };
    const Await await{1, 200};
    const Await fetch{1, 0};  // a connection's first fetch: unparked
    PublishNotify notify;
    notify.snapshot_version = 1;
    notify.published_at_ns = 1'700'000'000'000'000'000;
    // Two peers and a replica section, so the seed reaches every decoder
    // branch of the counters frame; fixed values, not the service's
    // timing counters.
    CountersFrame frame;
    frame.service.queries = 40;
    frame.service.batches = 5;
    frame.service.total_ns = 90'000;
    frame.service.publishes = 2;
    frame.service.rows_rebuilt = 8;
    frame.server = {3, 12, 5, 1, 0};
    frame.peers.push_back({"127.0.0.1", 2, 40, 5, 1});
    frame.peers.push_back({"(other)", 1, 0, 0, 3});
    frame.has_replica = true;
    frame.replica.full_syncs = 1;
    frame.replica.hop_count = 1;
    const std::string counters = encode_counters(frame);

    const std::string payloads[13] = {
        encode_frame(FrameType::kHello, encode_hello(hello)),
        encode_hello(hello),
        encode_hello_ack(ack),
        encode_error(err),
        encode_u64(42),
        encode_delta_ack(dack),
        encode_requests(requests),
        encode_replies(replies),
        encode_deltas(deltas),
        encode_await(fetch),
        encode_publish_notify(notify),
        counters,
        encode_await(await),
    };
    static const char* names[13] = {
        "frame",     "hello",    "hello_ack", "error",  "u64",
        "delta_ack", "requests", "replies",   "deltas", "fetch",
        "publish_notify", "counters", "await"};
    for (std::uint8_t s = 0; s < 13; ++s)
      ok = write_file(root / "wire" / names[s],
                      with_selector(s, payloads[s])) &&
           ok;
  }

  // --- replication seeds: the harness' first byte picks the mode ---------
  // Wire mode (0): a full bootstrap chunk stream.
  {
    const auto cut = svc.store().export_cut();
    std::vector<std::uint32_t> sent(cut.shard_versions.size());
    for (std::size_t s = 0; s < sent.size(); ++s)
      sent[s] = static_cast<std::uint32_t>(s);
    std::vector<std::string> chunks;
    service::ReplicationCodec::encode_stream(
        *cut.newest, static_cast<std::uint32_t>(sent.size()), sent,
        [&chunks](std::string_view c) {
          chunks.emplace_back(c);
          return true;
        });
    ok = write_file(root / "replication" / "bootstrap",
                    with_selector(0, chunk_stream(chunks))) &&
         ok;
  }
  // Disk mode (1): a checkpoint file, a bootstrap plus one catch-up.
  {
    const fs::path dir = fs::temp_directory_path() / "fpss_make_corpus";
    fs::remove_all(dir);
    fs::create_directories(dir);
    service::CheckpointWriter writer(dir.string());
    ok = writer.on_publish(svc.snapshot()).empty() && ok;
    svc.submit(service::RouteService::Delta::cost_change(3, Cost{9}));
    svc.drain();
    ok = writer.on_publish(svc.snapshot()).empty() && ok;
    ok = writer.stats().checkpoints == 2 && ok;
    ok = write_file(root / "replication" / "checkpoint",
                    with_selector(1, read_file(writer.path()))) &&
         ok;
    fs::remove_all(dir);
  }

  if (!ok) {
    std::fprintf(stderr, "make_corpus: some seeds failed to write\n");
    return 1;
  }
  std::printf("corpus written under %s\n", root.string().c_str());
  return 0;
}
