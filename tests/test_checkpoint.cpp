// Persistence as recorded block streams ("fpss-snap v6"): a saved image is
// one bootstrap stream, and a checkpoint file appends one catch-up stream
// per checkpoint.
//
// The load-bearing properties:
//   1. bootstrap + catch-up replay reloads *bit-identically* (same root
//      checksum, same provenance) to a full-image save/load of the same
//      snapshot.
//   2. A catch-up after a k-destination burst costs O(k) blocks, not
//      O(n^2) — counter-asserted against the base image size.
//   3. Crash safety: truncating the file at EVERY byte prefix recovers the
//      newest complete stream, never a corrupt one (self_check asserted);
//      a compaction that died before its rename leaves the old file
//      loadable; a failed append never strands the checkpoints after it.
//   4. No per-record checksum is needed: every single-byte flip of a saved
//      image is rejected, and a flip in a catch-up only ever falls back to
//      a state that was written.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "pricing/session.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "service/snapshot.h"

namespace fpss {
namespace {

using pricing::RestartPolicy;
using pricing::Session;
using service::CheckpointWriter;
using service::RouteService;
using service::RouteSnapshot;
using service::ServiceConfig;
using service::SnapshotLoadResult;
using service::load_checkpoint;
using service::load_snapshot;
using service::load_snapshot_bytes;
using service::save_snapshot;

// `count` disjoint `len`-cycles: a cost change inside one component keeps
// every other component's sink trees bit-identical, so the dirty fraction
// of a burst is controllable.
graph::Graph ring_components(std::size_t count, std::size_t len) {
  graph::Graph g{static_cast<NodeId>(count * len)};
  for (std::size_t c = 0; c < count; ++c) {
    const NodeId base = static_cast<NodeId>(c * len);
    for (std::size_t v = 0; v < len; ++v) {
      g.add_edge(base + static_cast<NodeId>(v),
                 base + static_cast<NodeId>((v + 1) % len));
      g.set_cost(base + static_cast<NodeId>(v),
                 Cost{static_cast<Cost::rep>(1 + c + v)});
    }
  }
  return g;
}

std::string fresh_dir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "fpss_" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::shared_ptr<const RouteSnapshot> export_now(Session& session) {
  return RouteSnapshot::from_session(session,
                                     session.engine().converged_epochs());
}

// --- bootstrap + catch-ups == full image ------------------------------------

TEST(Checkpoint, BaseAndJournalReloadBitIdenticalToFullImage) {
  const std::string dir = fresh_dir("ckpt_roundtrip");
  Session session(ring_components(4, 6), pricing::Protocol::kPriceVector);
  ASSERT_TRUE(session.run().converged);

  CheckpointWriter writer(dir);
  auto snap = export_now(session);
  ASSERT_EQ(writer.on_publish(snap), "");
  EXPECT_EQ(writer.stats().checkpoints, 1u);
  EXPECT_EQ(writer.stats().patches, 0u);  // the first write is the base

  // Three single-component bursts, each checkpointed as a catch-up.
  const NodeId touched[] = {1, 7, 13};
  for (const NodeId v : touched) {
    ASSERT_TRUE(
        session.change_cost(v, Cost{40}, RestartPolicy::kRestartBarrier)
            .converged);
    snap = export_now(session);
    ASSERT_EQ(writer.on_publish(snap), "");
  }
  EXPECT_EQ(writer.stats().checkpoints, 4u);
  EXPECT_GT(writer.stats().patches, 0u);

  const SnapshotLoadResult loaded = load_checkpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.records_applied, 3u);
  EXPECT_TRUE(loaded.snapshot->self_check());

  // Bit-identical to a full-image save/load of the same snapshot: same
  // root checksum (which covers provenance), stamp for stamp.
  const auto saved = save_snapshot(*snap, dir + "/full.fpss-snap");
  ASSERT_TRUE(saved.ok()) << saved.error;
  const auto full = load_snapshot(dir + "/full.fpss-snap");
  ASSERT_TRUE(full.ok()) << full.error;
  EXPECT_EQ(loaded.snapshot->checksum(), full.snapshot->checksum());
  EXPECT_EQ(loaded.snapshot->checksum(), snap->checksum());
  EXPECT_EQ(loaded.snapshot->version(), snap->version());
  EXPECT_EQ(loaded.snapshot->published_at_ns(), snap->published_at_ns());
  EXPECT_EQ(loaded.snapshot->content_checksum(), snap->content_checksum());
  EXPECT_EQ(loaded.snapshot->node_cost(13), Cost{40});
}

// --- the acceptance criterion: O(k) patch bytes -----------------------------

TEST(Checkpoint, PatchBytesAreProportionalToDirtyNotToN) {
  const std::string dir = fresh_dir("ckpt_odirty");
  // 24 destinations in four components; a burst in one component can dirty
  // at most 6 of them.
  Session session(ring_components(4, 6), pricing::Protocol::kPriceVector);
  ASSERT_TRUE(session.run().converged);

  CheckpointWriter writer(dir);
  ASSERT_EQ(writer.on_publish(export_now(session)), "");
  const std::uint64_t base_bytes = writer.stats().bytes_written;
  ASSERT_GT(base_bytes, 0u);

  // One-node burst: the catch-up carries only the genuinely changed
  // blocks (digest diff), a quarter of the network at most.
  ASSERT_TRUE(
      session.change_cost(2, Cost{35}, RestartPolicy::kRestartBarrier)
          .converged);
  ASSERT_EQ(writer.on_publish(export_now(session)), "");
  const std::uint64_t patch_bytes = writer.stats().bytes_written - base_bytes;
  ASSERT_GT(patch_bytes, 0u);
  EXPECT_LT(patch_bytes * 2, base_bytes)
      << "patch " << patch_bytes << "B vs base " << base_bytes << "B";
  EXPECT_GE(writer.stats().patches, 1u);
  EXPECT_LE(writer.stats().patches, 6u);  // the touched component only
}

// --- crash recovery at every file prefix ------------------------------------

TEST(Checkpoint, RecoversNewestCompleteStateAtEveryJournalPrefix) {
  const std::string dir = fresh_dir("ckpt_crash");
  Session session(ring_components(2, 6), pricing::Protocol::kPriceVector);
  ASSERT_TRUE(session.run().converged);

  CheckpointWriter writer(dir);
  // states[r] = the checksum of the state after r catch-ups;
  // bounds[r] = the file size at which stream r (0 = bootstrap) is complete.
  std::vector<std::uint64_t> states;
  std::vector<std::uint64_t> bounds;
  auto snap = export_now(session);
  ASSERT_EQ(writer.on_publish(snap), "");
  states.push_back(snap->checksum());
  bounds.push_back(std::filesystem::file_size(writer.path()));
  const NodeId touched[] = {1, 8};
  for (const NodeId v : touched) {
    ASSERT_TRUE(
        session.change_cost(v, Cost{45}, RestartPolicy::kRestartBarrier)
            .converged);
    snap = export_now(session);
    ASSERT_EQ(writer.on_publish(snap), "");
    states.push_back(snap->checksum());
    bounds.push_back(std::filesystem::file_size(writer.path()));
  }

  const std::string file = read_file(writer.path());
  ASSERT_EQ(file.size(), bounds.back());

  // Simulated crash at every byte: truncate the file to each prefix and
  // recover. A prefix inside the bootstrap has no complete state and must
  // fail; any longer one must recover the newest stream complete in it —
  // and always a structurally sound one.
  const std::string scratch = fresh_dir("ckpt_crash_scratch");
  for (std::size_t len = 0; len <= file.size(); ++len) {
    write_file(scratch + "/base.fpss-snap", file.substr(0, len));
    const SnapshotLoadResult loaded = load_checkpoint(scratch);
    if (len < bounds.front()) {
      ASSERT_FALSE(loaded.ok()) << "len=" << len;
      continue;
    }
    ASSERT_TRUE(loaded.ok()) << "len=" << len << ": " << loaded.error;
    std::uint64_t expect_applied = 0;
    for (std::size_t r = 1; r < bounds.size(); ++r)
      if (len >= bounds[r]) ++expect_applied;
    ASSERT_EQ(loaded.records_applied, expect_applied) << "len=" << len;
    ASSERT_EQ(loaded.snapshot->checksum(), states[expect_applied])
        << "len=" << len;
    ASSERT_TRUE(loaded.snapshot->self_check()) << "len=" << len;
  }
}

TEST(Checkpoint, CompactionThatDiedBeforeItsRenameLoadsTheOldFile) {
  const std::string dir = fresh_dir("ckpt_tmp");
  Session session(ring_components(2, 6), pricing::Protocol::kPriceVector);
  ASSERT_TRUE(session.run().converged);
  CheckpointWriter writer(dir);
  ASSERT_EQ(writer.on_publish(export_now(session)), "");
  ASSERT_TRUE(
      session.change_cost(3, Cost{30}, RestartPolicy::kRestartBarrier)
          .converged);
  const auto written = export_now(session);
  ASSERT_EQ(writer.on_publish(written), "");

  // The crash window a fresh write leaves: the image of a newer state is
  // complete in the .tmp, but the daemon died before renaming it over the
  // file. The .tmp is never read; the old file's newest stream is served.
  ASSERT_TRUE(
      session.change_cost(9, Cost{33}, RestartPolicy::kRestartBarrier)
          .converged);
  const auto newer = export_now(session);
  ASSERT_TRUE(save_snapshot(*newer, writer.path() + ".tmp").ok());

  const SnapshotLoadResult loaded = load_checkpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.records_applied, 1u);
  EXPECT_EQ(loaded.snapshot->checksum(), written->checksum());
  EXPECT_TRUE(loaded.snapshot->self_check());
}

// A disk that fills mid-append leaves torn bytes at the file's tail. An
// append after them could never load, so the writer must rewrite the file
// whole at the next checkpoint.
TEST(Checkpoint, FailedAppendRewritesTheFileAtTheNextCheckpoint) {
  const std::string dir = fresh_dir("ckpt_torn");
  Session session(ring_components(2, 6), pricing::Protocol::kPriceVector);
  ASSERT_TRUE(session.run().converged);
  CheckpointWriter writer(dir);
  ASSERT_EQ(writer.on_publish(export_now(session)), "");
  ASSERT_TRUE(
      session.change_cost(1, Cost{30}, RestartPolicy::kRestartBarrier)
          .converged);
  ASSERT_EQ(writer.on_publish(export_now(session)), "");

  // The next append may write only 100 more bytes: the file-size limit
  // makes write(2) fail part-way (EFBIG, with SIGXFSZ ignored).
  ASSERT_TRUE(
      session.change_cost(7, Cost{31}, RestartPolicy::kRestartBarrier)
          .converged);
  const auto torn = export_now(session);
  const std::uint64_t before = std::filesystem::file_size(writer.path());
  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  rlimit capped = old_limit;
  capped.rlim_cur = before + 100;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  const std::string failed = writer.on_publish(torn);
  ::setrlimit(RLIMIT_FSIZE, &old_limit);
  std::signal(SIGXFSZ, old_handler);
  EXPECT_NE(failed, "");
  EXPECT_GT(std::filesystem::file_size(writer.path()), before);

  ASSERT_TRUE(
      session.change_cost(10, Cost{42}, RestartPolicy::kRestartBarrier)
          .converged);
  const auto next = export_now(session);
  ASSERT_EQ(writer.on_publish(next), "");

  const SnapshotLoadResult loaded = load_checkpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.snapshot->checksum(), next->checksum());
  EXPECT_EQ(loaded.snapshot->node_cost(10), Cost{42});
  EXPECT_TRUE(loaded.snapshot->self_check());
}

// --- single-byte flips ------------------------------------------------------

constexpr std::uint8_t kFlipMasks[] = {0x01, 0x40, 0xff};

// The property that lets records go without a checksum of their own: the
// root checksum in the final chunk plus the Assembler's structural checks
// catch every single-byte change of a saved image.
TEST(Checkpoint, EverySingleByteFlipOfASavedImageIsRejected) {
  const std::string dir = fresh_dir("ckpt_flip");
  Session session(ring_components(2, 4), pricing::Protocol::kPriceVector);
  ASSERT_TRUE(session.run().converged);
  const std::string path = dir + "/image.fpss-snap";
  ASSERT_TRUE(save_snapshot(*export_now(session), path).ok());
  const std::string image = read_file(path);
  ASSERT_TRUE(load_snapshot_bytes(image).ok());

  for (std::size_t at = 0; at < image.size(); ++at) {
    for (const std::uint8_t mask : kFlipMasks) {
      std::string flipped = image;
      flipped[at] = static_cast<char>(flipped[at] ^ mask);
      EXPECT_FALSE(load_snapshot_bytes(flipped).ok())
          << "byte " << at << " mask " << static_cast<int>(mask);
    }
  }
}

// A flip inside catch-up stream k can cost at most that stream and the
// ones after it: the load always serves a state that was written, and
// never one older than stream k - 1's.
TEST(Checkpoint, EveryByteFlipOfACatchUpRecoversAWrittenState) {
  const std::string dir = fresh_dir("ckpt_flip_catch_up");
  Session session(ring_components(2, 4), pricing::Protocol::kPriceVector);
  ASSERT_TRUE(session.run().converged);
  CheckpointWriter writer(dir);
  std::vector<std::uint64_t> states;
  std::vector<std::uint64_t> bounds;
  auto snap = export_now(session);
  ASSERT_EQ(writer.on_publish(snap), "");
  states.push_back(snap->checksum());
  bounds.push_back(std::filesystem::file_size(writer.path()));
  for (const NodeId v : {NodeId{1}, NodeId{6}}) {
    ASSERT_TRUE(
        session.change_cost(v, Cost{27}, RestartPolicy::kRestartBarrier)
            .converged);
    snap = export_now(session);
    ASSERT_EQ(writer.on_publish(snap), "");
    states.push_back(snap->checksum());
    bounds.push_back(std::filesystem::file_size(writer.path()));
  }
  const std::string file = read_file(writer.path());

  std::uint64_t stream = 1;  // the catch-up holding byte `at`
  for (std::size_t at = bounds.front(); at < file.size(); ++at) {
    while (at >= bounds[stream]) ++stream;
    for (const std::uint8_t mask : kFlipMasks) {
      std::string flipped = file;
      flipped[at] = static_cast<char>(flipped[at] ^ mask);
      const SnapshotLoadResult loaded = load_snapshot_bytes(flipped);
      ASSERT_TRUE(loaded.ok()) << "byte " << at << ": " << loaded.error;
      ASSERT_GE(loaded.records_applied, stream - 1) << "byte " << at;
      ASSERT_EQ(loaded.snapshot->checksum(), states[loaded.records_applied])
          << "byte " << at << " mask " << static_cast<int>(mask);
    }
  }
}

// --- compaction -------------------------------------------------------------

// The file is folded into a fresh image at the first checkpoint after the
// catch-ups appended since the last image outgrow that image.
TEST(Checkpoint, CompactionFoldsJournalIntoFreshBase) {
  const std::string dir = fresh_dir("ckpt_compact");
  Session session(ring_components(2, 6), pricing::Protocol::kPriceVector);
  ASSERT_TRUE(session.run().converged);
  CheckpointWriter writer(dir);
  ASSERT_EQ(writer.on_publish(export_now(session)), "");
  const std::uint64_t image_bytes = std::filesystem::file_size(writer.path());

  // Append catch-ups until the journal outgrows the image; none compacts.
  std::shared_ptr<const RouteSnapshot> latest;
  Cost::rep cost = 20;
  while (std::filesystem::file_size(writer.path()) - image_bytes <=
         image_bytes) {
    ASSERT_TRUE(session
                    .change_cost(static_cast<NodeId>(cost % 12), Cost{cost},
                                 RestartPolicy::kRestartBarrier)
                    .converged);
    ++cost;
    latest = export_now(session);
    ASSERT_EQ(writer.on_publish(latest), "");
    ASSERT_EQ(writer.stats().compactions, 0u);
  }
  const std::uint64_t appended = writer.stats().checkpoints - 1;
  ASSERT_GE(appended, 2u);
  const SnapshotLoadResult journaled = load_checkpoint(dir);
  ASSERT_TRUE(journaled.ok()) << journaled.error;
  EXPECT_EQ(journaled.records_applied, appended);
  EXPECT_EQ(journaled.snapshot->checksum(), latest->checksum());

  // The next checkpoint compacts.
  ASSERT_TRUE(
      session.change_cost(7, Cost{cost}, RestartPolicy::kRestartBarrier)
          .converged);
  latest = export_now(session);
  ASSERT_EQ(writer.on_publish(latest), "");
  EXPECT_EQ(writer.stats().compactions, 1u);
  // The file is a lone bootstrap again, byte for byte a fresh save of the
  // latest snapshot, and replay applies no catch-up.
  ASSERT_TRUE(save_snapshot(*latest, dir + "/fresh.fpss-snap").ok());
  EXPECT_EQ(read_file(writer.path()), read_file(dir + "/fresh.fpss-snap"));
  const SnapshotLoadResult loaded = load_checkpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.records_applied, 0u);
  EXPECT_EQ(loaded.snapshot->checksum(), latest->checksum());
}

// --- RouteService integration -----------------------------------------------

TEST(Checkpoint, RouteServiceCheckpointsEveryPublishAndRecovers) {
  const std::string dir = fresh_dir("ckpt_service");
  ServiceConfig config;
  config.shards = 2;
  config.checkpoint_directory = dir;
  RouteService svc(ring_components(2, 6), config);

  // The constructor's first publish wrote the base.
  const auto c0 = svc.counters();
  EXPECT_EQ(c0.checkpoints_written, 1u);
  EXPECT_GT(c0.checkpoint_bytes_written, 0u);
  EXPECT_EQ(c0.journal_patches, 0u);

  svc.submit(RouteService::Delta::cost_change(2, Cost{44}));
  svc.drain();
  const auto c1 = svc.counters();
  EXPECT_EQ(c1.checkpoints_written, 2u);
  EXPECT_GT(c1.checkpoint_bytes_written, c0.checkpoint_bytes_written);
  EXPECT_GE(c1.journal_patches, 1u);

  // A cold daemon recovering from the directory serves the exact state the
  // live daemon last published.
  const SnapshotLoadResult loaded = load_checkpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.records_applied, 1u);
  EXPECT_EQ(loaded.snapshot->checksum(), svc.snapshot()->checksum());
  EXPECT_EQ(loaded.snapshot->node_cost(2), Cost{44});
}

// --- fuzz-derived regressions ----------------------------------------------

// Hand-minimized malformed fpss-snap images, pinned as regressions so the
// loader rejections the fuzz harness (fuzz/fuzz_replication.cpp, disk
// mode) relies on cannot silently regress. Each is the smallest image
// reaching its branch.
TEST(Checkpoint, HandMinimizedMalformedSnapshotsAreRejected) {
  const auto u64le = [](std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  };
  const std::string magic = "FPSSSNP1";

  // 1. Shorter than the 16-byte header: just the magic.
  {
    const auto r = load_snapshot_bytes(magic);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("short"), std::string::npos);
  }

  // 2. Valid magic, the previous format (v4): its complete 32-byte header
  //    declaring an empty payload. As a file and as a checkpoint directory
  //    it fails on the version, not on anything missing.
  {
    std::string image = magic;
    u64le(image, 4);  // format
    u64le(image, 0);  // payload size
    u64le(image, 0);  // checksum
    const auto r = load_snapshot_bytes(image);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error, "unsupported format version 4");
    const std::string dir = fresh_dir("ckpt_v4");
    write_file(dir + "/base.fpss-snap", image);
    EXPECT_EQ(load_checkpoint(dir).error, "unsupported format version 4");
  }

  // 3. Valid magic, the previous format (v5, whose chunks carried shard
  //    versions): it fails on the version before any record is read.
  {
    std::string image = magic;
    u64le(image, 5);  // format
    u64le(image, 1);  // a record length
    EXPECT_EQ(load_snapshot_bytes(image).error,
              "unsupported format version 5");
  }

  // 4. A record whose length overruns the file (declares 1 byte, carries
  //    0): rejected before any chunk is parsed.
  {
    std::string image = magic;
    u64le(image, 6);  // format
    u64le(image, 1);  // chunk length (lie)
    const auto r = load_snapshot_bytes(image);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("length mismatch"), std::string::npos);
  }
}

}  // namespace
}  // namespace fpss
