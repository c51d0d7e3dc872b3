// Persistence: saved snapshots and incremental checkpoints, both as
// recorded block streams (service/replication.h) in one file format,
// "fpss-snap v6":
//
//   file   := magic "FPSSSNP1" | format:u64 = 6 | record*
//   record := chunk_len:u64 | chunk          (a ReplicationCodec chunk)
//
// Records form streams, each ending at its final chunk. The first stream
// is a bootstrap, which covers every destination; each later stream is a
// catch-up onto the state before it. save_snapshot writes one bootstrap;
// a checkpoint writer appends catch-ups. Loading feeds every record
// through ReplicationCodec::Assembler, the same parser a replica runs on
// the wire, so the disk and the wire cannot disagree on a block.
//
// On-disk geometry: a shard is one destination, so a catch-up carries
// exactly the blocks that changed. Every chunk carries only the stream's
// snapshot version; no per-shard version is written or read back.
//
// No per-record checksum: a stream's final chunk carries the snapshot's
// root checksum, which folds every content byte (each block's digest, the
// global arrays, the provenance), and the Assembler accepts a stream only
// if the reassembled snapshot reproduces it. The framing around the
// content (lengths, kinds, versions, geometry, shard indices) is
// cross-checked structurally. A torn or corrupt record therefore ends the
// load at the newest complete stream; the every-byte-flip and
// every-prefix tests pin both halves.
//
// A checkpoint directory holds the one file, base.fpss-snap. The first
// checkpoint, a node-count change, and a compaction write a fresh image
// to base.fpss-snap.tmp and rename it over the file; every other
// checkpoint appends one catch-up stream carrying only the destinations
// whose block digests changed since the last checkpoint. A compaction
// happens at the first checkpoint after the catch-ups appended since the
// last fresh image outgrow that image, so the catch-ups a load replays
// never add up to much more than two images, at any network size. The
// crash windows that remain:
//   - crash mid-append      -> the torn tail is a short or rejected
//                              record; the load serves the newest
//                              complete stream before it
//   - crash before a rename -> a stale .tmp beside the old file, which
//                              still loads to its newest complete stream
//   - failed write          -> the writer forgets its diff base, so the
//                              next checkpoint is a fresh tmp + rename
//                              instead of an append after torn bytes
// A load therefore recovers the newest complete state and never a torn
// one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "service/snapshot.h"

namespace fpss::service {

/// Outcome of a save: `error` is empty on success (same convention the
/// graph::SaveResult uses — failures are runtime conditions with a reason,
/// not bare booleans).
struct SnapshotSaveResult {
  std::string error;
  std::uint64_t bytes = 0;  ///< file bytes written on success
  bool ok() const { return error.empty(); }
};

/// Outcome of a load; mirrors graph::ParseResult.
struct SnapshotLoadResult {
  std::shared_ptr<const RouteSnapshot> snapshot;  ///< null on failure
  std::string error;  ///< e.g. "assembled snapshot checksum mismatch"
  /// Catch-up streams applied on top of the bootstrap.
  std::uint64_t records_applied = 0;
  bool ok() const { return snapshot != nullptr; }
};

/// Writes `snapshot` as an fpss-snap v6 file holding one bootstrap stream.
SnapshotSaveResult save_snapshot(const RouteSnapshot& snapshot,
                                 const std::string& path);

/// Reads an fpss-snap v6 file and returns its newest complete state.
SnapshotLoadResult load_snapshot(const std::string& path);

/// The in-memory half of load_snapshot() and the only file parser: checks
/// magic and format, feeds the records through a bootstrap Assembler and
/// then one catch-up Assembler per later stream, stops at the first short
/// or rejected record, and self_check()s the newest complete stream. Fails
/// with the bootstrap's reason if the bootstrap itself is incomplete. This
/// is everything a hostile file (or fuzz input) can reach.
SnapshotLoadResult load_snapshot_bytes(std::string_view bytes);

/// The updater-side writer: feed it every published snapshot; it appends
/// a catch-up stream or writes a fresh image (see the file comment).
/// Single-threaded like the rest of the publish path — RouteService calls
/// it from the updater only.
class CheckpointWriter {
 public:
  struct Stats {
    std::uint64_t checkpoints = 0;    ///< streams written (fresh + appended)
    std::uint64_t bytes_written = 0;  ///< total bytes written to disk
    std::uint64_t patches = 0;        ///< destination blocks in catch-ups
    std::uint64_t compactions = 0;    ///< catch-ups folded into a fresh image
  };

  /// Checkpoints into `directory`, which the caller creates. Precondition:
  /// `directory` is not empty.
  explicit CheckpointWriter(const std::string& directory);

  /// Checkpoints one publish. Returns an empty string on success or a
  /// reason on I/O failure — the service surfaces it via counters but
  /// keeps serving; a broken disk must not take the read path down.
  std::string on_publish(const std::shared_ptr<const RouteSnapshot>& snap);

  const Stats& stats() const { return stats_; }
  /// The checkpoint file, <directory>/base.fpss-snap.
  const std::string& path() const { return path_; }

 private:
  std::string write_fresh(const std::shared_ptr<const RouteSnapshot>& snap);
  std::string append_catch_up(
      const std::shared_ptr<const RouteSnapshot>& snap);

  std::string path_;
  /// The state the file on disk loads to — the diff base of the next
  /// catch-up. Null when nothing usable is on disk (before the first
  /// checkpoint and after any failed write).
  std::shared_ptr<const RouteSnapshot> last_written_;
  std::uint64_t image_bytes_ = 0;    ///< the last fresh image's file size
  std::uint64_t journal_bytes_ = 0;  ///< catch-up bytes appended after it
  Stats stats_;
};

/// Recovers the newest complete state from a checkpoint directory: its
/// base.fpss-snap through load_snapshot().
SnapshotLoadResult load_checkpoint(const std::string& directory);

}  // namespace fpss::service
