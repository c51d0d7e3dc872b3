// The per-shard snapshot replication codec: what a kSnapshotChunk frame
// carries and how a replica reassembles a serving-grade RouteSnapshot
// from a stream of them.
//
// A fetch response is a sequence of chunk payloads (each one travels in
// its own length/FNV-guarded fpss-wire frame):
//
//   data chunk  := kind:u8(1) | snapshot_version:u64 | n:u64
//                  | shard_count:u32 | shard_index:u32 | shard_version:u64
//                  | dest_begin:u32 | dest_count:u32
//                  | dest_count x block            (fpss-snap v4 encoding)
//   final chunk := kind:u8(2) | snapshot_version:u64 | n:u64
//                  | shard_count:u32 | graph_version:u64
//                  | published_at_ns:u64 | checksum:u64
//                  | node_cost[n]:i64 | owed[n]:i64 | settled[n]:i64
//                  | shard_versions[shard_count]:u64
//                  | sent_count:u32 | sent_count x shard_index:u32
//
// The server sends one or more data chunks per *dirty* shard (a shard
// whose destination rows outgrow kChunkBudgetBytes is split across
// frames) and exactly one final chunk. The final chunk carries the
// server's full per-shard version vector — the negotiation state the
// replica echoes back in its next kSnapshotFetch — plus the explicit list
// of shards this response patched and the root checksum the reassembled
// snapshot must reproduce.
//
// Assembler invariants (the torn-shard guarantees the fuzz tests pin):
//   * every payload is validated structurally before any block is kept —
//     a truncated or corrupt chunk poisons the whole assembly;
//   * finish() fails unless every destination of every announced shard
//     arrived exactly once and nothing outside those shards arrived;
//   * the sealed snapshot's checksum must equal the server-declared one —
//     so a replica either publishes exactly the primary's bytes or
//     publishes nothing. There is no partial-shard escape hatch.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/snapshot.h"
#include "util/types.h"

namespace fpss::service {

struct ReplicationCodec {
  /// Chunk kind tags (first payload byte; wire-reserved).
  static constexpr std::uint8_t kDataChunk = 1;
  static constexpr std::uint8_t kFinalChunk = 2;

  /// Soft cap on block bytes per data chunk. A chunk always carries at
  /// least one destination, so a pathological single block may exceed it,
  /// but never by more than one block — callers size their wire limits
  /// for max(budget, one block).
  static constexpr std::size_t kChunkBudgetBytes = 256u << 10;

  /// Encodes shard `shard` of `snap` (destinations [shard * shard_size,
  /// min(n, (shard+1) * shard_size))) as one or more data-chunk payloads.
  /// `shard_version` is the store's version for that shard (echoed to the
  /// replica for its next negotiation).
  static std::vector<std::string> encode_shard(
      const RouteSnapshot& snap, std::size_t shard, std::size_t shard_size,
      std::uint32_t shard_count, std::uint64_t shard_version,
      std::size_t budget_bytes = kChunkBudgetBytes);

  /// Encodes the terminal payload: globals, the server's shard-version
  /// vector, and the indices of the shards this response sent.
  static std::string encode_final(const RouteSnapshot& snap,
                                  std::span<const std::uint64_t> shard_versions,
                                  std::span<const std::uint32_t> shards_sent);

  /// Reassembles a snapshot from fed chunk payloads.
  class Assembler {
   public:
    /// `base`: the replica's currently served snapshot; clean shards keep
    /// its blocks (copy-on-write catch-up). Null for a cold bootstrap, in
    /// which case the response must cover every shard. `adopt`: optional
    /// digest-adoption donor (e.g. a checkpoint-loaded snapshot): a parsed
    /// block whose digest matches the donor's is swapped for the donor's
    /// pointer, so a warm bootstrap shares memory with the local image
    /// exactly like the publish pipeline's warm-start adoption.
    explicit Assembler(std::shared_ptr<const RouteSnapshot> base = nullptr,
                       std::shared_ptr<const RouteSnapshot> adopt = nullptr);

    /// Feeds one chunk payload (in arrival order; the final chunk must be
    /// last). Returns false — and poisons the assembly — on any structural
    /// violation; error() says why.
    bool feed(std::string_view payload);

    /// True once the final chunk has been accepted.
    bool finished() const { return final_seen_; }

    struct Result {
      std::shared_ptr<const RouteSnapshot> snapshot;  ///< null on failure
      /// The server's per-shard versions (what the next fetch should send).
      std::vector<std::uint64_t> shard_versions;
      /// Shards this response patched (sorted, unique).
      std::vector<std::uint32_t> shards_sent;
      std::uint64_t blocks_adopted = 0;  ///< blocks shared via base/adopt digest
      std::uint64_t shard_count = 0;     ///< server's shard layout
      std::string error;
      bool ok() const { return snapshot != nullptr; }
    };

    /// Seals, checksum-verifies, and returns the assembled snapshot.
    /// Fails (null snapshot + error) on an incomplete or inconsistent
    /// stream. Call once, after the final chunk.
    Result finish();

    const std::string& error() const { return error_; }

   private:
    bool fail(const std::string& why);

    std::shared_ptr<const RouteSnapshot> base_;
    std::shared_ptr<const RouteSnapshot> adopt_;
    bool final_seen_ = false;
    bool poisoned_ = false;
    bool header_bound_ = false;  ///< version/n/shard_count latched
    std::uint64_t version_ = 0;
    std::uint64_t n_ = 0;
    std::uint64_t shard_count_ = 0;
    std::uint64_t graph_version_ = 0;
    std::uint64_t published_at_ns_ = 0;
    std::uint64_t want_checksum_ = 0;
    std::uint64_t blocks_adopted_ = 0;
    std::vector<Cost> node_cost_;
    std::vector<Cost::rep> owed_;
    std::vector<Cost::rep> settled_;
    std::vector<std::uint64_t> shard_versions_;
    std::vector<std::uint32_t> shards_sent_;
    /// (shard, version) pairs announced by data chunks — cross-checked
    /// against the final chunk's vector in finish().
    std::vector<std::pair<std::uint32_t, std::uint64_t>> shard_version_seen_;
    /// Parsed blocks by destination; null = not received.
    std::vector<RouteSnapshot::BlockPtr> received_;
    std::string error_;
  };
};

}  // namespace fpss::service
