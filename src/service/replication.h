// The one block stream: what kSnapshotChunk frames carry to a replica,
// what a saved snapshot or checkpoint file records (service/checkpoint.h),
// and how either is reassembled into a serving-grade RouteSnapshot.
//
// A stream is a sequence of chunk payloads:
//
//   data chunk  := kind:u8(1) | snapshot_version:u64 | n:u64
//                  | shard_count:u32 | shard_index:u32
//                  | dest_begin:u32 | dest_count:u32
//                  | dest_count x block
//   final chunk := kind:u8(2) | snapshot_version:u64 | n:u64
//                  | shard_count:u32 | graph_version:u64
//                  | published_at_ns:u64 | checksum:u64
//                  | node_cost[n]:i64 | owed[n]:i64 | settled[n]:i64
//                  | sent_count:u32 | sent_count x shard_index:u32
//   block       := next_hop[n]:u32 | cost[n]:i64 | offset[n+1]:u64
//                  | transit[entries]:u32 | price[entries]:i64
//
// (entries = offset[n]; costs as i64 with -1 = +infinity). encode_stream
// is the one encoder: one or more data chunks per shard it sends (a shard
// whose destination rows outgrow kChunkBudgetBytes is split across
// chunks), then exactly one final chunk. Every chunk names the one
// snapshot version the stream carries; which shards it sends is the
// sender's business (a server picks them from the requester's `since`,
// see net/wire.h). The final chunk carries the explicit list of shards
// this stream patched and the root checksum the reassembled snapshot must
// reproduce. The Assembler is the one parser; nothing else decodes a
// destination block. On the wire each chunk travels in its own
// length/XXH64-guarded fpss-wire frame; on disk in a length-prefixed
// record. Block digests and the root checksum stay FNV-1a.
//
// Assembler invariants (the torn-shard guarantees the fuzz tests pin):
//   * every payload is validated structurally before any block is kept —
//     a truncated or corrupt chunk poisons the whole assembly;
//   * every chunk must agree with the first on version, node count and
//     shard count, so a stream stitched from two snapshots is rejected;
//   * finish() fails unless every destination of every announced shard
//     arrived exactly once and nothing outside those shards arrived;
//   * the sealed snapshot's checksum must equal the declared one — so a
//     replica or a loader either gets exactly the encoded snapshot's bytes
//     or nothing. There is no partial-shard escape hatch.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "service/snapshot.h"
#include "util/types.h"

namespace fpss::util {
struct BinReader;
}

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

  /// Takes one chunk payload, in stream order; false stops the stream.
  using ChunkSink = std::function<bool(std::string_view payload)>;

  /// Encodes one stream of `snap` under the `shard_count`-shard partition
  /// (shard_size_of): the data chunks of every shard in `sent`, in order,
  /// then the final chunk announcing `sent`. Stops, returning false, as
  /// soon as the sink returns false. Preconditions: at least one shard,
  /// every sent index in range.
  static bool encode_stream(const RouteSnapshot& snap,
                            std::uint32_t shard_count,
                            std::span<const std::uint32_t> sent,
                            const ChunkSink& sink);

  /// Reassembles a snapshot from fed chunk payloads.
  class Assembler {
   public:
    /// `base`: the state this stream catches up (a replica's served
    /// snapshot, or the previous stream of a file being loaded); clean
    /// shards keep its blocks (copy-on-write catch-up), and a parsed block
    /// whose digest equals base's for the same destination is swapped for
    /// base's pointer — RouteSnapshot::from_session's sharing rule — so the
    /// store sees that destination unchanged. Null for a cold bootstrap,
    /// which must cover every shard.
    explicit Assembler(std::shared_ptr<const RouteSnapshot> base = nullptr);

    /// Feeds one chunk payload (in arrival order; the final chunk must be
    /// last). Returns false — and poisons the assembly — on any structural
    /// violation; error() says why.
    bool feed(std::string_view payload);

    /// True once the final chunk has been accepted.
    bool finished() const { return final_seen_; }

    struct Result {
      std::shared_ptr<const RouteSnapshot> snapshot;  ///< null on failure
      /// Shards this response patched (sorted, unique).
      std::vector<std::uint32_t> shards_sent;
      std::uint64_t blocks_adopted = 0;  ///< blocks shared via base digest
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
    std::vector<std::uint32_t> shards_sent_;
    /// Parsed blocks by destination; null = not received.
    std::vector<RouteSnapshot::BlockPtr> received_;
    std::string error_;
  };

 private:
  using Block = RouteSnapshot::DestinationBlock;

  /// Emits shard `shard`'s data chunks; false once the sink stops.
  static bool encode_shard(const RouteSnapshot& snap, std::uint32_t shard,
                           std::size_t shard_size, std::uint32_t shard_count,
                           const ChunkSink& sink);
  static std::string encode_final(const RouteSnapshot& snap,
                                  std::uint32_t shard_count,
                                  std::span<const std::uint32_t> sent);

  /// Appends one block in serialization order.
  static void append_block(std::string& out, const Block& block);
  /// Serialized size of `block` in an n-node snapshot:
  /// 12n + 8(n + 1) + 12 * entries bytes.
  static std::size_t block_bytes(const Block& block, std::size_t n);
  /// Parses and validates one block of an n-node snapshot; null on any
  /// structural violation. Offsets must be monotone and bounded by n^2 and
  /// transit ids < n before anything is sized from them.
  static RouteSnapshot::BlockPtr parse_block(util::BinReader& in,
                                             std::size_t n);
};

}  // namespace fpss::service
