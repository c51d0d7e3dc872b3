#include "service/replication.h"

#include <algorithm>
#include <utility>

#include "service/blockio.h"
#include "service/store.h"
#include "util/binio.h"

namespace fpss::service {

namespace {

using util::append_i64;
using util::append_u32;
using util::append_u64;
using util::append_u8;
using util::BinReader;
using util::encode_cost;

/// Every data chunk's fixed fields after the kind byte.
void append_data_header(std::string& out, const RouteSnapshot& snap,
                        std::uint32_t shard_count, std::uint32_t shard,
                        std::uint64_t shard_version, std::uint32_t dest_begin,
                        std::uint32_t dest_count) {
  append_u8(out, ReplicationCodec::kDataChunk);
  append_u64(out, snap.version());
  append_u64(out, snap.node_count());
  append_u32(out, shard_count);
  append_u32(out, shard);
  append_u64(out, shard_version);
  append_u32(out, dest_begin);
  append_u32(out, dest_count);
}

}  // namespace

std::vector<std::string> ReplicationCodec::encode_shard(
    const RouteSnapshot& snap, std::size_t shard, std::size_t shard_size,
    std::uint32_t shard_count, std::uint64_t shard_version,
    std::size_t budget_bytes) {
  const std::size_t n = snap.node_count();
  const std::size_t begin = shard * shard_size;
  const std::size_t end = std::min(n, begin + shard_size);
  std::vector<std::string> chunks;
  std::size_t chunk_begin = begin;
  std::string blocks;
  const auto flush = [&](std::size_t next) {
    if (next == chunk_begin) return;
    std::string out;
    out.reserve(39 + blocks.size());
    append_data_header(out, snap, shard_count,
                       static_cast<std::uint32_t>(shard), shard_version,
                       static_cast<std::uint32_t>(chunk_begin),
                       static_cast<std::uint32_t>(next - chunk_begin));
    out.append(blocks);
    chunks.push_back(std::move(out));
    blocks.clear();
    chunk_begin = next;
  };
  for (std::size_t j = begin; j < end; ++j) {
    // Budget check before appending: a chunk carries at least one block,
    // so the cap is soft by at most one destination's rows.
    if (!blocks.empty() &&
        blocks.size() + BlockCodec::encoded_bytes(*snap.blocks_[j], n) >
            budget_bytes)
      flush(j);
    BlockCodec::append(blocks, *snap.blocks_[j]);
  }
  flush(end);
  return chunks;
}

std::string ReplicationCodec::encode_final(
    const RouteSnapshot& snap, std::span<const std::uint64_t> shard_versions,
    std::span<const std::uint32_t> shards_sent) {
  const std::size_t n = snap.node_count();
  std::string out;
  out.reserve(53 + 24 * n + 8 * shard_versions.size() +
              4 * shards_sent.size());
  append_u8(out, kFinalChunk);
  append_u64(out, snap.version());
  append_u64(out, n);
  append_u32(out, static_cast<std::uint32_t>(shard_versions.size()));
  append_u64(out, snap.graph_version());
  append_u64(out, snap.published_at_ns());
  append_u64(out, snap.checksum());
  for (NodeId v = 0; v < n; ++v)
    append_i64(out, encode_cost(snap.node_cost(v)));
  for (NodeId v = 0; v < n; ++v) append_i64(out, snap.payment_owed(v));
  for (NodeId v = 0; v < n; ++v) append_i64(out, snap.payment_settled(v));
  for (const std::uint64_t version : shard_versions) append_u64(out, version);
  append_u32(out, static_cast<std::uint32_t>(shards_sent.size()));
  for (const std::uint32_t s : shards_sent) append_u32(out, s);
  return out;
}

// --- assembler --------------------------------------------------------------

ReplicationCodec::Assembler::Assembler(
    std::shared_ptr<const RouteSnapshot> base,
    std::shared_ptr<const RouteSnapshot> adopt)
    : base_(std::move(base)), adopt_(std::move(adopt)) {}

bool ReplicationCodec::Assembler::fail(const std::string& why) {
  poisoned_ = true;
  if (error_.empty()) error_ = why;
  return false;
}

bool ReplicationCodec::Assembler::feed(std::string_view payload) {
  if (poisoned_) return false;
  if (final_seen_) return fail("chunk after final chunk");
  BinReader in{payload};
  const std::uint8_t kind = in.u8();
  const std::uint64_t version = in.u64();
  const std::uint64_t n = in.u64();
  const std::uint64_t shard_count = in.u32();
  if (in.fail) return fail("truncated chunk header");
  if (n == 0 || shard_count == 0 || shard_count > n)
    return fail("bad chunk geometry");
  if (!header_bound_) {
    // Pre-allocation bound: any valid chunk for n destinations carries at
    // least one destination block (>= 20n + 8 bytes, data) or the three
    // global arrays (24n bytes, final), so a lying node count cannot force
    // a large allocation from a small payload.
    if (n > payload.size() / 20)
      return fail("chunk shorter than its node count implies");
    // The whole stream describes one snapshot of one store layout; the
    // first chunk binds it.
    version_ = version;
    n_ = n;
    shard_count_ = shard_count;
    received_.assign(static_cast<std::size_t>(n), nullptr);
    header_bound_ = true;
  } else if (version != version_ || n != n_ || shard_count != shard_count_) {
    return fail("chunk disagrees with stream header");
  }

  if (kind == kDataChunk) {
    const std::uint32_t shard = in.u32();
    const std::uint64_t shard_version = in.u64();
    const std::uint64_t dest_begin = in.u32();
    const std::uint64_t dest_count = in.u32();
    if (in.fail) return fail("truncated data chunk header");
    if (shard >= shard_count_) return fail("shard index out of range");
    const std::size_t shard_size = shard_size_of(n_, shard_count_);
    const std::uint64_t shard_lo = shard * shard_size;
    const std::uint64_t shard_hi =
        std::min<std::uint64_t>(n_, shard_lo + shard_size);
    if (dest_count == 0 || dest_begin < shard_lo ||
        dest_begin + dest_count > shard_hi)
      return fail("destination range outside its shard");
    // A block is at least 20n + 8 bytes; a lying count cannot force the
    // parser into large allocations past this bound.
    if (in.remaining() < dest_count * (20 * n_ + 8))
      return fail("data chunk shorter than its block count");
    shard_version_seen_.emplace_back(shard, shard_version);
    for (std::uint64_t d = 0; d < dest_count; ++d) {
      const NodeId j = static_cast<NodeId>(dest_begin + d);
      if (received_[j] != nullptr) return fail("duplicate destination block");
      RouteSnapshot::BlockPtr block = BlockCodec::parse(in, n_);
      if (block == nullptr) return fail("malformed destination block");
      // Digest adoption: share the replica's existing block (served base
      // first, then the warm-start donor) whenever the content round-trips
      // identical — the wire copy is dropped and memory stays shared.
      if (base_ != nullptr && base_->node_count() == n_ &&
          base_->blocks_[j]->digest == block->digest) {
        block = base_->blocks_[j];
        ++blocks_adopted_;
      } else if (adopt_ != nullptr && adopt_->node_count() == n_ &&
                 adopt_->blocks_[j]->digest == block->digest) {
        block = adopt_->blocks_[j];
        ++blocks_adopted_;
      }
      received_[j] = std::move(block);
    }
    if (in.fail || in.pos != payload.size())
      return fail("data chunk size mismatch");
    return true;
  }

  if (kind == kFinalChunk) {
    graph_version_ = in.u64();
    published_at_ns_ = in.u64();
    want_checksum_ = in.u64();
    // Exact-size arithmetic before any reserve: globals + shard versions
    // + the sent list's count field must all fit.
    if (in.fail || in.remaining() < 24 * n_ + 8 * shard_count_ + 4)
      return fail("truncated final chunk");
    node_cost_.reserve(n_);
    for (std::uint64_t v = 0; v < n_; ++v) node_cost_.push_back(in.cost());
    owed_.reserve(n_);
    for (std::uint64_t v = 0; v < n_; ++v) owed_.push_back(in.i64());
    settled_.reserve(n_);
    for (std::uint64_t v = 0; v < n_; ++v) settled_.push_back(in.i64());
    shard_versions_.reserve(shard_count_);
    for (std::uint64_t s = 0; s < shard_count_; ++s)
      shard_versions_.push_back(in.u64());
    const std::uint32_t sent = in.u32();
    if (in.fail || sent > shard_count_ || in.remaining() != 4 * sent)
      return fail("final chunk size mismatch");
    shards_sent_.reserve(sent);
    for (std::uint32_t s = 0; s < sent; ++s) {
      const std::uint32_t shard = in.u32();
      if (shard >= shard_count_) return fail("sent shard out of range");
      shards_sent_.push_back(shard);
    }
    std::sort(shards_sent_.begin(), shards_sent_.end());
    if (std::adjacent_find(shards_sent_.begin(), shards_sent_.end()) !=
        shards_sent_.end())
      return fail("duplicate shard in sent list");
    final_seen_ = true;
    return true;
  }

  return fail("unknown chunk kind");
}

ReplicationCodec::Assembler::Result ReplicationCodec::Assembler::finish() {
  Result result;
  if (poisoned_) {
    result.error = error_;
    return result;
  }
  const auto reject = [&](const std::string& why) {
    fail(why);
    result.error = error_;
    return result;
  };
  if (!final_seen_) return reject("stream ended before the final chunk");
  // Each data chunk's announced slot version must agree with the final
  // vector — a response stitched from two different cuts is rejected.
  for (const auto& [shard, version] : shard_version_seen_)
    if (shard_versions_[shard] != version)
      return reject("data chunk version disagrees with final vector");

  const std::size_t shard_size = shard_size_of(n_, shard_count_);
  std::vector<bool> sent(shard_count_, false);
  for (const std::uint32_t s : shards_sent_) sent[s] = true;
  for (std::uint64_t s = 0; s < shard_count_; ++s) {
    const std::uint64_t lo = s * shard_size;
    const std::uint64_t hi = std::min<std::uint64_t>(n_, lo + shard_size);
    for (std::uint64_t j = lo; j < hi; ++j) {
      if (sent[s] && received_[j] == nullptr)
        return reject("announced shard arrived incomplete");
      if (!sent[s] && received_[j] != nullptr)
        return reject("block outside the announced shards");
    }
  }
  // A base of the wrong geometry cannot donate blocks (the replica's
  // store predates a server restart that changed the network). Degrade to
  // the cold-bootstrap rule below: if the response did not cover
  // everything, it fails coverage rather than mixing incompatible blocks.
  if (base_ != nullptr && base_->node_count() != n_) base_.reset();

  auto snap = std::shared_ptr<RouteSnapshot>(new RouteSnapshot);
  snap->n_ = static_cast<std::size_t>(n_);
  snap->version_ = version_;
  snap->graph_version_ = graph_version_;
  snap->published_at_ns_ = published_at_ns_;
  snap->node_cost_ = std::move(node_cost_);
  snap->owed_ = std::move(owed_);
  snap->settled_ = std::move(settled_);
  snap->blocks_.resize(snap->n_);
  for (NodeId j = 0; j < snap->n_; ++j) {
    if (received_[j] != nullptr) {
      snap->blocks_[j] = received_[j];
    } else if (base_ != nullptr) {
      snap->blocks_[j] = base_->blocks_[j];
    } else {
      return reject("cold bootstrap response did not cover every shard");
    }
  }
  snap->seal();
  if (snap->checksum() != want_checksum_)
    return reject("assembled snapshot checksum mismatch");
  result.snapshot = std::move(snap);
  result.shard_versions = shard_versions_;
  result.shards_sent = shards_sent_;
  result.blocks_adopted = blocks_adopted_;
  result.shard_count = shard_count_;
  return result;
}

}  // namespace fpss::service
