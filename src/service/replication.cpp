#include "service/replication.h"

#include <algorithm>
#include <utility>

#include "service/store.h"
#include "util/binio.h"
#include "util/contract.h"

namespace fpss::service {

namespace {

using util::append_i64;
using util::append_u32;
using util::append_u64;
using util::append_u8;
using util::BinReader;
using util::encode_cost;

/// Bytes of a data chunk before its first block.
constexpr std::size_t kDataHeaderBytes = 33;

/// Every data chunk's fixed fields, kind byte first.
void append_data_header(std::string& out, const RouteSnapshot& snap,
                        std::uint32_t shard_count, std::uint32_t shard,
                        std::uint32_t dest_begin, std::uint32_t dest_count) {
  append_u8(out, ReplicationCodec::kDataChunk);
  append_u64(out, snap.version());
  append_u64(out, snap.node_count());
  append_u32(out, shard_count);
  append_u32(out, shard);
  append_u32(out, dest_begin);
  append_u32(out, dest_count);
}

}  // namespace

// --- block encoding ---------------------------------------------------------

void ReplicationCodec::append_block(std::string& out, const Block& block) {
  for (const NodeId v : block.next_hop) append_u32(out, v);
  for (const Cost c : block.cost) append_i64(out, encode_cost(c));
  for (const std::uint64_t o : block.offset) append_u64(out, o);
  for (const NodeId v : block.transit) append_u32(out, v);
  for (const Cost c : block.price) append_i64(out, encode_cost(c));
}

std::size_t ReplicationCodec::block_bytes(const Block& block, std::size_t n) {
  return 12 * n + 8 * (n + 1) + 12 * block.transit.size();
}

RouteSnapshot::BlockPtr ReplicationCodec::parse_block(BinReader& in,
                                                      std::size_t n) {
  auto block = std::make_shared<Block>();
  block->next_hop.reserve(n);
  for (std::size_t i = 0; i < n; ++i) block->next_hop.push_back(in.u32());
  block->cost.reserve(n);
  for (std::size_t i = 0; i < n; ++i) block->cost.push_back(in.cost());
  block->offset.reserve(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    const std::uint64_t o = in.u64();
    // Monotone and bounded before the entry arrays are sized from it: a
    // corrupt offset must not trigger a huge allocation.
    if (!block->offset.empty() && !in.fail &&
        (o < block->offset.back() || o > n * n))
      return nullptr;
    block->offset.push_back(o);
  }
  if (in.fail || block->offset.front() != 0) return nullptr;
  const std::uint64_t entries = block->offset.back();
  if (in.remaining() < entries * 12) return nullptr;
  block->transit.reserve(entries);
  for (std::uint64_t e = 0; e < entries; ++e) {
    const NodeId v = in.u32();
    if (v >= n) return nullptr;
    block->transit.push_back(v);
  }
  block->price.reserve(entries);
  for (std::uint64_t e = 0; e < entries; ++e) block->price.push_back(in.cost());
  if (in.fail) return nullptr;
  block->digest = block->compute_digest();
  return block;
}

// --- encoder ----------------------------------------------------------------

bool ReplicationCodec::encode_stream(const RouteSnapshot& snap,
                                     std::uint32_t shard_count,
                                     std::span<const std::uint32_t> sent,
                                     const ChunkSink& sink) {
  FPSS_EXPECTS(shard_count > 0);
  const std::size_t shard_size =
      shard_size_of(snap.node_count(), shard_count);
  for (const std::uint32_t s : sent) {
    FPSS_EXPECTS(s < shard_count);
    if (!encode_shard(snap, s, shard_size, shard_count, sink)) return false;
  }
  return sink(encode_final(snap, shard_count, sent));
}

bool ReplicationCodec::encode_shard(const RouteSnapshot& snap,
                                    std::uint32_t shard,
                                    std::size_t shard_size,
                                    std::uint32_t shard_count,
                                    const ChunkSink& sink) {
  const std::size_t n = snap.node_count();
  const std::size_t begin = std::min(n, std::size_t{shard} * shard_size);
  const std::size_t end = std::min(n, begin + shard_size);
  for (std::size_t lo = begin; lo < end;) {
    // A chunk carries at least one block, then more while they fit the
    // budget, so the cap is soft by at most one destination's rows.
    std::size_t bytes = block_bytes(*snap.blocks_[lo], n);
    std::size_t hi = lo + 1;
    while (hi < end &&
           bytes + block_bytes(*snap.blocks_[hi], n) <= kChunkBudgetBytes)
      bytes += block_bytes(*snap.blocks_[hi++], n);
    std::string chunk;
    chunk.reserve(kDataHeaderBytes + bytes);
    append_data_header(chunk, snap, shard_count, shard,
                       static_cast<std::uint32_t>(lo),
                       static_cast<std::uint32_t>(hi - lo));
    for (std::size_t j = lo; j < hi; ++j) append_block(chunk, *snap.blocks_[j]);
    if (!sink(chunk)) return false;
    lo = hi;
  }
  return true;
}

std::string ReplicationCodec::encode_final(
    const RouteSnapshot& snap, std::uint32_t shard_count,
    std::span<const std::uint32_t> sent) {
  const std::size_t n = snap.node_count();
  std::string out;
  out.reserve(53 + 24 * n + 4 * sent.size());
  append_u8(out, kFinalChunk);
  append_u64(out, snap.version());
  append_u64(out, n);
  append_u32(out, shard_count);
  append_u64(out, snap.graph_version());
  append_u64(out, snap.published_at_ns());
  append_u64(out, snap.checksum());
  for (NodeId v = 0; v < n; ++v)
    append_i64(out, encode_cost(snap.node_cost(v)));
  for (NodeId v = 0; v < n; ++v) append_i64(out, snap.payment_owed(v));
  for (NodeId v = 0; v < n; ++v) append_i64(out, snap.payment_settled(v));
  append_u32(out, static_cast<std::uint32_t>(sent.size()));
  for (const std::uint32_t s : sent) append_u32(out, s);
  return out;
}

// --- assembler --------------------------------------------------------------

ReplicationCodec::Assembler::Assembler(
    std::shared_ptr<const RouteSnapshot> base)
    : base_(std::move(base)) {}

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
    // A base of the wrong geometry cannot donate blocks (the replica's
    // store predates a server restart that changed the network). Degrade
    // to the cold-bootstrap rule: if the stream does not cover everything,
    // finish() fails coverage rather than mixing incompatible blocks.
    if (base_ != nullptr && base_->node_count() != n_) base_.reset();
  } else if (version != version_ || n != n_ || shard_count != shard_count_) {
    return fail("chunk disagrees with stream header");
  }

  if (kind == kDataChunk) {
    const std::uint32_t shard = in.u32();
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
    for (std::uint64_t d = 0; d < dest_count; ++d) {
      const NodeId j = static_cast<NodeId>(dest_begin + d);
      if (received_[j] != nullptr) return fail("duplicate destination block");
      RouteSnapshot::BlockPtr block = parse_block(in, n_);
      if (block == nullptr) return fail("malformed destination block");
      // Digest adoption: share base's block whenever the content
      // round-trips identical — the wire copy is dropped and memory stays
      // shared.
      if (base_ != nullptr && base_->blocks_[j]->digest == block->digest) {
        block = base_->blocks_[j];
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
    // Exact-size arithmetic before any reserve: the globals and the sent
    // list's count field must both fit.
    if (in.fail || in.remaining() < 24 * n_ + 4)
      return fail("truncated final chunk");
    node_cost_.reserve(n_);
    for (std::uint64_t v = 0; v < n_; ++v) node_cost_.push_back(in.cost());
    owed_.reserve(n_);
    for (std::uint64_t v = 0; v < n_; ++v) owed_.push_back(in.i64());
    settled_.reserve(n_);
    for (std::uint64_t v = 0; v < n_; ++v) settled_.push_back(in.i64());
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
  result.shards_sent = shards_sent_;
  result.blocks_adopted = blocks_adopted_;
  result.shard_count = shard_count_;
  return result;
}

}  // namespace fpss::service
