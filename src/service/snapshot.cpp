#include "service/snapshot.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "bgp/rib.h"
#include "graph/graph.h"
#include "pricing/pricing_agent.h"
#include "pricing/session.h"
#include "util/binio.h"
#include "util/checksum.h"
#include "util/clock.h"
#include "util/contract.h"
#include "util/thread_pool.h"

namespace fpss::service {

// Costs are serialized and checksummed as int64 via util::encode_cost:
// -1 encodes +infinity (finite costs are non-negative by construction).
using util::append_i64;
using util::append_u32;
using util::append_u64;
using util::encode_cost;

std::uint64_t RouteSnapshot::DestinationBlock::compute_digest() const {
  util::Fnv1a64 fnv;
  for (NodeId v : next_hop) fnv.u32(v);
  for (Cost c : cost) fnv.i64(encode_cost(c));
  for (std::uint64_t o : offset) fnv.u64(o);
  for (NodeId v : transit) fnv.u32(v);
  for (Cost c : price) fnv.i64(encode_cost(c));
  return fnv.digest();
}

RouteSnapshot::BlockPtr RouteSnapshot::extract_destination(
    const pricing::Session& session, NodeId j, std::size_t n) {
  auto block = std::make_shared<DestinationBlock>();
  block->next_hop.assign(n, kInvalidNode);
  block->cost.assign(n, Cost::infinity());
  block->offset.reserve(n + 1);
  block->offset.push_back(0);
  for (NodeId i = 0; i < n; ++i) {
    if (i == j) {
      block->cost[i] = Cost::zero();
      block->offset.push_back(block->transit.size());
      continue;
    }
    // One agent lookup per source, not one per CSR entry: the selected
    // route and every price on it come from the same agent.
    const pricing::PricingAgent& agent = session.agent(i);
    const bgp::SelectedRoute& route = agent.selected(j);
    if (route.valid()) {
      block->cost[i] = route.cost;
      block->next_hop[i] = route.next_hop;
      // The row holds the path intermediates in order; p^k_ij for each.
      for (std::size_t h = 1; h + 1 < route.path.size(); ++h) {
        const NodeId k = route.path[h];
        block->transit.push_back(k);
        block->price.push_back(agent.price(j, k));
      }
    }
    block->offset.push_back(block->transit.size());
  }
  block->digest = block->compute_digest();
  return block;
}

void RouteSnapshot::finish(const payments::Ledger* ledger) {
  if (ledger != nullptr) {
    FPSS_EXPECTS(ledger->node_count() == n_);
    owed_ = ledger->owed_all();
    settled_ = ledger->settled_all();
  } else {
    owed_.assign(n_, 0);
    settled_.assign(n_, 0);
  }
  seal();
}

void RouteSnapshot::seal() {
  total_entries_ = 0;
  for (const BlockPtr& block : blocks_) total_entries_ += block->transit.size();
  checksum_ = compute_checksum();
}

std::shared_ptr<const RouteSnapshot> RouteSnapshot::from_session(
    const pricing::Session& session, std::uint64_t version,
    const payments::Ledger* ledger, util::ThreadPool* pool) {
  FPSS_EXPECTS(session.engine().stats().converged);
  const graph::Graph& g = session.network().topology();
  const std::size_t n = g.node_count();

  auto snap = std::shared_ptr<RouteSnapshot>(new RouteSnapshot);
  snap->n_ = n;
  snap->version_ = version;
  snap->graph_version_ = g.version();
  snap->published_at_ns_ = util::wall_clock_ns();
  snap->node_cost_.reserve(n);
  for (NodeId v = 0; v < n; ++v) snap->node_cost_.push_back(g.cost(v));
  snap->blocks_.resize(n);
  const auto build = [&](std::size_t j) {
    snap->blocks_[j] =
        extract_destination(session, static_cast<NodeId>(j), n);
  };
  if (pool != nullptr && n > 1) {
    pool->parallel_for(n, build);
  } else {
    for (std::size_t j = 0; j < n; ++j) build(j);
  }
  snap->finish(ledger);
  return snap;
}

std::shared_ptr<const RouteSnapshot> RouteSnapshot::from_session_incremental(
    const std::shared_ptr<const RouteSnapshot>& prev,
    const pricing::Session& session, std::uint64_t version,
    std::span<const NodeId> dirty, const payments::Ledger* ledger,
    util::ThreadPool* pool, SnapshotExportStats* stats) {
  FPSS_EXPECTS(session.engine().stats().converged);
  FPSS_EXPECTS(prev != nullptr);
  const graph::Graph& g = session.network().topology();
  const std::size_t n = g.node_count();
  FPSS_EXPECTS(prev->node_count() == n);

  SnapshotExportStats local;
  if (prev->graph_version() != g.version()) {
    // prev's rows describe a different topology generation; per-row sharing
    // would couple correctness to the dirty set's accuracy across a graph
    // rewrite, so rebuild everything (the rare, already-expensive case).
    auto snap = from_session(session, version, ledger, pool);
    local.rows_rebuilt = n;
    local.full_rebuild = true;
    if (stats != nullptr) *stats = local;
    return snap;
  }

  auto snap = std::shared_ptr<RouteSnapshot>(new RouteSnapshot);
  snap->n_ = n;
  snap->version_ = version;
  snap->graph_version_ = g.version();
  snap->published_at_ns_ = util::wall_clock_ns();
  snap->node_cost_.reserve(n);
  for (NodeId v = 0; v < n; ++v) snap->node_cost_.push_back(g.cost(v));
  snap->blocks_ = prev->blocks_;  // share everything, then overwrite dirty

  // Dedup defensively (a union of per-epoch dirty sets may repeat ids) so
  // the parallel loop owns each slot exactly once.
  std::vector<NodeId> rebuild;
  rebuild.reserve(dirty.size());
  std::vector<bool> seen(n, false);
  for (const NodeId j : dirty) {
    FPSS_EXPECTS(j < n);
    if (!seen[j]) {
      seen[j] = true;
      rebuild.push_back(j);
    }
  }
  const auto build = [&](std::size_t t) {
    snap->blocks_[rebuild[t]] = extract_destination(session, rebuild[t], n);
  };
  if (pool != nullptr && rebuild.size() > 1) {
    pool->parallel_for(rebuild.size(), build);
  } else {
    for (std::size_t t = 0; t < rebuild.size(); ++t) build(t);
  }
  snap->finish(ledger);

  local.rows_rebuilt = rebuild.size();
  local.rows_reused = n - rebuild.size();
  if (stats != nullptr) *stats = local;
  return snap;
}

graph::Path RouteSnapshot::path(NodeId i, NodeId j) const {
  graph::Path p;
  if (i == j) return {i};
  if (!reachable(i, j)) return p;
  const DestinationBlock& block = *blocks_[j];
  p.reserve(block.offset[i + 1] - block.offset[i] + 2);
  p.push_back(i);
  for (std::uint64_t e = block.offset[i]; e < block.offset[i + 1]; ++e)
    p.push_back(block.transit[e]);
  p.push_back(j);
  return p;
}

Cost RouteSnapshot::price(NodeId k, NodeId i, NodeId j) const {
  if (i == j) return Cost::zero();
  const DestinationBlock& block = *blocks_[j];
  for (std::uint64_t e = block.offset[i]; e < block.offset[i + 1]; ++e)
    if (block.transit[e] == k) return block.price[e];
  return Cost::zero();
}

Cost RouteSnapshot::pair_payment(NodeId i, NodeId j) const {
  Cost total = Cost::zero();
  if (i == j) return total;
  const DestinationBlock& block = *blocks_[j];
  for (std::uint64_t e = block.offset[i]; e < block.offset[i + 1]; ++e)
    total += block.price[e];
  return total;
}

payments::PriceFn RouteSnapshot::price_fn() const {
  return [this](NodeId k, NodeId i, NodeId j) { return price(k, i, j); };
}

std::uint64_t RouteSnapshot::compute_checksum() const {
  util::Fnv1a64 fnv;
  fnv.u64(n_);
  fnv.u64(version_);
  fnv.u64(graph_version_);
  fnv.u64(published_at_ns_);
  fnv.u64(total_entries_);
  for (Cost c : node_cost_) fnv.i64(encode_cost(c));
  // One word per destination: reused blocks cost O(1) here, which is what
  // keeps incremental export time proportional to the dirty set.
  for (const BlockPtr& block : blocks_) fnv.u64(block->digest);
  for (Cost::rep r : owed_) fnv.i64(r);
  for (Cost::rep r : settled_) fnv.i64(r);
  return fnv.digest();
}

std::uint64_t RouteSnapshot::content_checksum() const {
  util::Fnv1a64 fnv;
  fnv.u64(n_);
  fnv.u64(graph_version_);
  fnv.u64(total_entries_);
  for (Cost c : node_cost_) fnv.i64(encode_cost(c));
  for (const BlockPtr& block : blocks_) fnv.u64(block->digest);
  for (Cost::rep r : owed_) fnv.i64(r);
  for (Cost::rep r : settled_) fnv.i64(r);
  return fnv.digest();
}

bool RouteSnapshot::self_check() const {
  if (checksum_ != compute_checksum()) return false;
  if (node_cost_.size() != n_ || blocks_.size() != n_ || owed_.size() != n_ ||
      settled_.size() != n_)
    return false;
  std::uint64_t entries = 0;
  for (NodeId j = 0; j < n_; ++j) {
    if (blocks_[j] == nullptr) return false;
    const DestinationBlock& block = *blocks_[j];
    if (block.next_hop.size() != n_ || block.cost.size() != n_ ||
        block.offset.size() != n_ + 1 ||
        block.transit.size() != block.price.size())
      return false;
    if (block.offset.front() != 0 ||
        block.offset.back() != block.transit.size())
      return false;
    if (block.digest != block.compute_digest()) return false;
    entries += block.transit.size();
    for (NodeId i = 0; i < n_; ++i) {
      const std::uint64_t begin = block.offset[i];
      const std::uint64_t end = block.offset[i + 1];
      if (begin > end) return false;
      if (i == j) {
        if (begin != end || block.cost[i] != Cost::zero()) return false;
        continue;
      }
      if (block.cost[i].is_infinite()) {
        if (begin != end || block.next_hop[i] != kInvalidNode) return false;
        continue;
      }
      // c(i,j) is by definition the sum of the declared costs of the path
      // intermediates — the row must reproduce it, and the stored next hop
      // must be the first node after i on that path.
      Cost row_cost = Cost::zero();
      for (std::uint64_t e = begin; e < end; ++e) {
        if (block.transit[e] >= n_) return false;
        row_cost += node_cost_[block.transit[e]];
      }
      if (row_cost != block.cost[i]) return false;
      const NodeId hop = begin < end ? block.transit[begin] : j;
      if (block.next_hop[i] != hop) return false;
    }
  }
  return entries == total_entries_;
}

// --- binary persistence ----------------------------------------------------

namespace {

constexpr char kMagic[8] = {'F', 'P', 'S', 'S', 'S', 'N', 'P', '1'};
// v3 switched the header digest to the hierarchical per-destination scheme
// (see snapshot.h); v4 keeps the payload layout but marks the
// incremental-checkpoint era — a v4 base may carry a patch-journal sidecar
// whose header binds to this file's checksum (service/checkpoint.h).
constexpr std::uint64_t kFormatVersion = 4;

using Reader = util::BinReader;

SnapshotLoadResult load_fail(std::string message) {
  SnapshotLoadResult result;
  result.error = std::move(message);
  return result;
}

}  // namespace

// Friend of RouteSnapshot: turns the private blocks into the flat,
// destination-major payload image and back.
struct SnapshotCodec {
  static std::string payload(const RouteSnapshot& s) {
    std::string out;
    const std::size_t n = s.n_;
    const std::size_t entries = s.total_entries_;
    out.reserve(8 * (5 + n + n * n + n * n + 1 + entries + 2 * n) +
                4 * (n * n + entries));
    append_u64(out, n);
    append_u64(out, s.version_);
    append_u64(out, s.graph_version_);
    append_u64(out, s.published_at_ns_);
    append_u64(out, entries);
    for (Cost c : s.node_cost_) append_i64(out, encode_cost(c));
    for (const auto& block : s.blocks_)
      for (NodeId v : block->next_hop) append_u32(out, v);
    for (const auto& block : s.blocks_)
      for (Cost c : block->cost) append_i64(out, encode_cost(c));
    // The global CSR fence: block-local offsets rebased onto one running
    // entry count, exactly the flat layout v2 wrote.
    std::uint64_t base = 0;
    append_u64(out, 0);
    for (const auto& block : s.blocks_) {
      for (std::size_t i = 1; i <= n; ++i)
        append_u64(out, base + block->offset[i]);
      base += block->transit.size();
    }
    for (const auto& block : s.blocks_)
      for (NodeId v : block->transit) append_u32(out, v);
    for (const auto& block : s.blocks_)
      for (Cost c : block->price) append_i64(out, encode_cost(c));
    for (Cost::rep r : s.owed_) append_i64(out, r);
    for (Cost::rep r : s.settled_) append_i64(out, r);
    return out;
  }

  static SnapshotLoadResult parse(const std::string& payload,
                                  std::uint64_t stored_checksum) {
    Reader in{payload};
    auto snap = std::shared_ptr<RouteSnapshot>(new RouteSnapshot);
    const std::uint64_t n64 = in.u64();
    // A snapshot's flat arrays are n*n; cap n so the size math cannot
    // overflow and a corrupted header cannot trigger a huge allocation.
    if (n64 > (1u << 20)) return load_fail("implausible node count");
    const std::size_t n = static_cast<std::size_t>(n64);
    snap->n_ = n;
    snap->version_ = in.u64();
    snap->graph_version_ = in.u64();
    snap->published_at_ns_ = in.u64();
    const std::uint64_t entries = in.u64();
    if (in.fail || entries > payload.size())
      return load_fail("truncated payload");
    // Exact payload arithmetic (see SnapshotCodec::payload) before any
    // reserve(): a corrupted header must not trigger a giant allocation.
    const std::uint64_t need =
        48 + 24 * n64 + 20 * n64 * n64 + 12 * entries;
    if (need != payload.size()) return load_fail("payload size mismatch");

    bool bad_cost = false;
    const auto read_cost = [&in, &bad_cost] {
      const std::int64_t raw = in.i64();
      if (in.fail || raw == util::kInfCostWire) return Cost::infinity();
      if (raw < 0 || raw > Cost::kMaxFinite) {
        bad_cost = true;
        return Cost::infinity();
      }
      return Cost{raw};
    };
    snap->node_cost_.reserve(n);
    for (std::size_t v = 0; v < n; ++v)
      snap->node_cost_.push_back(read_cost());

    std::vector<std::shared_ptr<RouteSnapshot::DestinationBlock>> blocks;
    blocks.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      auto block = std::make_shared<RouteSnapshot::DestinationBlock>();
      block->next_hop.reserve(n);
      block->cost.reserve(n);
      block->offset.reserve(n + 1);
      blocks.push_back(std::move(block));
    }
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i)
        blocks[j]->next_hop.push_back(in.u32());
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < n; ++i)
        blocks[j]->cost.push_back(read_cost());
    // Global offsets, validated monotone and in range before the entry
    // arrays are sliced against them.
    std::vector<std::uint64_t> offsets;
    offsets.reserve(n * n + 1);
    for (std::size_t s = 0; s < n * n + 1; ++s) {
      const std::uint64_t o = in.u64();
      if (!offsets.empty() && !in.fail && (o < offsets.back() || o > entries))
        return load_fail("price offsets not monotone");
      offsets.push_back(o);
    }
    if (!in.fail && (offsets.front() != 0 || offsets.back() != entries))
      return load_fail("price offsets out of range");
    std::vector<NodeId> transit;
    transit.reserve(entries);
    for (std::uint64_t e = 0; e < entries; ++e) transit.push_back(in.u32());
    std::vector<Cost> price;
    price.reserve(entries);
    for (std::uint64_t e = 0; e < entries; ++e) price.push_back(read_cost());
    snap->owed_.reserve(n);
    for (std::size_t v = 0; v < n; ++v) snap->owed_.push_back(in.i64());
    snap->settled_.reserve(n);
    for (std::size_t v = 0; v < n; ++v) snap->settled_.push_back(in.i64());

    if (in.fail) return load_fail("truncated payload");
    if (bad_cost) return load_fail("cost value out of range");
    if (in.pos != payload.size()) return load_fail("trailing bytes");

    // Slice the flat arrays into per-destination blocks (local offsets).
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t lo = offsets[j * n];
      const std::uint64_t hi = offsets[(j + 1) * n];
      for (std::size_t i = 0; i <= n; ++i)
        blocks[j]->offset.push_back(offsets[j * n + i] - lo);
      blocks[j]->transit.assign(
          transit.begin() + static_cast<std::ptrdiff_t>(lo),
          transit.begin() + static_cast<std::ptrdiff_t>(hi));
      blocks[j]->price.assign(
          price.begin() + static_cast<std::ptrdiff_t>(lo),
          price.begin() + static_cast<std::ptrdiff_t>(hi));
      blocks[j]->digest = blocks[j]->compute_digest();
      snap->blocks_.push_back(std::move(blocks[j]));
    }
    snap->total_entries_ = entries;

    snap->checksum_ = snap->compute_checksum();
    if (snap->checksum_ != stored_checksum) {
      std::ostringstream msg;
      msg << "checksum mismatch (stored " << stored_checksum << " != computed "
          << snap->checksum_ << ")";
      return load_fail(msg.str());
    }
    if (!snap->self_check())
      return load_fail("structural validation failed");

    SnapshotLoadResult result;
    result.snapshot = std::move(snap);
    return result;
  }
};

SnapshotSaveResult save_snapshot(const RouteSnapshot& snapshot,
                                 const std::string& path) {
  SnapshotSaveResult result;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    result.error = "cannot open '" + path + "' for writing";
    return result;
  }
  const std::string payload = SnapshotCodec::payload(snapshot);
  std::string header;
  header.append(kMagic, sizeof(kMagic));
  append_u64(header, kFormatVersion);
  append_u64(header, payload.size());
  append_u64(header, snapshot.checksum());
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.flush();
  if (!out)
    result.error = "write to '" + path + "' failed";
  else
    result.bytes = header.size() + payload.size();
  return result;
}

SnapshotLoadResult load_snapshot_bytes(std::string_view bytes) {
  constexpr std::size_t kHeaderSize = sizeof(kMagic) + 3 * 8;
  if (bytes.size() < kHeaderSize) return load_fail("file too short");
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    return load_fail("bad magic (not an fpss-snap file)");
  const std::string image(bytes);
  Reader header{image, sizeof(kMagic)};
  const std::uint64_t format = header.u64();
  if (format != kFormatVersion)
    return load_fail("unsupported format version " + std::to_string(format));
  const std::uint64_t payload_size = header.u64();
  const std::uint64_t stored_checksum = header.u64();
  if (bytes.size() - kHeaderSize != payload_size)
    return load_fail("payload length mismatch");
  return SnapshotCodec::parse(image.substr(kHeaderSize), stored_checksum);
}

SnapshotLoadResult load_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return load_fail("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_snapshot_bytes(buffer.str());
}

}  // namespace fpss::service
