#include "net/wire.h"

#include "util/binio.h"
#include "util/checksum.h"

namespace fpss::net {

namespace {

using util::append_cost;
using util::append_i64;
using util::append_u16;
using util::append_u32;
using util::append_u64;
using util::append_u8;
using util::BinReader;

bool known_frame_type(std::uint8_t tag) {
  switch (static_cast<FrameType>(tag)) {
    case FrameType::kHello:
    case FrameType::kHelloAck:
    case FrameType::kQueryBatch:
    case FrameType::kReplyBatch:
    case FrameType::kCountersFetch:
    case FrameType::kCountersReply:
    case FrameType::kDeltaSubmit:
    case FrameType::kDeltaAck:
    case FrameType::kDrain:
    case FrameType::kDrainReply:
    case FrameType::kSnapshotFetch:
    case FrameType::kSnapshotChunk:
    case FrameType::kAwaitPublish:
    case FrameType::kPublishNotify:
    case FrameType::kError:
      return true;
  }
  return false;
}

// Delta kinds get explicit wire tags (the in-memory enum order is not a
// wire contract).
constexpr std::uint8_t kDeltaCostChange = 1;
constexpr std::uint8_t kDeltaAddLink = 2;
constexpr std::uint8_t kDeltaRemoveLink = 3;
constexpr std::uint8_t kDeltaRepublish = 4;

}  // namespace

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  append_u32(out, kWireMagic);
  append_u8(out, kWireVersion);
  append_u8(out, static_cast<std::uint8_t>(type));
  append_u16(out, 0);  // reserved
  append_u32(out, static_cast<std::uint32_t>(payload.size()));
  append_u64(out, util::xxh64(payload));
  out.append(payload);
  return out;
}

HeaderResult decode_frame_header(std::string_view header_bytes,
                                 const WireLimits& limits) {
  HeaderResult result;
  if (header_bytes.size() != kFrameHeaderBytes) {
    result.error = "short frame header";
    return result;
  }
  BinReader in{header_bytes};
  if (in.u32() != kWireMagic) {
    result.error = "bad magic (not an fpss-wire frame)";
    return result;
  }
  const std::uint8_t version = in.u8();
  if (version != kWireVersion) {
    result.status = WireStatus::kUnsupportedVersion;
    result.error =
        "unsupported wire version " + std::to_string(version);
    return result;
  }
  const std::uint8_t type = in.u8();
  if (!known_frame_type(type)) {
    result.status = WireStatus::kBadFrameType;
    result.error = "unknown frame type " + std::to_string(type);
    return result;
  }
  // No encoder writes a nonzero reserved field, so no decoder accepts one.
  if (in.u16() != 0) {
    result.error = "nonzero reserved header field";
    return result;
  }
  const std::uint32_t payload_bytes = in.u32();
  if (payload_bytes > limits.max_payload_bytes) {
    result.status = WireStatus::kOversized;
    result.error = "frame payload " + std::to_string(payload_bytes) +
                   " bytes exceeds limit " +
                   std::to_string(limits.max_payload_bytes);
    return result;
  }
  result.header.type = static_cast<FrameType>(type);
  result.header.payload_bytes = payload_bytes;
  result.header.checksum = in.u64();
  return result;
}

bool payload_checksum_ok(const FrameHeader& header, std::string_view payload) {
  return payload.size() == header.payload_bytes &&
         util::xxh64(payload) == header.checksum;
}

// --- control payloads ------------------------------------------------------

std::string encode_hello(const Hello& hello) {
  std::string out;
  append_u8(out, hello.wire_version);
  append_u32(out, hello.max_batch);
  return out;
}

bool decode_hello(std::string_view payload, Hello& out) {
  BinReader in{payload};
  out.wire_version = in.u8();
  out.max_batch = in.u32();
  return !in.fail && in.pos == payload.size();
}

std::string encode_hello_ack(const HelloAck& ack) {
  std::string out;
  append_u8(out, ack.wire_version);
  append_u64(out, ack.node_count);
  append_u64(out, ack.snapshot_version);
  append_u32(out, ack.max_batch);
  append_u32(out, ack.hop_count);
  return out;
}

bool decode_hello_ack(std::string_view payload, HelloAck& out) {
  BinReader in{payload};
  out.wire_version = in.u8();
  out.node_count = in.u64();
  out.snapshot_version = in.u64();
  out.max_batch = in.u32();
  out.hop_count = in.u32();
  return !in.fail && in.pos == payload.size();
}

std::string encode_error(const ErrorFrame& error) {
  std::string out;
  append_u8(out, static_cast<std::uint8_t>(error.code));
  append_u32(out, static_cast<std::uint32_t>(error.message.size()));
  out.append(error.message);
  return out;
}

bool decode_error(std::string_view payload, ErrorFrame& out) {
  BinReader in{payload};
  out.code = static_cast<WireStatus>(in.u8());
  const std::uint32_t length = in.u32();
  if (in.fail || in.remaining() != length) return false;
  out.message.assign(payload.substr(in.pos, length));
  return true;
}

std::string encode_u64(std::uint64_t value) {
  std::string out;
  append_u64(out, value);
  return out;
}

bool decode_u64(std::string_view payload, std::uint64_t& out) {
  BinReader in{payload};
  out = in.u64();
  return !in.fail && in.pos == payload.size();
}

std::string encode_delta_ack(const DeltaAck& ack) {
  std::string out;
  append_u64(out, ack.accepted);
  append_u64(out, ack.publish_count);
  return out;
}

bool decode_delta_ack(std::string_view payload, DeltaAck& out) {
  BinReader in{payload};
  out.accepted = in.u64();
  out.publish_count = in.u64();
  return !in.fail && in.pos == payload.size();
}

// --- data payloads ---------------------------------------------------------

namespace {
constexpr std::size_t kRequestBytes = 13;  // kind + k + i + j
constexpr std::size_t kReplyMinBytes = 49;  // all fields, empty path
constexpr std::size_t kDeltaBytes = 17;    // kind + u + v + cost
}  // namespace

std::string encode_requests(std::span<const service::Request> requests) {
  std::string out;
  out.reserve(4 + kRequestBytes * requests.size());
  append_u32(out, static_cast<std::uint32_t>(requests.size()));
  for (const service::Request& r : requests) {
    append_u8(out, static_cast<std::uint8_t>(r.kind));
    append_u32(out, r.k);
    append_u32(out, r.i);
    append_u32(out, r.j);
  }
  return out;
}

RequestsResult decode_requests(std::string_view payload,
                               std::uint32_t max_batch) {
  RequestsResult result;
  BinReader in{payload};
  const std::uint32_t count = in.u32();
  if (in.fail) {
    result.error = "truncated request batch";
    return result;
  }
  if (count > max_batch) {
    result.status = WireStatus::kOversized;
    result.error = "request batch of " + std::to_string(count) +
                   " exceeds limit " + std::to_string(max_batch);
    return result;
  }
  // Exact-size check before the reserve: a lying count cannot force a
  // large allocation or leave trailing garbage unnoticed.
  if (in.remaining() != kRequestBytes * count) {
    result.error = "request batch size mismatch";
    return result;
  }
  result.requests.reserve(count);
  for (std::uint32_t r = 0; r < count; ++r) {
    service::Request request;
    request.kind = static_cast<service::RequestKind>(in.u8());
    request.k = in.u32();
    request.i = in.u32();
    request.j = in.u32();
    result.requests.push_back(request);
  }
  return result;
}

std::string encode_replies(std::span<const service::Reply> replies) {
  std::string out;
  std::size_t path_words = 0;
  for (const service::Reply& r : replies) path_words += r.path.size();
  out.reserve(4 + kReplyMinBytes * replies.size() + 4 * path_words);
  append_u32(out, static_cast<std::uint32_t>(replies.size()));
  for (const service::Reply& r : replies) {
    append_u8(out, static_cast<std::uint8_t>(r.status));
    append_cost(out, r.value);
    append_i64(out, r.amount);
    append_u32(out, r.node);
    append_u64(out, r.snapshot_version);
    append_u64(out, r.published_at_ns);
    append_u64(out, r.age_ns);
    append_u32(out, static_cast<std::uint32_t>(r.path.size()));
    for (const NodeId v : r.path) append_u32(out, v);
  }
  return out;
}

RepliesResult decode_replies(std::string_view payload,
                             const WireLimits& limits) {
  RepliesResult result;
  BinReader in{payload};
  const std::uint32_t count = in.u32();
  if (in.fail) {
    result.error = "truncated reply batch";
    return result;
  }
  if (count > limits.max_batch) {
    result.status = WireStatus::kOversized;
    result.error = "reply batch of " + std::to_string(count) +
                   " exceeds limit " + std::to_string(limits.max_batch);
    return result;
  }
  if (in.remaining() < kReplyMinBytes * count) {
    result.error = "reply batch size mismatch";
    return result;
  }
  result.replies.reserve(count);
  for (std::uint32_t r = 0; r < count; ++r) {
    service::Reply reply;
    reply.status = static_cast<service::Status>(in.u8());
    reply.value = in.cost();
    reply.amount = in.i64();
    reply.node = in.u32();
    reply.snapshot_version = in.u64();
    reply.published_at_ns = in.u64();
    reply.age_ns = in.u64();
    const std::uint32_t path_len = in.u32();
    // Bound the reserve by what the buffer can actually still hold.
    if (in.fail || path_len > in.remaining() / 4) {
      result.replies.clear();
      result.error = "truncated reply path";
      return result;
    }
    reply.path.reserve(path_len);
    for (std::uint32_t h = 0; h < path_len; ++h)
      reply.path.push_back(in.u32());
    result.replies.push_back(std::move(reply));
  }
  if (in.fail || in.pos != payload.size()) {
    result.replies.clear();
    result.error = "reply batch size mismatch";
    return result;
  }
  return result;
}

std::string encode_deltas(
    std::span<const service::Delta> deltas) {
  using Delta = service::Delta;
  std::string out;
  out.reserve(4 + kDeltaBytes * deltas.size());
  append_u32(out, static_cast<std::uint32_t>(deltas.size()));
  for (const Delta& d : deltas) {
    std::uint8_t tag = kDeltaRepublish;
    switch (d.kind) {
      case Delta::Kind::kCostChange:
        tag = kDeltaCostChange;
        break;
      case Delta::Kind::kAddLink:
        tag = kDeltaAddLink;
        break;
      case Delta::Kind::kRemoveLink:
        tag = kDeltaRemoveLink;
        break;
      case Delta::Kind::kRepublish:
        tag = kDeltaRepublish;
        break;
    }
    append_u8(out, tag);
    append_u32(out, d.u);
    append_u32(out, d.v);
    append_cost(out, d.cost);
  }
  return out;
}

DeltasResult decode_deltas(std::string_view payload, std::uint32_t max_batch) {
  using Delta = service::Delta;
  DeltasResult result;
  BinReader in{payload};
  const std::uint32_t count = in.u32();
  if (in.fail) {
    result.error = "truncated delta batch";
    return result;
  }
  if (count > max_batch) {
    result.status = WireStatus::kOversized;
    result.error = "delta batch of " + std::to_string(count) +
                   " exceeds limit " + std::to_string(max_batch);
    return result;
  }
  if (in.remaining() != kDeltaBytes * count) {
    result.error = "delta batch size mismatch";
    return result;
  }
  result.deltas.reserve(count);
  for (std::uint32_t d = 0; d < count; ++d) {
    Delta delta;
    const std::uint8_t tag = in.u8();
    delta.u = in.u32();
    delta.v = in.u32();
    delta.cost = in.cost();
    switch (tag) {
      case kDeltaCostChange:
        delta.kind = Delta::Kind::kCostChange;
        if (delta.cost.is_infinite()) {
          result.deltas.clear();
          result.error = "cost-change delta with infinite cost";
          return result;
        }
        break;
      case kDeltaAddLink:
        delta.kind = Delta::Kind::kAddLink;
        break;
      case kDeltaRemoveLink:
        delta.kind = Delta::Kind::kRemoveLink;
        break;
      case kDeltaRepublish:
        delta.kind = Delta::Kind::kRepublish;
        break;
      default:
        result.deltas.clear();
        result.error = "unknown delta kind " + std::to_string(tag);
        return result;
    }
    result.deltas.push_back(delta);
  }
  if (in.fail) {
    result.deltas.clear();
    result.error = "truncated delta batch";
    return result;
  }
  return result;
}

// --- replication payloads --------------------------------------------------

std::string encode_await(const Await& await) {
  std::string out;
  append_u64(out, await.since);
  append_u32(out, await.wait_ms);
  return out;
}

bool decode_await(std::string_view payload, Await& out) {
  BinReader in{payload};
  out.since = in.u64();
  out.wait_ms = in.u32();
  return !in.fail && in.pos == payload.size();
}

std::string encode_publish_notify(const PublishNotify& notify) {
  std::string out;
  append_u64(out, notify.snapshot_version);
  append_u64(out, notify.published_at_ns);
  return out;
}

bool decode_publish_notify(std::string_view payload, PublishNotify& out) {
  BinReader in{payload};
  out.snapshot_version = in.u64();
  out.published_at_ns = in.u64();
  return !in.fail && in.pos == payload.size();
}

namespace {

/// A peer address is a dotted quad (or "(other)"); anything longer is a
/// lying frame.
constexpr std::uint32_t kMaxPeerAddrBytes = 64;
/// The smallest peer entry: an empty address's length prefix plus the
/// counters.
constexpr std::size_t kMinPeerBytes = 4 + 8 * PeerCounters::fields().size();

template <typename T>
void append_fields(std::string& out, const T& record) {
  for (const util::CounterField<T>& field : T::fields())
    append_u64(out, record.*field.member);
}

template <typename T>
void read_fields(BinReader& in, T& record) {
  for (const util::CounterField<T>& field : T::fields())
    record.*field.member = in.u64();
}

/// One `<prefix><name>  value` row per field of `record`.
template <typename T>
void add_rows(util::Table& table, const std::string& prefix,
              const T& record) {
  for (const util::CounterField<T>& field : T::fields())
    table.add(prefix + field.name, record.*field.member);
}

}  // namespace

std::string encode_counters(const CountersFrame& frame) {
  std::string out;
  append_fields(out, frame.service);
  append_fields(out, frame.server);
  append_u32(out, static_cast<std::uint32_t>(frame.peers.size()));
  for (const PeerCounters& peer : frame.peers) {
    append_u32(out, static_cast<std::uint32_t>(peer.peer.size()));
    out.append(peer.peer);
    append_fields(out, peer);
  }
  append_u8(out, frame.has_replica ? 1 : 0);
  if (frame.has_replica) append_fields(out, frame.replica);
  return out;
}

bool decode_counters(std::string_view payload, CountersFrame& out) {
  BinReader in{payload};
  read_fields(in, out.service);
  read_fields(in, out.server);
  const std::uint32_t peer_count = in.u32();
  // A lying count cannot force a large allocation past this bound.
  if (in.fail || peer_count > in.remaining() / kMinPeerBytes) return false;
  out.peers.clear();
  out.peers.reserve(peer_count);
  for (std::uint32_t p = 0; p < peer_count; ++p) {
    PeerCounters peer;
    const std::uint32_t addr_len = in.u32();
    if (in.fail || addr_len > kMaxPeerAddrBytes || addr_len > in.remaining())
      return false;
    peer.peer.assign(payload.substr(in.pos, addr_len));
    in.pos += addr_len;
    read_fields(in, peer);
    out.peers.push_back(std::move(peer));
  }
  const std::uint8_t present = in.u8();
  if (present > 1) return false;
  out.has_replica = present == 1;
  out.replica = ReplicaCounters{};
  if (out.has_replica) read_fields(in, out.replica);
  return !in.fail && in.pos == payload.size();
}

util::Table counters_table(const CountersFrame& frame) {
  util::Table table({"counter", "value"});
  add_rows(table, "service.", frame.service);
  add_rows(table, "server.", frame.server);
  for (const PeerCounters& peer : frame.peers)
    add_rows(table, "peer[" + peer.peer + "].", peer);
  if (frame.has_replica) add_rows(table, "replica.", frame.replica);
  return table;
}

}  // namespace fpss::net
