#include "service/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <span>
#include <sstream>
#include <vector>

#include "service/replication.h"
#include "util/binio.h"
#include "util/contract.h"

namespace fpss::service {

namespace {

constexpr char kMagic[8] = {'F', 'P', 'S', 'S', 'S', 'N', 'P', '1'};
// v6: the file is a recorded block stream whose chunks carry no shard
// versions; older formats fail on this.
constexpr std::uint64_t kFormatVersion = 6;
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 8;

SnapshotLoadResult load_fail(std::string message) {
  SnapshotLoadResult result;
  result.error = std::move(message);
  return result;
}

/// Appends one stream of `snap` patching the destinations in `sent`, as
/// length-prefixed records, in the on-disk geometry: one shard per
/// destination.
void append_stream(std::string& out, const RouteSnapshot& snap,
                   std::span<const std::uint32_t> sent) {
  ReplicationCodec::encode_stream(
      snap, static_cast<std::uint32_t>(snap.node_count()), sent,
      [&out](std::string_view chunk) {
        util::append_u64(out, chunk.size());
        out.append(chunk);
        return true;
      });
}

/// Writes `bytes` to `path` (truncating, or appending with
/// std::ios::app); empty on success, else the reason.
std::string write_bytes(const std::string& path, const std::string& bytes,
                        std::ios::openmode mode) {
  std::ofstream out(path, std::ios::binary | mode);
  if (!out) return "cannot open '" + path + "' for writing";
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return "write to '" + path + "' failed";
  return "";
}

}  // namespace

// --- save / load ------------------------------------------------------------

SnapshotSaveResult save_snapshot(const RouteSnapshot& snapshot,
                                 const std::string& path) {
  std::string image(kMagic, sizeof(kMagic));
  util::append_u64(image, kFormatVersion);
  std::vector<std::uint32_t> every(snapshot.node_count());
  std::iota(every.begin(), every.end(), 0u);
  append_stream(image, snapshot, every);
  SnapshotSaveResult result;
  result.error = write_bytes(path, image, std::ios::trunc);
  if (result.ok()) result.bytes = image.size();
  return result;
}

SnapshotLoadResult load_snapshot_bytes(std::string_view bytes) {
  if (bytes.size() < kHeaderBytes) return load_fail("file too short");
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    return load_fail("bad magic (not an fpss-snap file)");
  util::BinReader in{bytes, sizeof(kMagic)};
  const std::uint64_t format = in.u64();
  if (format != kFormatVersion)
    return load_fail("unsupported format version " + std::to_string(format));

  SnapshotLoadResult result;
  std::shared_ptr<const RouteSnapshot> state;  // newest complete stream
  ReplicationCodec::Assembler stream;          // the bootstrap first
  std::string error;
  while (in.remaining() > 0) {
    const std::uint64_t len = in.u64();
    if (in.fail || len > in.remaining()) {
      error = "record length mismatch";
      break;
    }
    if (!stream.feed(bytes.substr(in.pos, len))) {
      error = stream.error();
      break;
    }
    in.pos += len;
    if (!stream.finished()) continue;
    ReplicationCodec::Assembler::Result done = stream.finish();
    if (!done.ok()) {
      error = done.error;
      break;
    }
    if (state != nullptr) ++result.records_applied;
    state = std::move(done.snapshot);
    stream = ReplicationCodec::Assembler(state);  // the next catch-up
  }
  if (state == nullptr)
    return load_fail(error.empty() ? stream.finish().error : error);
  if (!state->self_check()) return load_fail("structural validation failed");
  result.snapshot = std::move(state);
  return result;
}

SnapshotLoadResult load_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return load_fail("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_snapshot_bytes(buffer.str());
}

SnapshotLoadResult load_checkpoint(const std::string& directory) {
  return load_snapshot(directory + "/base.fpss-snap");
}

// --- writer -----------------------------------------------------------------

CheckpointWriter::CheckpointWriter(const std::string& directory)
    : path_(directory + "/base.fpss-snap") {
  FPSS_EXPECTS(!directory.empty());
}

std::string CheckpointWriter::on_publish(
    const std::shared_ptr<const RouteSnapshot>& snap) {
  FPSS_EXPECTS(snap != nullptr);
  if (last_written_ == nullptr ||
      last_written_->node_count() != snap->node_count())
    return write_fresh(snap);
  // The catch-ups outgrew the image they patch: fold them into a fresh
  // one, so a load never replays more than about two images.
  if (journal_bytes_ > image_bytes_) {
    ++stats_.compactions;
    return write_fresh(snap);
  }
  return append_catch_up(snap);
}

std::string CheckpointWriter::write_fresh(
    const std::shared_ptr<const RouteSnapshot>& snap) {
  // tmp + rename keeps a complete file on disk at every instant: a crash
  // before the rename leaves the old file, which still loads.
  last_written_.reset();
  const std::string tmp = path_ + ".tmp";
  const SnapshotSaveResult saved = save_snapshot(*snap, tmp);
  if (!saved.ok()) return saved.error;
  if (std::rename(tmp.c_str(), path_.c_str()) != 0)
    return "rename '" + tmp + "' -> '" + path_ + "' failed";
  image_bytes_ = saved.bytes;
  journal_bytes_ = 0;
  last_written_ = snap;
  ++stats_.checkpoints;
  stats_.bytes_written += saved.bytes;
  return "";
}

std::string CheckpointWriter::append_catch_up(
    const std::shared_ptr<const RouteSnapshot>& snap) {
  // The changed destinations, by digest: equal digests mean equal rows.
  std::vector<std::uint32_t> changed;
  for (NodeId j = 0; j < snap->node_count(); ++j)
    if (snap->block_digest(j) != last_written_->block_digest(j))
      changed.push_back(j);
  std::string records;
  append_stream(records, *snap, changed);
  // A write that fails part-way leaves torn bytes at the tail, and an
  // append after them would never load: forget the diff base so the next
  // checkpoint rewrites the file whole.
  last_written_.reset();
  if (std::string error = write_bytes(path_, records, std::ios::app);
      !error.empty())
    return error;
  journal_bytes_ += records.size();
  last_written_ = snap;
  ++stats_.checkpoints;
  stats_.bytes_written += records.size();
  stats_.patches += changed.size();
  return "";
}

}  // namespace fpss::service
