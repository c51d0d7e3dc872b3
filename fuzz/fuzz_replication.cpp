// Fuzz target: the one block-stream parser, ReplicationCodec::Assembler,
// from both places its input comes from. A malicious or torn upstream can
// send any chunk sequence, and a hostile or torn file can hold any bytes;
// the contract is to reject (poison the assembly, fail the load) rather
// than publish a torn snapshot — or crash.
//
// The first input byte selects the mode, as fuzz_wire's selector does:
//   even  wire: the rest is split into chunks by 2-byte little-endian
//         length prefixes and fed to a cold Assembler, so the mutator can
//         vary both chunk contents and chunk boundaries — boundary
//         confusion (a record torn across chunks) is a distinct bug class
//         from byte corruption;
//   odd   disk: the rest is an fpss-snap file image for
//         load_snapshot_bytes, which feeds its records through a
//         bootstrap Assembler and one catch-up Assembler per later stream.
#include <algorithm>
#include <string_view>

#include "fuzz_common.h"
#include "service/checkpoint.h"
#include "service/replication.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const bool disk = (data[0] % 2) == 1;
  ++data;
  --size;
  if (disk) {
    fpss::service::load_snapshot_bytes(
        std::string_view(reinterpret_cast<const char*>(data), size));
    return 0;
  }
  fpss::service::ReplicationCodec::Assembler assembler;  // cold bootstrap
  std::size_t pos = 0;
  while (pos + 2 <= size) {
    const std::size_t want = static_cast<std::size_t>(data[pos]) |
                             (static_cast<std::size_t>(data[pos + 1]) << 8);
    const std::size_t len = std::min(want, size - pos - 2);
    const std::string_view chunk(
        reinterpret_cast<const char*>(data + pos + 2), len);
    if (!assembler.feed(chunk)) break;  // poisoned; mirrors the sync loop
    pos += 2 + len;
  }
  assembler.finish();
  return 0;
}
