// Fuzz target: every fpss-wire decoder that faces untrusted socket
// bytes. The first input byte selects the decoder; the rest is the
// payload. The contract under test is the server/client robustness
// promise: any byte string is either decoded or rejected with a typed
// error — never a crash, never an allocation driven by an unvalidated
// length (ASan enforces the memory half when the harness is built with
// sanitizers).
#include <string_view>

#include "fuzz_common.h"
#include "net/wire.h"

using namespace fpss::net;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::uint8_t selector = data[0] % 13;
  const std::string_view payload(reinterpret_cast<const char*>(data + 1),
                                 size - 1);
  const WireLimits limits;  // the defaults every server/client starts from
  switch (selector) {
    case 0: {
      // The full frame gate: header decode (exactly 20 bytes) and, when it
      // passes, the checksum check against the remaining bytes — the same
      // two steps serve_frame takes before dispatch.
      if (payload.size() < kFrameHeaderBytes) break;
      const HeaderResult head =
          decode_frame_header(payload.substr(0, kFrameHeaderBytes), limits);
      if (head.ok())
        payload_checksum_ok(head.header, payload.substr(kFrameHeaderBytes));
      break;
    }
    case 1: {
      Hello out;
      decode_hello(payload, out);
      break;
    }
    case 2: {
      HelloAck out;
      decode_hello_ack(payload, out);
      break;
    }
    case 3: {
      ErrorFrame out;
      decode_error(payload, out);
      break;
    }
    case 4: {
      std::uint64_t out = 0;
      decode_u64(payload, out);
      break;
    }
    case 5: {
      DeltaAck out;
      decode_delta_ack(payload, out);
      break;
    }
    case 6:
      decode_requests(payload, limits.max_batch);
      break;
    case 7:
      decode_replies(payload, limits);
      break;
    case 8:
      decode_deltas(payload, limits.max_batch);
      break;
    case 9: {
      // A kSnapshotFetch payload: the same Await a kAwaitPublish carries.
      Await out;
      decode_await(payload, out);
      break;
    }
    case 10: {
      PublishNotify out;
      decode_publish_notify(payload, out);
      break;
    }
    case 11: {
      CountersFrame out;
      decode_counters(payload, out);
      break;
    }
    case 12: {
      Await out;
      decode_await(payload, out);
      break;
    }
    default:
      break;
  }
  return 0;
}
