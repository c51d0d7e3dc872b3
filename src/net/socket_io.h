// Blocking socket I/O with deadlines, shared by net::RouteServer and
// net::RouteClient.
//
// Read policy. read_exact first tries a non-blocking recv. When no byte
// is queued and the connection's previous read got its first byte within
// kSpinWindow, it keeps retrying the non-blocking recv until the window
// passes, yielding the processor between tries so that a spinning reader
// never holds up a runnable thread (a write path's reconvergence or
// forwarding); only then does it wait in poll, in slices of at most
// 100 ms, so a stop flag (the server's) is noticed within one slice. The
// wait history is one bool per connection, owned by the caller: a fresh
// connection starts at false (the hello pays no spin), a closed-loop
// query connection, whose replies come back within the window, spins on
// every read, and one whose waits run to milliseconds (a parked fetch, a
// forwarded write's ack, a writer between writes) stops spinning after
// its first slow reply. A round trip that spins skips the two thread
// wake-ups a blocked reader pays on each side; DESIGN.md §9 gives the
// measured trade. write_all sends without blocking and polls only when
// the socket buffer is full.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <string_view>

namespace fpss::net {

using Clock = std::chrono::steady_clock;

/// How long a read on a connection that answers fast keeps retrying a
/// non-blocking recv before it blocks: about twice a spinning loopback
/// round trip of a query batch.
inline constexpr std::chrono::microseconds kSpinWindow{50};

/// The read policy's one decision: a connection whose last read got its
/// first byte `first_byte_wait` after the read began spins on its next.
inline bool spins_after(Clock::duration first_byte_wait) {
  return first_byte_wait <= kSpinWindow;
}

enum class IoResult {
  kOk,
  kClosed,   ///< orderly EOF before the first byte
  kTimeout,  ///< deadline expired
  kStopped,  ///< the stop flag was set while no byte had arrived
  kError,    ///< socket error, or EOF after the first byte
};

/// Remaining budget in ms, rounded up and clipped to the 100 ms slice; 0
/// once expired. A wait of this many ms never ends before the deadline.
int next_slice_ms(Clock::time_point deadline);

/// Reads exactly `want` bytes. `spin`, when given, is the connection's
/// wait history: on entry it says whether this read spins before it
/// blocks, and once a first byte arrives it is set to spins_after(the
/// wait for it). Without it the read never spins. While still at byte
/// zero a set `stopping` flag aborts the wait (a server worker idle
/// between frames); once a frame has started arriving only the deadline
/// can abort it — that is what lets a graceful shutdown finish in-flight
/// frames.
IoResult read_exact(int fd, char* buffer, std::size_t want, int timeout_ms,
                    bool* spin = nullptr,
                    const std::atomic<bool>* stopping = nullptr);

/// Writes the whole buffer or gives up at the deadline (a peer that never
/// reads must not pin a thread).
bool write_all(int fd, std::string_view bytes, int timeout_ms);

/// True when the peer has closed `fd`: it is readable and a peek reads
/// EOF, or it is in error. Does not block, and consumes nothing.
bool peer_closed(int fd);

}  // namespace fpss::net
