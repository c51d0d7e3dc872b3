// Blocking socket I/O with deadlines, shared by net::RouteServer and
// net::RouteClient.
//
// Receive buffer. Each connection owns a fixed RecvBuffer of kBytes
// (16 KiB) beside its wait history, and read_exact fills it with one
// non-blocking recv: a frame's header, its payload and any frames
// pipelined behind it arrive in one syscall, and later reads take their
// bytes from the buffer first. A read of at least kBytes goes straight
// into its destination. The buffer never grows, so what a peer can make a
// connection hold does not depend on any length it claims, and a header
// is still validated before its payload is allocated.
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

#include <sys/types.h>

#include <array>
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

/// Bytes a connection received but has not read yet (see file comment).
/// clear() when the connection closes: the bytes belong to it.
class RecvBuffer {
 public:
  static constexpr std::size_t kBytes = 16 * 1024;

  /// Bytes held.
  std::size_t size() const { return end_ - begin_; }
  void clear() { begin_ = end_ = 0; }

  /// Moves up to `want` held bytes to `out`; returns how many.
  std::size_t take(char* out, std::size_t want);
  /// One non-blocking recv of up to kBytes into the buffer, which must be
  /// empty; returns what recv returned.
  ssize_t recv_from(int fd);

 private:
  std::array<char, kBytes> bytes_{};
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

/// Remaining budget in ms, rounded up and clipped to the 100 ms slice; 0
/// once expired. A wait of this many ms never ends before the deadline.
int next_slice_ms(Clock::time_point deadline);

/// Reads exactly `want` bytes of the connection `fd` into `out`:
/// `buffered`, the connection's receive buffer, first, then from the
/// socket. `spin`, when given, is the connection's wait history: on entry
/// it says whether this read spins before it blocks, and once a first
/// byte arrives it is set to spins_after(the wait for it) — no wait for a
/// byte already buffered. Without it the read never spins. While still at
/// byte zero a set `stopping` flag aborts the wait (a server worker idle
/// between frames); once a frame has started arriving, buffered bytes
/// included, only the deadline can abort it — that is what lets a
/// graceful shutdown finish in-flight frames.
IoResult read_exact(int fd, RecvBuffer& buffered, char* out, std::size_t want,
                    int timeout_ms, bool* spin = nullptr,
                    const std::atomic<bool>* stopping = nullptr);

/// Writes the whole buffer or gives up at the deadline (a peer that never
/// reads must not pin a thread).
bool write_all(int fd, std::string_view bytes, int timeout_ms);

/// True when the peer has closed `fd`: it is readable and a peek reads
/// EOF, or it is in error. Does not block, and consumes nothing.
bool peer_closed(int fd);

}  // namespace fpss::net
