// Blocking socket I/O with deadlines, shared by net::RouteServer and
// net::RouteClient. Every wait polls in slices of at most 100 ms, so a
// stop flag (the server's) is noticed within one slice.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <string_view>

namespace fpss::net {

using Clock = std::chrono::steady_clock;

enum class IoResult {
  kOk,
  kClosed,   ///< orderly EOF before the first byte
  kTimeout,  ///< deadline expired
  kStopped,  ///< the stop flag was set while no byte had arrived
  kError,    ///< socket error, or EOF after the first byte
};

/// Remaining budget in ms, clipped to the 100 ms slice; 0 once expired.
int next_slice_ms(Clock::time_point deadline);

/// Reads exactly `want` bytes. While still at byte zero a set `stopping`
/// flag aborts the wait (a server worker idle between frames); once a
/// frame has started arriving only the deadline can abort it — that is
/// what lets a graceful shutdown finish in-flight frames.
IoResult read_exact(int fd, char* buffer, std::size_t want, int timeout_ms,
                    const std::atomic<bool>* stopping = nullptr);

/// Writes the whole buffer or gives up at the deadline (a peer that never
/// reads must not pin a thread).
bool write_all(int fd, std::string_view bytes, int timeout_ms);

/// True when the peer has closed `fd`: it is readable and a peek reads
/// EOF, or it is in error. Does not block, and consumes nothing.
bool peer_closed(int fd);

}  // namespace fpss::net
