#include "net/socket_io.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

namespace fpss::net {

int next_slice_ms(Clock::time_point deadline) {
  // Rounded up: a budget under 1 ms still waits, so no deadline fires early.
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now())
          .count();
  if (left <= 0) return 0;
  return static_cast<int>(left < 100 ? left : 100);
}

std::size_t RecvBuffer::take(char* out, std::size_t want) {
  const std::size_t n = std::min(want, size());
  std::memcpy(out, bytes_.data() + begin_, n);
  begin_ += n;
  return n;
}

ssize_t RecvBuffer::recv_from(int fd) {
  const ssize_t n = ::recv(fd, bytes_.data(), kBytes, MSG_DONTWAIT);
  begin_ = 0;
  end_ = n > 0 ? static_cast<std::size_t>(n) : 0;
  return n;
}

IoResult read_exact(int fd, RecvBuffer& buffered, char* out, std::size_t want,
                    int timeout_ms, bool* spin,
                    const std::atomic<bool>* stopping) {
  const bool spins = spin != nullptr && *spin;
  std::size_t got = buffered.take(out, want);
  if (got > 0 && spin != nullptr) *spin = spins_after(Clock::duration::zero());
  if (got == want) return IoResult::kOk;
  // The buffer is empty from here on: it held fewer than `want` bytes.
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::milliseconds(timeout_ms);
  const auto spin_until = spins ? start + kSpinWindow : start;
  while (got < want) {
    if (got == 0 && stopping != nullptr &&
        stopping->load(std::memory_order_relaxed))
      return IoResult::kStopped;
    const bool direct = want - got >= RecvBuffer::kBytes;
    const ssize_t n = direct ? ::recv(fd, out + got, want - got, MSG_DONTWAIT)
                             : buffered.recv_from(fd);
    if (n > 0) {
      if (got == 0 && spin != nullptr)
        *spin = spins_after(Clock::now() - start);
      got += direct ? static_cast<std::size_t>(n)
                    : buffered.take(out + got, want - got);
      continue;
    }
    if (n == 0) return got == 0 ? IoResult::kClosed : IoResult::kError;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return IoResult::kError;
    if (Clock::now() < spin_until) {
      // Nothing queued yet: retry, but let any runnable thread have this
      // processor first, so the spin never holds up other work.
      std::this_thread::yield();
      continue;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int slice = next_slice_ms(deadline);
    if (slice == 0) return IoResult::kTimeout;
    // A slice that elapses loops back to re-check the stop flag.
    if (::poll(&pfd, 1, slice) < 0 && errno != EINTR) return IoResult::kError;
  }
  return IoResult::kOk;
}

bool write_all(int fd, std::string_view bytes, int timeout_ms) {
  std::size_t sent = 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
    // The socket buffer is full: wait for room or the deadline.
    pollfd pfd{fd, POLLOUT, 0};
    const int slice = next_slice_ms(deadline);
    if (slice == 0) return false;
    if (::poll(&pfd, 1, slice) < 0 && errno != EINTR) return false;
  }
  return true;
}

bool peer_closed(int fd) {
  pollfd pfd{fd, POLLIN, 0};
  if (::poll(&pfd, 1, 0) <= 0) return false;  // nothing pending: live
  char byte;
  const ssize_t n = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  return n == 0 ||
         (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR);
}

}  // namespace fpss::net
