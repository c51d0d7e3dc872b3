#include "net/socket_io.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>

namespace fpss::net {

int next_slice_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  if (left <= 0) return 0;
  return static_cast<int>(left < 100 ? left : 100);
}

IoResult read_exact(int fd, char* buffer, std::size_t want, int timeout_ms,
                    const std::atomic<bool>* stopping) {
  std::size_t got = 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (got < want) {
    if (got == 0 && stopping != nullptr &&
        stopping->load(std::memory_order_relaxed))
      return IoResult::kStopped;
    pollfd pfd{fd, POLLIN, 0};
    const int slice = next_slice_ms(deadline);
    if (slice == 0) return IoResult::kTimeout;
    const int ready = ::poll(&pfd, 1, slice);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return IoResult::kError;
    }
    if (ready == 0) continue;  // slice elapsed; re-check flags
    const ssize_t n = ::recv(fd, buffer + got, want - got, 0);
    if (n == 0) return got == 0 ? IoResult::kClosed : IoResult::kError;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return IoResult::kError;
    }
    got += static_cast<std::size_t>(n);
  }
  return IoResult::kOk;
}

bool write_all(int fd, std::string_view bytes, int timeout_ms) {
  std::size_t sent = 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (sent < bytes.size()) {
    pollfd pfd{fd, POLLOUT, 0};
    const int slice = next_slice_ms(deadline);
    if (slice == 0) return false;
    const int ready = ::poll(&pfd, 1, slice);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (ready == 0) continue;
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
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
