#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <fcntl.h>

namespace cebis::net {

namespace {

// strerror_r return-type dispatch: glibc with _GNU_SOURCE (which
// libstdc++ defines) returns char*, XSI returns int. Overloads let the
// same call site compile against either without feature-macro guesswork.
[[maybe_unused]] std::string strerror_result(const char* rc,
                                             const char* /*buf*/, int err) {
  return rc != nullptr ? std::string(rc) : "errno " + std::to_string(err);
}
[[maybe_unused]] std::string strerror_result(int rc, const char* buf,
                                             int err) {
  return rc == 0 ? std::string(buf) : "errno " + std::to_string(err);
}

/// Thread-safe strerror: the ::strerror static buffer races when two
/// socket threads (acceptor, writers, feeder) fail at once
/// (concurrency-mt-unsafe).
std::string errno_string(int err) {
  char buf[256] = {};
  return strerror_result(::strerror_r(err, buf, sizeof(buf)), buf, err);
}

[[noreturn]] void raise_errno(const std::string& what) {
  throw NetError(what + ": " + errno_string(errno));
}

/// Polls `fd` for `events` within `timeout_ms`; false on timeout.
bool wait_ready(int fd, short events, int timeout_ms, const char* what) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  for (;;) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc > 0) {
      // Readiness includes error/hangup: let the following recv/send
      // surface the precise failure.
      return true;
    }
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    raise_errno(std::string(what) + ": poll");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  // Frames are small and latency-sensitive; a failure here only costs
  // latency, so it is not an error.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// --- Socket -----------------------------------------------------------------

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown() noexcept {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RDWR);
}

std::size_t Socket::read_some(void* data, std::size_t size, int timeout_ms) {
  if (fd_ < 0) throw NetError("read on a closed socket");
  if (!wait_ready(fd_, POLLIN, timeout_ms, "read")) {
    throw TimeoutError("read timed out after " + std::to_string(timeout_ms) +
                       " ms");
  }
  for (;;) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n == 0) return 0;  // orderly peer close
    if (errno == EINTR) continue;
    raise_errno("recv");
  }
}

bool Socket::read_exact(void* data, std::size_t size, int timeout_ms) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < size) {
    const std::size_t n = read_some(p + got, size - got, timeout_ms);
    if (n == 0) {
      if (got == 0) return false;  // clean end-of-stream at the boundary
      throw NetError("peer closed mid-buffer (" + std::to_string(got) + " of " +
                     std::to_string(size) + " bytes)");
    }
    got += n;
  }
  return true;
}

void Socket::write_all(const void* data, std::size_t size, int timeout_ms) {
  if (fd_ < 0) throw NetError("write on a closed socket");
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    if (!wait_ready(fd_, POLLOUT, timeout_ms, "write")) {
      throw TimeoutError("write timed out after " + std::to_string(timeout_ms) +
                         " ms (" + std::to_string(sent) + " of " +
                         std::to_string(size) + " bytes sent)");
    }
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE.
    const ssize_t n = ::send(fd_, p + sent, size - sent, MSG_NOSIGNAL);
    if (n >= 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    raise_errno("send");
  }
}

// --- Listener ---------------------------------------------------------------

Listener::Listener(std::uint16_t port, int backlog) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) raise_errno("socket");
  const int one = 1;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string msg = "bind 127.0.0.1:" + std::to_string(port);
    ::close(fd_);
    fd_ = -1;
    raise_errno(msg);
  }
  if (::listen(fd_, backlog) != 0) {
    ::close(fd_);
    fd_ = -1;
    raise_errno("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd_);
    fd_ = -1;
    raise_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  // Non-blocking, so a connection that vanishes between poll and
  // accept sends accept() back to poll, where wake() can reach it.
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) != 0) {
    ::close(fd_);
    fd_ = -1;
    raise_errno("fcntl(O_NONBLOCK)");
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(fd_);
    fd_ = -1;
    raise_errno("eventfd");
  }
}

Listener::~Listener() {
  close();
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

void Listener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Listener::wake() noexcept {
  // The counter is never read back, so the eventfd stays readable and
  // every later accept() returns at once too.
  (void)::eventfd_write(wake_fd_, 1);
}

std::optional<Socket> Listener::accept() {
  if (fd_ < 0) throw NetError("accept on a closed listener");
  std::array<pollfd, 2> fds{};
  fds[0].fd = fd_;
  fds[0].events = POLLIN;
  fds[1].fd = wake_fd_;
  fds[1].events = POLLIN;
  for (;;) {
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      raise_errno("accept: poll");
    }
    if (fds[1].revents != 0) return std::nullopt;
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return Socket(fd);
    }
    // The pending connection can vanish between poll and accept.
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      continue;
    }
    raise_errno("accept");
  }
}

// --- connect ----------------------------------------------------------------

Socket connect_to(const std::string& host, std::uint16_t port, int timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw NetError("connect: not an IPv4 address: " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) raise_errno("socket");
  Socket sock(fd);  // owns fd from here; any throw below closes it

  // Non-blocking connect + poll gives the connect its own deadline;
  // the socket goes back to blocking for the poll-paced I/O above.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) raise_errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    raise_errno("fcntl(F_SETFL)");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      raise_errno("connect " + host + ":" + std::to_string(port));
    }
    if (!wait_ready(fd, POLLOUT, timeout_ms, "connect")) {
      throw TimeoutError("connect " + host + ":" + std::to_string(port) +
                         " timed out after " + std::to_string(timeout_ms) +
                         " ms");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      raise_errno("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      throw NetError("connect " + host + ":" + std::to_string(port) + ": " +
                     errno_string(err));
    }
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) raise_errno("fcntl(F_SETFL)");
  set_nodelay(fd);
  return sock;
}

}  // namespace cebis::net
