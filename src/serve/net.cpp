#include "serve/net.hpp"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace wolf::serve {

namespace {

bool fill_sockaddr(const std::string& path, sockaddr_un& addr,
                   std::string* error) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr)
      *error = "socket path too long (" + std::to_string(path.size()) +
               " bytes; the sockaddr_un limit is " +
               std::to_string(sizeof(addr.sun_path) - 1) + ")";
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

bool write_all(int fd, std::string_view bytes) {
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

bool set_recv_timeout_ms(int fd, std::int64_t ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  return ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0;
}

void shutdown_read(int fd) { ::shutdown(fd, SHUT_RD); }
void shutdown_write(int fd) { ::shutdown(fd, SHUT_WR); }

Fd unix_connect(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!fill_sockaddr(path, addr, error)) return Fd();
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    if (error != nullptr) *error = std::strerror(errno);
    return Fd();
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (error != nullptr)
      *error = path + ": " + std::strerror(errno);
    return Fd();
  }
  return fd;
}

bool UnixListener::bind(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!fill_sockaddr(path, addr, error)) return false;
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(fd.get(), SOMAXCONN) != 0) {
    if (error != nullptr)
      *error = path + ": " + std::strerror(errno);
    return false;
  }
  fd_ = std::move(fd);
  path_ = path;
  return true;
}

int UnixListener::accept_for(int timeout_ms) {
  if (!fd_.valid()) return kClosed;
  pollfd pfd{};
  pfd.fd = fd_.get();
  pfd.events = POLLIN;
  const int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc == 0) return kTimeout;
  if (rc < 0) return errno == EINTR ? kTimeout : kClosed;
  if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) return kClosed;
  const int client = ::accept(fd_.get(), nullptr, nullptr);
  if (client < 0) return errno == EINTR ? kTimeout : kClosed;
  return client;
}

void UnixListener::close() {
  if (!fd_.valid()) return;
  fd_.reset();
  if (!path_.empty()) ::unlink(path_.c_str());
}

FdInBuf::int_type FdInBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  for (;;) {
    const ssize_t n = ::recv(fd_, buf_, sizeof(buf_), 0);
    if (n > 0) {
      bytes_read_.fetch_add(static_cast<std::uint64_t>(n),
                            std::memory_order_relaxed);
      setg(buf_, buf_, buf_ + n);
      return traits_type::to_int_type(*gptr());
    }
    if (n == 0) return traits_type::eof();  // orderly peer close
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // SO_RCVTIMEO expired: the peer went idle past the eviction budget.
      timed_out_ = true;
      return traits_type::eof();
    }
    io_error_ = true;
    return traits_type::eof();
  }
}

}  // namespace wolf::serve
