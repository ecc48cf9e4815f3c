// Unix-domain socket plumbing for the serve sidecar (server.hpp).
//
// Deliberately minimal: an RAII fd, a poll-based listener whose accept loop
// can be interrupted for shutdown, a connect helper, a write-everything
// helper that never raises SIGPIPE, and — the load-bearing piece — FdInBuf,
// a std::streambuf over a connected socket. FdInBuf is what lets the server
// run the ordinary StreamTraceReader over a live connection: the v3 framing,
// checksum chain, salvage machinery and semantic validation all apply to
// socket input unchanged, because to the reader a session is just another
// std::istream. A receive timeout set on the fd surfaces as timed_out()
// (EOF to the stream), which is how idle sessions get evicted without a
// dedicated reaper thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <streambuf>
#include <string>
#include <string_view>

namespace wolf::serve {

// Move-only owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

// Writes all of `bytes` to a connected socket. Returns false on any error
// (including a peer that vanished — MSG_NOSIGNAL keeps EPIPE an errno, not
// a process-killing signal). Partial writes are retried.
bool write_all(int fd, std::string_view bytes);

// Sets SO_RCVTIMEO; 0 = blocking forever. Returns false on setsockopt error.
bool set_recv_timeout_ms(int fd, std::int64_t ms);

// Half-closes the read side, forcing any reader blocked in recv() on this
// fd to see end-of-stream. The server uses it to force-drain sessions that
// outlive the stop deadline.
void shutdown_read(int fd);
void shutdown_write(int fd);

// Connects to a unix-domain socket path. Returns an invalid Fd and fills
// `error` on failure.
Fd unix_connect(const std::string& path, std::string* error);

// Listening unix-domain socket with an interruptible accept.
class UnixListener {
 public:
  UnixListener() = default;
  ~UnixListener() { close(); }
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  // Binds and listens on `path`, unlinking any stale socket file first.
  bool bind(const std::string& path, std::string* error);

  // Waits up to timeout_ms for a connection. Returns the accepted fd, or
  // kTimeout, or kClosed once close() was called / the socket died.
  static constexpr int kTimeout = -1;
  static constexpr int kClosed = -2;
  int accept_for(int timeout_ms);

  // Closes the socket (unblocking accept_for callers in other threads no
  // later than their current timeout) and unlinks the path.
  void close();

  bool listening() const { return fd_.valid(); }
  const std::string& path() const { return path_; }

 private:
  Fd fd_;
  std::string path_;
};

// std::streambuf over a connected socket fd (borrowed, not owned). A
// receive timeout (set_recv_timeout_ms) surfaces as end-of-stream with
// timed_out() set, distinguishing an idle peer from a closed one.
class FdInBuf final : public std::streambuf {
 public:
  explicit FdInBuf(int fd) : fd_(fd) {}

  bool timed_out() const { return timed_out_; }
  bool io_error() const { return io_error_; }
  // Safe to read from another thread while a reader drains this buffer
  // (the serve status tally does); the other accessors are not.
  std::uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }

 protected:
  int_type underflow() override;

 private:
  static constexpr std::size_t kBufBytes = 64 * 1024;
  int fd_;
  bool timed_out_ = false;
  bool io_error_ = false;
  std::atomic<std::uint64_t> bytes_read_{0};
  char buf_[kBufBytes];
};

}  // namespace wolf::serve
