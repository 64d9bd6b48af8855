// Simulated loopback TCP: listeners, bidirectional byte streams, and a
// host-side client API used by workload generators and attack drivers.
//
// Blocking semantics use condition variables; SocketHub::shutdown() wakes
// every blocked operation with EINTR so servers can be torn down cleanly.
// Host code that starts a server waits for its bind with wait_bound(), which
// bind(), shutdown() and end_session() all wake.
#ifndef NV_VKERNEL_SOCKETS_H
#define NV_VKERNEL_SOCKETS_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "util/expected.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "vkernel/types.h"

namespace nv::vkernel {

template <typename T>
using NetResult = util::Expected<T, os::Errno>;

/// One established connection: two byte streams guarded by a mutex. The
/// server holds side A; the client holds side B.
class Stream {
 public:
  struct Side {
    std::string buffer;   // bytes waiting to be read by this side
    bool peer_closed = false;
  };

  util::Mutex mutex;
  std::condition_variable cv;
  Side server NV_GUARDED_BY(mutex);  // data flowing client -> server
  Side client NV_GUARDED_BY(mutex);  // data flowing server -> client
  bool interrupted NV_GUARDED_BY(mutex) = false;
};

using StreamPtr = std::shared_ptr<Stream>;

/// Handle to one end of a Stream.
class Connection {
 public:
  Connection() = default;
  Connection(StreamPtr stream, bool is_server) : stream_(std::move(stream)), is_server_(is_server) {}

  [[nodiscard]] bool valid() const noexcept { return stream_ != nullptr; }

  /// Blocking receive: waits for data, EOF (returns ""), or interrupt.
  [[nodiscard]] NetResult<std::string> recv(std::size_t max_bytes);
  /// Non-blocking send; fails with EPIPE if the peer closed.
  [[nodiscard]] NetResult<std::size_t> send(std::string_view bytes);
  /// Receive exactly until `delimiter` or EOF; used by HTTP parsing.
  [[nodiscard]] NetResult<std::string> recv_until(std::string_view delimiter,
                                                  std::size_t max_bytes = 1 << 20);
  void close();

 private:
  StreamPtr stream_;
  bool is_server_ = false;
  std::string pending_;  // bytes read past a delimiter by recv_until
};

/// The loopback network: port -> listener with a pending-connection queue.
class SocketHub {
 public:
  [[nodiscard]] os::Errno bind(std::uint16_t port);
  [[nodiscard]] bool is_bound(std::uint16_t port) const;
  void unbind(std::uint16_t port);
  /// Block until `port` is bound, the hub shuts down, the session serving it
  /// ends (end_session()), or `deadline` passes. Returns is_bound(port).
  [[nodiscard]] bool wait_bound(std::uint16_t port,
                                std::chrono::steady_clock::time_point deadline);
  /// The guest session serving this hub has ended, so a port it has not
  /// bound will never be bound: wake wait_bound() callers. reset() re-arms.
  void end_session();

  /// Server side: block until a client connects to `port` (or interrupt).
  [[nodiscard]] NetResult<Connection> accept(std::uint16_t port);
  [[nodiscard]] std::size_t backlog(std::uint16_t port) const;

  /// Client side (host threads): create a connection to a bound port.
  [[nodiscard]] NetResult<Connection> connect(std::uint16_t port);

  /// Wake all blocked accept/recv calls with EINTR and refuse new work.
  void shutdown();
  [[nodiscard]] bool is_shutdown() const;
  /// Re-arm after shutdown (used between test scenarios).
  void reset();

 private:
  struct Listener {
    std::deque<StreamPtr> pending;
  };

  mutable util::Mutex mutex_;
  std::condition_variable cv_;
  std::map<std::uint16_t, Listener> listeners_ NV_GUARDED_BY(mutex_);
  bool shutdown_ NV_GUARDED_BY(mutex_) = false;
  bool session_ended_ NV_GUARDED_BY(mutex_) = false;
  // Every stream ever created (for interrupt).
  std::vector<StreamPtr> streams_ NV_GUARDED_BY(mutex_);
};

}  // namespace nv::vkernel

#endif  // NV_VKERNEL_SOCKETS_H
