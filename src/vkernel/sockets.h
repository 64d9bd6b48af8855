// Simulated loopback TCP: listeners, bidirectional byte streams, and a
// host-side client API used by workload generators and attack drivers.
//
// Three calls block: SocketHub::accept(), Connection::recv() and
// SocketHub::wait_bound(). Each waits on one of two paths:
//
//   - Condition variables (the default), for a server on a thread of its own
//     and clients on other threads. shutdown() wakes every blocked call with
//     EINTR so servers can be torn down cleanly; bind(), shutdown() and
//     end_session() wake wait_bound(). State changes under the lock, and the
//     notify follows its release, so a woken thread does not block at once
//     on the lock its notifier still holds.
//   - An installed IoWaiter, for a run whose server and client are fibers of
//     one scheduler on one thread (core::NVariantSystem::serve()). A blocking
//     call hands the waiter its wake condition and the waiter parks the
//     calling fiber until the condition holds. If the waiter releases the
//     wait instead, because nothing left in the run can make the condition
//     hold, the call fails with EINTR (wait_bound() returns false). No
//     deadline applies on this path.
#ifndef NV_VKERNEL_SOCKETS_H
#define NV_VKERNEL_SOCKETS_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/expected.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "vkernel/types.h"

namespace nv::vkernel {

template <typename T>
using NetResult = util::Expected<T, os::Errno>;

/// Parks the caller until `ready()` holds, in place of a condition-variable
/// wait, and returns true then. Returns false if it releases the wait
/// instead. `ready` is called with no socket lock held.
using IoWaiter = std::function<bool(const std::function<bool()>& ready)>;

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
  /// The creating hub's waiter slot, shared so that a stream may outlive its
  /// hub; null for a stream made without a hub.
  std::shared_ptr<const IoWaiter> waiter;
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
  /// Data, EOF or an interrupt is waiting for this side.
  [[nodiscard]] bool readable() const;

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
  /// Through an installed waiter the deadline is not consulted: the wait ends
  /// when the waiter releases it.
  [[nodiscard]] bool wait_bound(std::uint16_t port,
                                std::chrono::steady_clock::time_point deadline);
  /// wait_bound() with no deadline, for a caller that knows every way the
  /// wait can end: an installed waiter's release, or end_session().
  [[nodiscard]] bool wait_bound(std::uint16_t port);
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
  /// Re-arm after shutdown (used between test scenarios). Keeps the waiter.
  void reset();

  /// Route every blocking call on this hub and its streams through `waiter`;
  /// an empty one restores the condition variables. Install and remove it
  /// only while no other thread uses the hub.
  void set_waiter(IoWaiter waiter) { *waiter_ = std::move(waiter); }

 private:
  /// Both wait_bound() overloads; no deadline when `deadline` is empty.
  [[nodiscard]] bool wait_bound_until(
      std::uint16_t port, std::optional<std::chrono::steady_clock::time_point> deadline);
  /// wait_bound()'s wake condition.
  [[nodiscard]] bool bind_wait_over(std::uint16_t port) const NV_REQUIRES(mutex_);

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
  /// Shared with every stream the hub creates; set and cleared only while no
  /// other thread uses the hub.
  std::shared_ptr<IoWaiter> waiter_ = std::make_shared<IoWaiter>();
};

}  // namespace nv::vkernel

#endif  // NV_VKERNEL_SOCKETS_H
