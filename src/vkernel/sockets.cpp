#include "vkernel/sockets.h"

namespace nv::vkernel {

namespace {
[[nodiscard]] util::Unexpected<os::Errno> net_fail(os::Errno e) {
  return util::Unexpected<os::Errno>{e};
}

/// With a waiter installed, park on it until `ready()` holds; false if it
/// released the wait. With none, true at once: the caller's
/// condition-variable loop does the waiting.
template <typename Ready>
[[nodiscard]] bool await(const IoWaiter* waiter, const Ready& ready) {
  if (waiter == nullptr || !*waiter || ready()) return true;
  return (*waiter)(ready);
}
}  // namespace

NetResult<std::string> Connection::recv(std::size_t max_bytes) {
  if (!stream_) return net_fail(os::Errno::kEBADF);
  if (!pending_.empty()) {
    const std::size_t take = std::min(max_bytes, pending_.size());
    std::string out = pending_.substr(0, take);
    pending_.erase(0, take);
    return out;
  }
  if (!await(stream_->waiter.get(), [this] { return readable(); })) {
    return net_fail(os::Errno::kEINTR);
  }
  util::MutexLock lock(stream_->mutex);
  Stream::Side& side = is_server_ ? stream_->server : stream_->client;
  // Explicit wait loop (not a predicate lambda) so the guarded reads are
  // visibly under the lock for the thread-safety analysis.
  while (side.buffer.empty() && !side.peer_closed && !stream_->interrupted) {
    stream_->cv.wait(lock.native());
  }
  if (stream_->interrupted && side.buffer.empty()) return net_fail(os::Errno::kEINTR);
  if (side.buffer.empty()) return std::string{};  // EOF
  const std::size_t take = std::min(max_bytes, side.buffer.size());
  std::string out = side.buffer.substr(0, take);
  side.buffer.erase(0, take);
  return out;
}

bool Connection::readable() const {
  const util::MutexLock lock(stream_->mutex);
  const Stream::Side& side = is_server_ ? stream_->server : stream_->client;
  return !side.buffer.empty() || side.peer_closed || stream_->interrupted;
}

NetResult<std::size_t> Connection::send(std::string_view bytes) {
  if (!stream_) return net_fail(os::Errno::kEBADF);
  {
    const util::MutexLock lock(stream_->mutex);
    // Writing into the buffer the *peer* reads from. my_side.peer_closed is
    // set when the peer closed its end — sending to a departed peer is EPIPE.
    Stream::Side& peer_side = is_server_ ? stream_->client : stream_->server;
    Stream::Side& my_side = is_server_ ? stream_->server : stream_->client;
    if (my_side.peer_closed) return net_fail(os::Errno::kEPIPE);
    peer_side.buffer.append(bytes);
  }
  stream_->cv.notify_all();
  return bytes.size();
}

NetResult<std::string> Connection::recv_until(std::string_view delimiter, std::size_t max_bytes) {
  std::string collected = std::move(pending_);
  pending_.clear();
  while (collected.find(delimiter) == std::string::npos) {
    if (collected.size() > max_bytes) return net_fail(os::Errno::kERANGE);
    auto chunk = recv(4096);
    if (!chunk) return chunk;
    if (chunk->empty()) break;  // EOF before delimiter
    collected += *chunk;
  }
  const std::size_t pos = collected.find(delimiter);
  if (pos == std::string::npos) return collected;  // EOF case: return what we have
  const std::size_t end = pos + delimiter.size();
  pending_ = collected.substr(end);
  collected.resize(end);
  return collected;
}

void Connection::close() {
  if (!stream_) return;
  {
    const util::MutexLock lock(stream_->mutex);
    // Closing my end means the *peer* sees peer_closed on their read side,
    // and my own read side also reports peer_closed for symmetric teardown.
    Stream::Side& peer_side = is_server_ ? stream_->client : stream_->server;
    peer_side.peer_closed = true;
  }
  stream_->cv.notify_all();
  stream_.reset();
}

os::Errno SocketHub::bind(std::uint16_t port) {
  {
    const util::MutexLock lock(mutex_);
    if (shutdown_) return os::Errno::kEINTR;
    if (listeners_.contains(port)) return os::Errno::kEADDRINUSE;
    listeners_.emplace(port, Listener{});
  }
  cv_.notify_all();
  return os::Errno::kOk;
}

bool SocketHub::is_bound(std::uint16_t port) const {
  const util::MutexLock lock(mutex_);
  return listeners_.contains(port);
}

bool SocketHub::wait_bound(std::uint16_t port,
                           std::chrono::steady_clock::time_point deadline) {
  return wait_bound_until(port, deadline);
}

bool SocketHub::wait_bound(std::uint16_t port) { return wait_bound_until(port, std::nullopt); }

bool SocketHub::bind_wait_over(std::uint16_t port) const {
  return listeners_.contains(port) || shutdown_ || session_ended_;
}

bool SocketHub::wait_bound_until(std::uint16_t port,
                                 std::optional<std::chrono::steady_clock::time_point> deadline) {
  if (!await(waiter_.get(), [this, port] {
        const util::MutexLock lock(mutex_);
        return bind_wait_over(port);
      })) {
    return false;
  }
  util::MutexLock lock(mutex_);
  while (!bind_wait_over(port)) {
    if (!deadline) {
      cv_.wait(lock.native());
    } else if (cv_.wait_until(lock.native(), *deadline) == std::cv_status::timeout) {
      break;
    }
  }
  return listeners_.contains(port);
}

void SocketHub::end_session() {
  {
    const util::MutexLock lock(mutex_);
    session_ended_ = true;
  }
  cv_.notify_all();
}

void SocketHub::unbind(std::uint16_t port) {
  {
    const util::MutexLock lock(mutex_);
    listeners_.erase(port);
  }
  cv_.notify_all();
}

NetResult<Connection> SocketHub::accept(std::uint16_t port) {
  if (!await(waiter_.get(), [this, port] {
        const util::MutexLock lock(mutex_);
        const auto it = listeners_.find(port);
        return it == listeners_.end() || !it->second.pending.empty() || shutdown_;
      })) {
    return net_fail(os::Errno::kEINTR);
  }
  util::MutexLock lock(mutex_);
  const auto it = listeners_.find(port);
  if (it == listeners_.end()) return net_fail(os::Errno::kEINVAL);
  while (it->second.pending.empty() && !shutdown_) cv_.wait(lock.native());
  if (it->second.pending.empty()) return net_fail(os::Errno::kEINTR);
  StreamPtr stream = it->second.pending.front();
  it->second.pending.pop_front();
  return Connection{std::move(stream), /*is_server=*/true};
}

std::size_t SocketHub::backlog(std::uint16_t port) const {
  const util::MutexLock lock(mutex_);
  const auto it = listeners_.find(port);
  return it == listeners_.end() ? 0 : it->second.pending.size();
}

NetResult<Connection> SocketHub::connect(std::uint16_t port) {
  auto stream = std::make_shared<Stream>();
  stream->waiter = waiter_;
  {
    const util::MutexLock lock(mutex_);
    if (shutdown_) return net_fail(os::Errno::kEINTR);
    const auto it = listeners_.find(port);
    if (it == listeners_.end()) return net_fail(os::Errno::kECONNREFUSED);
    streams_.push_back(stream);
    it->second.pending.push_back(stream);
  }
  cv_.notify_all();
  return Connection{std::move(stream), /*is_server=*/false};
}

void SocketHub::shutdown() {
  {
    const util::MutexLock lock(mutex_);
    shutdown_ = true;
    for (const auto& stream : streams_) {
      {
        const util::MutexLock stream_lock(stream->mutex);
        stream->interrupted = true;
      }
      stream->cv.notify_all();
    }
  }
  cv_.notify_all();
}

bool SocketHub::is_shutdown() const {
  const util::MutexLock lock(mutex_);
  return shutdown_;
}

void SocketHub::reset() {
  const util::MutexLock lock(mutex_);
  shutdown_ = false;
  session_ended_ = false;
  listeners_.clear();
  streams_.clear();
}

}  // namespace nv::vkernel
