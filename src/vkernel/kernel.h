// Syscall execution engine.
//
// execute_syscall() is the single implementation of syscall semantics. The
// plain (single-process) kernel calls it directly; the N-variant MVEE calls
// it per-variant or once-with-replication according to SysClass, which keeps
// the two execution modes behaviourally identical on normal inputs — the
// normal-equivalence property the paper's argument rests on.
#ifndef NV_VKERNEL_KERNEL_H
#define NV_VKERNEL_KERNEL_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "vfs/filesystem.h"
#include "vkernel/process.h"
#include "vkernel/sockets.h"
#include "vkernel/syscalls.h"

namespace nv::vkernel {

/// Shared kernel-wide state: one filesystem, one network, one logical clock.
class KernelContext {
 public:
  KernelContext(vfs::FileSystem& fs, SocketHub& hub) : fs_(fs), hub_(hub) {}

  [[nodiscard]] vfs::FileSystem& fs() noexcept { return fs_; }
  [[nodiscard]] SocketHub& hub() noexcept { return hub_; }

  /// Logical clock: advances 1us per reading, so time is deterministic.
  [[nodiscard]] std::uint64_t read_clock() noexcept {
    return clock_.fetch_add(1000, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t syscalls_executed() const noexcept {
    return syscall_count_.load(std::memory_order_relaxed);
  }
  /// One thread drives a KernelContext (the session's leader, or the plain
  /// kernel's guest thread), so the count has one writer and needs no locked
  /// read-modify-write; other threads may read it.
  void count_syscall() noexcept {
    syscall_count_.store(syscall_count_.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  }

  /// Queue an asynchronous event (simulated signal). Guests observe it via
  /// the poll_event syscall, which the MVEE executes once and replicates —
  /// every variant sees the event at the same execution point.
  void push_event(std::string event) {
    const util::MutexLock lock(events_mutex_);
    events_.push_back(std::move(event));
  }
  [[nodiscard]] std::optional<std::string> pop_event() {
    const util::MutexLock lock(events_mutex_);
    if (events_.empty()) return std::nullopt;
    std::string event = std::move(events_.front());
    events_.pop_front();
    return event;
  }

 private:
  vfs::FileSystem& fs_;
  SocketHub& hub_;
  std::atomic<std::uint64_t> clock_{0};
  std::atomic<std::uint64_t> syscall_count_{0};
  util::Mutex events_mutex_;
  std::deque<std::string> events_ NV_GUARDED_BY(events_mutex_);
};

/// Execute one syscall against one process. Blocking calls (accept, read on
/// a socket) block the calling thread via the SocketHub.
[[nodiscard]] SyscallResult execute_syscall(KernelContext& ctx, Process& proc,
                                            const SyscallArgs& args);

/// Open `path` for `proc` and install the fd at `slot` (or the lowest free
/// slot when slot < 0). Exposed separately so the MVEE can implement the
/// unshared-files redirection while keeping variant fd tables synchronized.
[[nodiscard]] SyscallResult do_open(KernelContext& ctx, Process& proc, std::string_view path,
                                    os::OpenFlags flags, os::mode_t mode, os::fd_t slot = -1);

/// Single-process kernel: the configuration-1/2 baseline (no redundancy, no
/// monitor). Implements the guest-facing SyscallPort.
class PlainKernel : public SyscallPort {
 public:
  PlainKernel(KernelContext& ctx, std::string process_name,
              os::Credentials creds = os::Credentials::root());

  SyscallResult syscall(const SyscallArgs& args) override;

  [[nodiscard]] Process& process() noexcept { return *proc_; }
  [[nodiscard]] KernelContext& context() noexcept { return ctx_; }

 private:
  KernelContext& ctx_;
  std::unique_ptr<Process> proc_;
};

}  // namespace nv::vkernel

#endif  // NV_VKERNEL_KERNEL_H
