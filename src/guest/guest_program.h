// Guest programming model.
//
// A GuestProgram is the "program P" of the paper: deterministic code written
// against the simulated kernel's syscall interface. The SAME program object
// runs once per variant (on separate fibers under the MVEE), each run
// receiving a GuestContext bound to that variant's syscall port, process, and
// construction parameters (the VariantConfig produced by the variations).
//
// Programs must keep per-run state in locals or in simulated memory — never
// in member variables — because variant runs interleave at every syscall.
#ifndef NV_GUEST_GUEST_PROGRAM_H
#define NV_GUEST_GUEST_PROGRAM_H

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/variation.h"
#include "util/expected.h"
#include "vfs/passwd.h"
#include "vkernel/process.h"
#include "vkernel/syscalls.h"
#include "vkernel/vm.h"

namespace nv::guest {

/// Thrown by GuestContext::exit to unwind the guest after the exit syscall.
struct GuestExit {
  int code = 0;
};

template <typename T>
using SysResult = util::Expected<T, os::Errno>;

/// The guest's view of the system: syscalls, simulated memory, and its
/// variant-specific build parameters.
class GuestContext {
 public:
  GuestContext(vkernel::SyscallPort& port, vkernel::Process& process,
               core::VariantConfig config)
      : port_(port), process_(process), config_(std::move(config)) {}

  // --- identity of this variant ------------------------------------------
  [[nodiscard]] unsigned variant() const noexcept { return config_.index; }
  [[nodiscard]] const core::VariantConfig& config() const noexcept { return config_; }

  /// A UID constant as the source-to-source transformation embedded it
  /// (§3.3: "identify all UID constants ... and replace these values with the
  /// result of applying R1 to them"). Guests must never write a literal UID;
  /// they write uid_const(literal).
  [[nodiscard]] os::uid_t uid_const(os::uid_t canonical) const {
    return config_.uid_coder->reexpress(canonical);
  }

  // --- raw syscall --------------------------------------------------------
  /// One syscall. Under the MVEE every call is one barrier round: it returns
  /// once every variant has issued its call and the monitor has compared and
  /// executed them.
  [[nodiscard]] vkernel::SyscallResult raw_syscall(vkernel::SyscallArgs args) {
    return port_.syscall(std::move(args));
  }

  // --- files ---------------------------------------------------------------
  [[nodiscard]] SysResult<os::fd_t> open(std::string_view path, os::OpenFlags flags,
                                         os::mode_t mode = 0644);
  [[nodiscard]] os::Errno close(os::fd_t fd);
  [[nodiscard]] SysResult<std::string> read(os::fd_t fd, std::size_t count);
  [[nodiscard]] SysResult<std::size_t> write(os::fd_t fd, std::string_view data);
  [[nodiscard]] SysResult<std::uint64_t> seek(os::fd_t fd, std::uint64_t offset);
  [[nodiscard]] SysResult<vfs::Stat> stat(std::string_view path);
  [[nodiscard]] os::Errno unlink(std::string_view path);
  [[nodiscard]] os::Errno mkdir(std::string_view path, os::mode_t mode = 0755);
  /// Read a whole file through open/read/close (hits unshared redirection).
  [[nodiscard]] SysResult<std::string> read_file(std::string_view path);

  // --- credentials (values are in this variant's representation) ----------
  [[nodiscard]] os::uid_t getuid();
  [[nodiscard]] os::uid_t geteuid();
  [[nodiscard]] os::gid_t getgid();
  [[nodiscard]] os::gid_t getegid();
  [[nodiscard]] os::Errno setuid(os::uid_t uid);
  [[nodiscard]] os::Errno seteuid(os::uid_t uid);
  [[nodiscard]] os::Errno setreuid(os::uid_t ruid, os::uid_t euid);
  [[nodiscard]] os::Errno setresuid(os::uid_t ruid, os::uid_t euid, os::uid_t suid);
  [[nodiscard]] os::Errno setgid(os::gid_t gid);
  [[nodiscard]] os::Errno setegid(os::gid_t gid);
  [[nodiscard]] os::Errno setgroups(const std::vector<os::gid_t>& groups);

  // --- network -------------------------------------------------------------
  [[nodiscard]] SysResult<os::fd_t> socket();
  [[nodiscard]] os::Errno bind(os::fd_t fd, std::uint16_t port);
  [[nodiscard]] os::Errno listen(os::fd_t fd);
  [[nodiscard]] SysResult<os::fd_t> accept(os::fd_t fd);

  // --- misc ----------------------------------------------------------------
  [[nodiscard]] os::pid_t getpid();
  [[nodiscard]] std::uint64_t gettime();
  [[noreturn]] void exit(int code);
  /// Synchronized asynchronous-event poll (extension): returns the next
  /// queued event, or nullopt. Under the MVEE all variants observe the same
  /// event at the same syscall, avoiding the §3.1 signal-divergence problem.
  [[nodiscard]] std::optional<std::string> poll_event();

  // --- detection syscalls (Table 2) ---------------------------------------
  /// Cross-variant check of a single UID value; returns the passed value.
  [[nodiscard]] os::uid_t uid_value(os::uid_t uid);
  /// Cross-variant check of a condition outcome; returns the condition.
  [[nodiscard]] bool cond_chk(bool condition);
  /// Cross-variant checked comparison evaluated on canonical values.
  [[nodiscard]] bool cc(vkernel::CcOp op, os::uid_t a, os::uid_t b);

  // --- simulated memory ----------------------------------------------------
  [[nodiscard]] vkernel::AddressSpace& memory() noexcept { return process_.memory(); }
  [[nodiscard]] std::uint64_t alloc(std::uint64_t size, std::uint64_t align = 8) {
    return process_.memory().alloc(size, align);
  }

  /// Execute tagged VM code at `entry` under this variant's expected tag.
  [[nodiscard]] vkernel::VmResult execute_code(std::uint64_t entry,
                                               std::uint64_t max_steps = 10000);

  // --- libc-style helpers built on syscalls --------------------------------
  /// Reads /etc/passwd (redirected per variant when unshared); the returned
  /// uid/gid are in this variant's representation — exactly what a transformed
  /// program would see.
  [[nodiscard]] std::optional<vfs::PasswdEntry> getpwnam(std::string_view name);
  [[nodiscard]] std::optional<vfs::GroupEntry> getgrnam(std::string_view name);

 private:
  vkernel::SyscallPort& port_;
  vkernel::Process& process_;
  core::VariantConfig config_;
};

class GuestProgram {
 public:
  virtual ~GuestProgram() = default;
  virtual void run(GuestContext& ctx) = 0;
  [[nodiscard]] virtual std::string_view name() const { return "guest"; }
};

}  // namespace nv::guest

#endif  // NV_GUEST_GUEST_PROGRAM_H
