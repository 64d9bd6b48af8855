// The syscall vocabulary of the simulated kernel.
//
// A syscall invocation is reified as SyscallArgs so the N-variant monitor can
// compare invocations across variants (§3.1: "the wrappers also act as
// monitors and check ... that all system calls receive equivalent arguments").
// The last three entries are the paper's new detection syscalls (Table 2).
#ifndef NV_VKERNEL_SYSCALLS_H
#define NV_VKERNEL_SYSCALLS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "vkernel/types.h"

namespace nv::vkernel {

enum class Sys : std::uint8_t {
  // Files
  kOpen,
  kClose,
  kRead,
  kWrite,
  kSeek,
  kStat,
  kUnlink,
  kMkdir,
  // Credentials (the UID variation's target interface, §3.5)
  kGetuid,
  kGeteuid,
  kGetgid,
  kGetegid,
  kSetuid,
  kSeteuid,
  kSetreuid,
  kSetresuid,
  kSetgid,
  kSetegid,
  kSetgroups,
  // Network
  kSocket,
  kBind,
  kListen,
  kAccept,
  // Misc
  kGetpid,
  kGettime,
  kExit,
  /// Synchronized asynchronous-event delivery (extension; the Bruschi [9]
  /// direction for the §3.1 signal limitation): events queued on the kernel
  /// are observed by ALL variants at the same syscall index because the poll
  /// is an input-class call executed once and replicated.
  kPollEvent,
  // Detection syscalls introduced by the paper (Table 2)
  kUidValue,
  kCondChk,
  kCcCmp,
};

[[nodiscard]] std::string_view sys_name(Sys sys) noexcept;

/// Comparison operator selector for kCcCmp (cc_eq .. cc_geq).
enum class CcOp : std::uint8_t { kEq, kNeq, kLt, kLeq, kGt, kGeq };

[[nodiscard]] std::string_view cc_op_name(CcOp op) noexcept;

/// Evaluate a CcOp over canonical (post-inverse-reexpression) UID values.
[[nodiscard]] bool cc_eval(CcOp op, os::uid_t a, os::uid_t b) noexcept;

/// Reified syscall invocation. `ints` carries scalars (fds, uids, flags);
/// `strs` carries paths and payloads. Equality is what the monitor compares
/// after canonicalization.
struct SyscallArgs {
  Sys no = Sys::kGetpid;
  std::vector<std::uint64_t> ints;
  std::vector<std::string> strs;

  [[nodiscard]] bool operator==(const SyscallArgs&) const = default;
  [[nodiscard]] std::string describe() const;
};

/// Result delivered back to the guest.
struct SyscallResult {
  std::uint64_t value = 0;                 // primary return value
  os::Errno err = os::Errno::kOk;          // kOk means success
  std::string data;                        // read()/accept() payloads
  std::vector<std::uint64_t> out_ints;     // stat() fields etc.

  [[nodiscard]] bool ok() const noexcept { return err == os::Errno::kOk; }
  [[nodiscard]] bool operator==(const SyscallResult&) const = default;
};

/// Behaviour class used by the MVEE to decide execution strategy (§3.1).
enum class SysClass : std::uint8_t {
  kPerVariant,  // state change applied to each variant's process (creds, close)
  kInput,       // performed once, result replicated (read shared fd, accept, time)
  kOutput,      // args checked equal, performed once (write shared fd)
  kOpen,        // special: shared/unshared file resolution
  kDetection,   // paper's Table 2 calls: cross-variant checks only
  kExit,
};

[[nodiscard]] SysClass sys_class(Sys sys) noexcept;

/// True for syscalls whose result carries a UID/GID that the UID variation
/// must reexpress per variant (getuid family).
[[nodiscard]] bool returns_uid(Sys sys) noexcept;

/// Indices into SyscallArgs::ints that hold UID/GID values for this syscall
/// (the arguments the UID variation inverse-transforms at the boundary).
[[nodiscard]] std::vector<std::size_t> uid_arg_indices(const SyscallArgs& args);

/// Guest-facing syscall port. Each variant's GuestContext holds one; the
/// plain kernel and the N-variant MVEE both implement it. One call is one
/// syscall: under the MVEE it returns only after every variant has issued
/// the same call and the monitor has compared and executed it.
class SyscallPort {
 public:
  virtual ~SyscallPort() = default;
  virtual SyscallResult syscall(const SyscallArgs& args) = 0;
};

}  // namespace nv::vkernel

#endif  // NV_VKERNEL_SYSCALLS_H
