// Declarative per-syscall metadata: the single source of truth for how the
// MVEE treats every Sys enumerator.
//
// Each descriptor records the syscall's behaviour class (§3.1), the execution
// policy the leader applies after the monitor's equivalence check, and the
// semantic role of every argument slot. Canonicalization (R⁻¹_i), result
// reexpression (R_i), shared-fd routing, unshared-path redirection, and the
// monitor's alarm classification are all driven from this table — a new
// variation registers transformers for the roles it diversifies instead of
// pattern-matching raw SyscallArgs, and a new syscall is one table row.
//
// The table says how the leader treats a call once every variant has issued
// it, never whether a call waits for its peers: under the MVEE each call is
// one barrier round (§3.1), compared before anything executes.
#ifndef NV_VKERNEL_SYSCALL_DESCRIPTORS_H
#define NV_VKERNEL_SYSCALL_DESCRIPTORS_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "vkernel/syscalls.h"

namespace nv::vkernel {

/// Number of Sys enumerators (kCcCmp is last; keep in sync with the enum).
inline constexpr std::size_t kSysCount = static_cast<std::size_t>(Sys::kCcCmp) + 1;

/// Semantic role of one argument slot (or of the primary result value).
/// Variations diversify ROLES, not call sites: the UID variation registers a
/// transform for kUid; an fd-diversifying variation would register kFd.
enum class ArgRole : std::uint8_t {
  kNone,      // no cross-variant meaning (opaque scalar)
  kFd,        // file-descriptor slot (drives shared/unshared routing)
  kUid,       // UID/GID value (the §3.5 variation's target)
  kPath,      // filesystem path (drives unshared-file redirection)
  kPayload,   // output payload bytes
  kFlags,     // open flags
  kMode,      // permission bits
  kOffset,    // file offset / byte count
  kPort,      // network port
  kCcOp,      // CcOp selector for cc_cmp
  kCond,      // boolean condition value (cond_chk)
  kExitCode,  // process exit status
};

/// How the leader executes the call after canonical arguments compared equal.
enum class ExecPolicy : std::uint8_t {
  kPerVariant,    // run in every variant's process with canonical args
  kOnce,          // run once on variant 0, replicate the result (input class,
                  // shared-namespace mutations, socket setup)
  kOnceMirrorFd,  // kOnce + install the resulting fd in every variant's table
  kFdRouted,      // fd argument shared -> kOnce; unshared -> kPerVariant
  kPathRouted,    // path argument unshared -> per-variant redirect; else kOnce
  kOpen,          // open's shared/unshared file resolution (§3.4)
  kDetection,     // Table 2 cross-variant checks; no kernel execution
  kExit,          // per-variant exit bookkeeping
};

/// Which alarm the monitor raises when canonical arguments diverge.
enum class MismatchKind : std::uint8_t {
  kArgument,   // generic argument divergence
  kUidCheck,   // uid_value / cc_* disagreement (§3.5)
  kCondition,  // cond_chk disagreement
};

inline constexpr std::size_t kFixedIntRoles = 4;

struct SyscallDescriptor {
  Sys no = Sys::kGetpid;
  std::string_view name;
  SysClass cls = SysClass::kPerVariant;
  ExecPolicy exec = ExecPolicy::kPerVariant;
  /// Roles of ints[0..3]; ints[4...] take rest_int_role (setgroups passes a
  /// variable-length GID list, so every slot is kUid there).
  std::array<ArgRole, kFixedIntRoles> int_roles{ArgRole::kNone, ArgRole::kNone, ArgRole::kNone,
                                                ArgRole::kNone};
  ArgRole rest_int_role = ArgRole::kNone;
  ArgRole str0_role = ArgRole::kNone;
  /// Role carried by SyscallResult::value on success (kUid => the variation
  /// reexpresses it per variant in the R_i step).
  ArgRole result_role = ArgRole::kNone;
  MismatchKind mismatch = MismatchKind::kArgument;
  /// kFdRouted only: how to execute when the call carries no fd slot at all
  /// (malformed guest call). kOnce replicates a single EBADF; kPerVariant
  /// lets every variant's kernel report its own.
  ExecPolicy missing_fd_exec = ExecPolicy::kOnce;

  [[nodiscard]] constexpr ArgRole int_role(std::size_t index) const noexcept {
    return index < kFixedIntRoles ? int_roles[index] : rest_int_role;
  }
};

/// Descriptor lookup; total over the enum (static_asserted in the .cpp).
[[nodiscard]] const SyscallDescriptor& descriptor(Sys sys) noexcept;

/// The whole table in enum order, for exhaustiveness checks and tooling.
[[nodiscard]] const std::array<SyscallDescriptor, kSysCount>& descriptor_table() noexcept;

[[nodiscard]] std::string_view arg_role_name(ArgRole role) noexcept;

}  // namespace nv::vkernel

#endif  // NV_VKERNEL_SYSCALL_DESCRIPTORS_H
