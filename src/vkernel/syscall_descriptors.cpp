#include "vkernel/syscall_descriptors.h"

namespace nv::vkernel {

namespace {

using R = ArgRole;

struct Roles {
  std::array<ArgRole, kFixedIntRoles> fixed{R::kNone, R::kNone, R::kNone, R::kNone};
  ArgRole rest = R::kNone;
};

constexpr Roles ints() { return {}; }
constexpr Roles ints(R a) { return {{a, R::kNone, R::kNone, R::kNone}, R::kNone}; }
constexpr Roles ints(R a, R b) { return {{a, b, R::kNone, R::kNone}, R::kNone}; }
constexpr Roles ints(R a, R b, R c) { return {{a, b, c, R::kNone}, R::kNone}; }
constexpr Roles all_ints(R role) { return {{role, role, role, role}, role}; }

constexpr SyscallDescriptor row(Sys no, std::string_view name, SysClass cls, ExecPolicy exec,
                                Roles roles = {}, ArgRole str0 = R::kNone,
                                ArgRole result = R::kNone,
                                MismatchKind mismatch = MismatchKind::kArgument,
                                ExecPolicy missing_fd_exec = ExecPolicy::kOnce) {
  SyscallDescriptor d;
  d.no = no;
  d.name = name;
  d.cls = cls;
  d.exec = exec;
  d.int_roles = roles.fixed;
  d.rest_int_role = roles.rest;
  d.str0_role = str0;
  d.result_role = result;
  d.mismatch = mismatch;
  d.missing_fd_exec = missing_fd_exec;
  return d;
}

constexpr SyscallDescriptor with_out_ints(SyscallDescriptor d,
                                          std::array<ArgRole, SyscallInts::kCapacity> roles) {
  d.out_int_roles = roles;
  return d;
}

// clang-format off
constexpr std::array<SyscallDescriptor, kSysCount> kTable = {{
    // Files
    row(Sys::kOpen,      "open",      SysClass::kOpen,       ExecPolicy::kOpen,
        ints(R::kFlags, R::kMode), R::kPath, R::kFd),
    row(Sys::kClose,     "close",     SysClass::kPerVariant, ExecPolicy::kPerVariant,
        ints(R::kFd), R::kNone, R::kNone),
    row(Sys::kRead,      "read",      SysClass::kInput,      ExecPolicy::kFdRouted,
        ints(R::kFd, R::kOffset), R::kNone, R::kNone),
    row(Sys::kWrite,     "write",     SysClass::kOutput,     ExecPolicy::kFdRouted,
        ints(R::kFd), R::kPayload, R::kNone),
    row(Sys::kSeek,      "seek",      SysClass::kPerVariant, ExecPolicy::kFdRouted,
        ints(R::kFd, R::kOffset), R::kNone, R::kNone, MismatchKind::kArgument,
        ExecPolicy::kPerVariant),
    // out_ints: ino, is_dir, mode, owner uid, owner gid, size. stat is the
    // only row whose result slots carry a uid.
    with_out_ints(
        row(Sys::kStat,  "stat",      SysClass::kInput,      ExecPolicy::kPathRouted,
            ints(), R::kPath, R::kNone),
        {R::kNone, R::kNone, R::kMode, R::kUid, R::kUid, R::kOffset}),
    row(Sys::kUnlink,    "unlink",    SysClass::kPerVariant, ExecPolicy::kOnce,
        ints(), R::kPath, R::kNone),
    row(Sys::kMkdir,     "mkdir",     SysClass::kPerVariant, ExecPolicy::kOnce,
        ints(R::kMode), R::kPath, R::kNone),
    // Credentials (the UID variation's target interface, §3.5)
    row(Sys::kGetuid,    "getuid",    SysClass::kPerVariant, ExecPolicy::kPerVariant,
        ints(), R::kNone, R::kUid),
    row(Sys::kGeteuid,   "geteuid",   SysClass::kPerVariant, ExecPolicy::kPerVariant,
        ints(), R::kNone, R::kUid),
    row(Sys::kGetgid,    "getgid",    SysClass::kPerVariant, ExecPolicy::kPerVariant,
        ints(), R::kNone, R::kUid),
    row(Sys::kGetegid,   "getegid",   SysClass::kPerVariant, ExecPolicy::kPerVariant,
        ints(), R::kNone, R::kUid),
    row(Sys::kSetuid,    "setuid",    SysClass::kPerVariant, ExecPolicy::kPerVariant,
        ints(R::kUid), R::kNone, R::kNone),
    row(Sys::kSeteuid,   "seteuid",   SysClass::kPerVariant, ExecPolicy::kPerVariant,
        ints(R::kUid), R::kNone, R::kNone),
    row(Sys::kSetreuid,  "setreuid",  SysClass::kPerVariant, ExecPolicy::kPerVariant,
        ints(R::kUid, R::kUid), R::kNone, R::kNone),
    row(Sys::kSetresuid, "setresuid", SysClass::kPerVariant, ExecPolicy::kPerVariant,
        ints(R::kUid, R::kUid, R::kUid), R::kNone, R::kNone),
    row(Sys::kSetgid,    "setgid",    SysClass::kPerVariant, ExecPolicy::kPerVariant,
        ints(R::kUid), R::kNone, R::kNone),
    row(Sys::kSetegid,   "setegid",   SysClass::kPerVariant, ExecPolicy::kPerVariant,
        ints(R::kUid), R::kNone, R::kNone),
    row(Sys::kSetgroups, "setgroups", SysClass::kPerVariant, ExecPolicy::kPerVariant,
        all_ints(R::kUid), R::kNone, R::kNone),
    // Network: socket objects must stay identical across variants, so setup
    // executes once; accept's new connection fd is mirrored into every table.
    row(Sys::kSocket,    "socket",    SysClass::kPerVariant, ExecPolicy::kOnceMirrorFd,
        ints(), R::kNone, R::kFd),
    row(Sys::kBind,      "bind",      SysClass::kPerVariant, ExecPolicy::kOnce,
        ints(R::kFd, R::kPort), R::kNone, R::kNone),
    row(Sys::kListen,    "listen",    SysClass::kPerVariant, ExecPolicy::kOnce,
        ints(R::kFd), R::kNone, R::kNone),
    row(Sys::kAccept,    "accept",    SysClass::kInput,      ExecPolicy::kOnceMirrorFd,
        ints(R::kFd), R::kNone, R::kFd),
    // Misc
    row(Sys::kGetpid,    "getpid",    SysClass::kInput,      ExecPolicy::kOnce,
        ints(), R::kNone, R::kNone),
    row(Sys::kGettime,   "gettime",   SysClass::kInput,      ExecPolicy::kOnce,
        ints(), R::kNone, R::kNone),
    row(Sys::kExit,      "exit",      SysClass::kExit,       ExecPolicy::kExit,
        ints(R::kExitCode), R::kNone, R::kNone),
    row(Sys::kPollEvent, "poll_event", SysClass::kInput,     ExecPolicy::kOnce,
        ints(), R::kNone, R::kNone),
    // Detection syscalls introduced by the paper (Table 2)
    row(Sys::kUidValue,  "uid_value", SysClass::kDetection,  ExecPolicy::kDetection,
        ints(R::kUid), R::kNone, R::kUid, MismatchKind::kUidCheck),
    row(Sys::kCondChk,   "cond_chk",  SysClass::kDetection,  ExecPolicy::kDetection,
        ints(R::kCond), R::kNone, R::kCond, MismatchKind::kCondition),
    row(Sys::kCcCmp,     "cc_cmp",    SysClass::kDetection,  ExecPolicy::kDetection,
        ints(R::kCcOp, R::kUid, R::kUid), R::kNone, R::kCond, MismatchKind::kUidCheck),
}};
// clang-format on

/// Every enumerator must have exactly one row, in enum order, with a name.
constexpr bool table_is_complete() {
  for (std::size_t i = 0; i < kSysCount; ++i) {
    if (static_cast<std::size_t>(kTable[i].no) != i) return false;
    if (kTable[i].name.empty()) return false;
  }
  return true;
}
static_assert(table_is_complete(),
              "syscall descriptor table must cover every Sys enumerator in order");

}  // namespace

const SyscallDescriptor& descriptor(Sys sys) noexcept {
  const auto index = static_cast<std::size_t>(sys);
  if (index >= kSysCount) {
    // Corrupted enum from an untrusted guest: degrade to a harmless
    // per-variant row (the old switches' "sys?" / default behaviour) instead
    // of reading past the table.
    static constexpr SyscallDescriptor kUnknown =
        row(Sys::kGetpid, "sys?", SysClass::kPerVariant, ExecPolicy::kPerVariant);
    return kUnknown;
  }
  return kTable[index];
}

const std::array<SyscallDescriptor, kSysCount>& descriptor_table() noexcept { return kTable; }

std::string_view arg_role_name(ArgRole role) noexcept {
  switch (role) {
    case ArgRole::kNone: return "none";
    case ArgRole::kFd: return "fd";
    case ArgRole::kUid: return "uid";
    case ArgRole::kPath: return "path";
    case ArgRole::kPayload: return "payload";
    case ArgRole::kFlags: return "flags";
    case ArgRole::kMode: return "mode";
    case ArgRole::kOffset: return "offset";
    case ArgRole::kPort: return "port";
    case ArgRole::kCcOp: return "cc-op";
    case ArgRole::kCond: return "cond";
    case ArgRole::kExitCode: return "exit-code";
  }
  return "role?";
}

}  // namespace nv::vkernel

