// The syscall vocabulary of the simulated kernel.
//
// A syscall invocation is reified as SyscallArgs so the N-variant monitor can
// compare invocations across variants (§3.1: "the wrappers also act as
// monitors and check ... that all system calls receive equivalent arguments").
// The last three entries are the paper's new detection syscalls (Table 2).
#ifndef NV_VKERNEL_SYSCALLS_H
#define NV_VKERNEL_SYSCALLS_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>

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

/// A call's scalar arguments, held inline in six slots like a register
/// file's arg0..arg5, so that building, copying and comparing a call never
/// allocates for them. A seventh value does not fit: push_back() throws
/// std::length_error.
class SyscallInts {
 public:
  static constexpr std::size_t kCapacity = 6;

  using iterator = std::uint64_t*;
  using const_iterator = const std::uint64_t*;

  SyscallInts() = default;
  SyscallInts(std::initializer_list<std::uint64_t> values) { *this = values; }
  /// Assigns in place, so `args.ints = {a, b}` builds no temporary to copy.
  SyscallInts& operator=(std::initializer_list<std::uint64_t> values) {
    size_ = 0;
    for (const std::uint64_t value : values) push_back(value);
    return *this;
  }

  void push_back(std::uint64_t value) {
    if (size_ == kCapacity) throw std::length_error("a syscall takes at most six int arguments");
    slots_[size_++] = value;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::uint64_t& operator[](std::size_t i) noexcept { return slots_[i]; }
  [[nodiscard]] std::uint64_t operator[](std::size_t i) const noexcept { return slots_[i]; }
  /// Bounds-checked against size(): throws std::out_of_range past it.
  [[nodiscard]] std::uint64_t at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("syscall int argument index out of range");
    return slots_[i];
  }

  [[nodiscard]] iterator begin() noexcept { return slots_.data(); }
  [[nodiscard]] iterator end() noexcept { return slots_.data() + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return slots_.data(); }
  [[nodiscard]] const_iterator end() const noexcept { return slots_.data() + size_; }

  /// Equal when they hold the same values; slots past size() do not count.
  [[nodiscard]] bool operator==(const SyscallInts& other) const noexcept {
    return std::equal(begin(), end(), other.begin(), other.end());
  }

 private:
  std::array<std::uint64_t, kCapacity> slots_{};
  std::uint8_t size_ = 0;
};

/// Reified syscall invocation, of fixed shape: `ints` carries scalars (fds,
/// uids, flags) and `str` the one string argument, a path or a payload (the
/// descriptor table's str0). Equality is what the monitor compares after
/// canonicalization.
struct SyscallArgs {
  Sys no = Sys::kGetpid;
  SyscallInts ints;
  std::string str;

  [[nodiscard]] bool operator==(const SyscallArgs&) const = default;
  [[nodiscard]] std::string describe() const;
};

/// Result delivered back to the guest.
struct SyscallResult {
  std::uint64_t value = 0;                 // primary return value
  os::Errno err = os::Errno::kOk;          // kOk means success
  std::string data;                        // read()/accept() payloads
  SyscallInts out_ints;                    // stat() fields etc.

  [[nodiscard]] bool ok() const noexcept { return err == os::Errno::kOk; }
  [[nodiscard]] bool operator==(const SyscallResult&) const = default;
  /// Equal to a default-constructed result again, in place: `data` keeps its
  /// buffer.
  void clear() noexcept {
    value = 0;
    err = os::Errno::kOk;
    data.clear();
    out_ints = SyscallInts{};
  }
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
