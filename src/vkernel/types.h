// Shared OS-level scalar types and error codes for the simulated kernel and
// filesystem. Kept header-only and dependency-free so lower layers (vfs) can
// use them without linking against the kernel.
#ifndef NV_VKERNEL_TYPES_H
#define NV_VKERNEL_TYPES_H

#include <cstdint>
#include <string_view>
#include <vector>

namespace nv::os {

// The paper's target data type. Deliberately matches POSIX: unsigned, with
// (uid_t)-1 reserved as an "unchanged" sentinel by set*id calls — the reason
// the paper's reexpression mask is 0x7FFFFFFF and not 0xFFFFFFFF (§3.2).
using uid_t = std::uint32_t;
using gid_t = std::uint32_t;
using pid_t = std::int32_t;
using fd_t = std::int32_t;

constexpr uid_t kRootUid = 0;
constexpr gid_t kRootGid = 0;
constexpr uid_t kInvalidUid = static_cast<uid_t>(-1);
constexpr gid_t kInvalidGid = static_cast<gid_t>(-1);

/// Subset of POSIX errno values the simulated kernel can return.
enum class Errno : std::uint8_t {
  kOk = 0,
  kEPERM,
  kENOENT,
  kEINTR,
  kEBADF,
  kEACCES,
  kEFAULT,
  kEEXIST,
  kENOTDIR,
  kEISDIR,
  kEINVAL,
  kEMFILE,
  kENOSYS,
  kEAGAIN,
  kEPIPE,
  kENOTCONN,
  kECONNREFUSED,
  kEADDRINUSE,
  kENOTSOCK,
  kERANGE,
  kEFBIG,
};

[[nodiscard]] std::string_view errno_name(Errno e) noexcept;

/// File mode permission bits (standard octal layout).
using mode_t = std::uint16_t;
constexpr mode_t kModeOwnerRead = 0400;
constexpr mode_t kModeOwnerWrite = 0200;
constexpr mode_t kModeOwnerExec = 0100;
constexpr mode_t kModeGroupRead = 0040;
constexpr mode_t kModeGroupWrite = 0020;
constexpr mode_t kModeGroupExec = 0010;
constexpr mode_t kModeOtherRead = 0004;
constexpr mode_t kModeOtherWrite = 0002;
constexpr mode_t kModeOtherExec = 0001;

/// Open flags (bitmask).
enum class OpenFlags : std::uint8_t {
  kRead = 1,
  kWrite = 2,
  kReadWrite = 3,
  kCreate = 4,
  kTruncate = 8,
  kAppend = 16,
};

[[nodiscard]] constexpr OpenFlags operator|(OpenFlags a, OpenFlags b) noexcept {
  return static_cast<OpenFlags>(static_cast<std::uint8_t>(a) | static_cast<std::uint8_t>(b));
}
[[nodiscard]] constexpr bool has_flag(OpenFlags flags, OpenFlags bit) noexcept {
  return (static_cast<std::uint8_t>(flags) & static_cast<std::uint8_t>(bit)) != 0;
}

/// Process credentials: real/effective/saved UIDs and GIDs plus supplementary
/// groups, with Linux semantics for privilege checks (euid == 0 is superuser).
struct Credentials {
  uid_t ruid = kRootUid;
  uid_t euid = kRootUid;
  uid_t suid = kRootUid;
  gid_t rgid = kRootGid;
  gid_t egid = kRootGid;
  gid_t sgid = kRootGid;
  std::vector<gid_t> groups;

  [[nodiscard]] bool is_superuser() const noexcept { return euid == kRootUid; }
  [[nodiscard]] bool in_group(gid_t g) const noexcept {
    if (egid == g) return true;
    for (gid_t member : groups) {
      if (member == g) return true;
    }
    return false;
  }
  [[nodiscard]] static Credentials root() noexcept { return Credentials{}; }
  [[nodiscard]] static Credentials user(uid_t uid, gid_t gid) noexcept {
    Credentials c;
    c.ruid = c.euid = c.suid = uid;
    c.rgid = c.egid = c.sgid = gid;
    return c;
  }
  [[nodiscard]] bool operator==(const Credentials&) const = default;
};

}  // namespace nv::os

#endif  // NV_VKERNEL_TYPES_H
