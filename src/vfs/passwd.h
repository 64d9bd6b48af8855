// /etc/passwd and /etc/group parsing, formatting, and per-variant
// diversification (the data half of the unshared-files mechanism, §3.4).
#ifndef NV_VFS_PASSWD_H
#define NV_VFS_PASSWD_H

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/expected.h"
#include "vkernel/types.h"

namespace nv::vfs {

struct PasswdEntry {
  std::string name;
  os::uid_t uid = 0;
  os::gid_t gid = 0;
  std::string gecos;
  std::string home;
  std::string shell;
  [[nodiscard]] bool operator==(const PasswdEntry&) const = default;
};

struct GroupEntry {
  std::string name;
  os::gid_t gid = 0;
  std::vector<std::string> members;
  [[nodiscard]] bool operator==(const GroupEntry&) const = default;
};

/// Parse passwd-format content. Blank and '#' lines are skipped, and so are
/// malformed ones, as glibc skips them: fewer than seven ':'-separated
/// fields, or a uid or gid that is not a number a uid_t or gid_t holds.
[[nodiscard]] std::vector<PasswdEntry> parse_passwd(std::string_view content);
[[nodiscard]] std::string format_passwd(const std::vector<PasswdEntry>& entries);

/// Parse group-format content, skipping lines as parse_passwd() does: fewer
/// than four fields, or a gid that a gid_t cannot hold.
[[nodiscard]] std::vector<GroupEntry> parse_group(std::string_view content);
[[nodiscard]] std::string format_group(const std::vector<GroupEntry>& entries);

/// The entry of the first well-formed line of passwd-format `content` with
/// this name (glibc's rule: malformed lines are skipped, the first match
/// wins), or nullopt. The text is walked in place and only the entry
/// returned is built, so this is parse_passwd() searched, without the vector.
[[nodiscard]] std::optional<PasswdEntry> find_user(std::string_view content,
                                                   std::string_view name);
/// As find_user(), matching the uid.
[[nodiscard]] std::optional<PasswdEntry> find_uid(std::string_view content, os::uid_t uid);
/// As find_user(), over group-format `content`.
[[nodiscard]] std::optional<GroupEntry> find_group(std::string_view content,
                                                   std::string_view name);

/// Rewrite every UID/GID field through the given reexpression functions,
/// producing the variant-i copy of a trusted file. Everything except the
/// numeric identity fields is preserved byte-for-byte.
[[nodiscard]] std::string diversify_passwd(std::string_view content,
                                           const std::function<os::uid_t(os::uid_t)>& uid_fn,
                                           const std::function<os::gid_t(os::gid_t)>& gid_fn);
[[nodiscard]] std::string diversify_group(std::string_view content,
                                          const std::function<os::gid_t(os::gid_t)>& gid_fn);

}  // namespace nv::vfs

#endif  // NV_VFS_PASSWD_H
