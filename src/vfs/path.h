// Absolute path normalization for the simulated filesystem.
#ifndef NV_VFS_PATH_H
#define NV_VFS_PATH_H

#include <string>
#include <string_view>

namespace nv::vfs {

/// Removes the components of `rest` up to and including the first one that
/// is neither empty nor ".", and returns that one as a view of the same
/// characters; returns an empty view once no such component is left. ".." is
/// returned like any other name. Walking "/etc//./passwd" this way yields
/// "etc", "passwd", then "".
[[nodiscard]] std::string_view pop_component(std::string_view& rest) noexcept;

/// Whether some component of `path` is "..", which a walk cannot resolve in
/// place: "/a/../b" has one, "/a..b" does not.
[[nodiscard]] bool has_dotdot(std::string_view path) noexcept;

/// Whether `path` is already in the canonical form below, so that
/// normalize_path() would return it unchanged.
[[nodiscard]] bool is_normalized(std::string_view path) noexcept;

/// Canonical form: "/" + components joined by "/", with "." dropped and
/// ".." resolved. "/etc//passwd/." -> "/etc/passwd". Leading ".." at root is
/// dropped.
[[nodiscard]] std::string normalize_path(std::string_view path);

/// Parent of the normalized path ("/etc/passwd" -> "/etc"; "/" -> "/").
[[nodiscard]] std::string parent_path(std::string_view path);

/// Final component of the normalized path ("/etc/passwd" -> "passwd";
/// "/" -> "").
[[nodiscard]] std::string basename(std::string_view path);

/// The per-variant name used by the unshared-files mechanism (§3.4):
/// variant_path("/etc/passwd", 1) == "/etc/passwd-1".
[[nodiscard]] std::string variant_path(std::string_view path, unsigned variant_index);

}  // namespace nv::vfs

#endif  // NV_VFS_PATH_H
