// In-memory simulated filesystem with POSIX-style permissions.
//
// This is the substrate behind the simulated kernel's file syscalls and the
// unshared-files mechanism (§3.4 of the paper): variant-specific trusted
// files like /etc/passwd-0 and /etc/passwd-1 live side by side in one tree.
#ifndef NV_VFS_FILESYSTEM_H
#define NV_VFS_FILESYSTEM_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/expected.h"
#include "vkernel/types.h"

namespace nv::vfs {

struct Ok {};
template <typename T>
using Result = util::Expected<T, os::Errno>;
using Status = util::Expected<Ok, os::Errno>;

[[nodiscard]] inline util::Unexpected<os::Errno> fail(os::Errno e) {
  return util::Unexpected<os::Errno>{e};
}

class Inode;
using InodePtr = std::shared_ptr<Inode>;

/// Largest file the filesystem holds. A write whose end would pass it fails
/// with EFBIG, so a guest cannot make the host allocate without bound.
inline constexpr std::uint64_t kMaxFileSize = std::uint64_t{16} << 20;

/// A file or directory node. Files hold a byte buffer; directories hold a
/// name -> inode map.
class Inode {
 public:
  /// Directory entries; `find` takes a string_view, so a path walk looks
  /// components up without copying them.
  using Entries = std::map<std::string, InodePtr, std::less<>>;

  static InodePtr make_file(os::mode_t mode, os::uid_t uid, os::gid_t gid,
                            std::string content = {});
  static InodePtr make_dir(os::mode_t mode, os::uid_t uid, os::gid_t gid);

  [[nodiscard]] bool is_dir() const noexcept { return is_dir_; }
  [[nodiscard]] os::mode_t mode() const noexcept { return mode_; }
  [[nodiscard]] os::uid_t uid() const noexcept { return uid_; }
  [[nodiscard]] os::gid_t gid() const noexcept { return gid_; }
  [[nodiscard]] std::uint64_t ino() const noexcept { return ino_; }
  /// Bumped by every change to content, mode or owner. An inode number is
  /// never reused, so (ino, version) names one state of one file.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  void set_mode(os::mode_t mode) noexcept;
  void set_owner(os::uid_t uid, os::gid_t gid) noexcept;

  // File payload (valid only when !is_dir()). Only the members below change
  // it, and each bumps the version.
  [[nodiscard]] const std::string& data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  /// Write `bytes` at `offset`, zero-filling any gap before it. Fails with
  /// EFBIG, changing nothing, when the file would grow past kMaxFileSize.
  [[nodiscard]] Status write(std::uint64_t offset, std::string_view bytes);
  /// Cut the payload to its first `size` bytes (no-op when already shorter).
  void truncate(std::size_t size) noexcept;

  // Directory entries (valid only when is_dir()).
  [[nodiscard]] const Entries& entries() const noexcept { return entries_; }
  [[nodiscard]] Entries& entries() noexcept { return entries_; }

 private:
  Inode(bool is_dir, os::mode_t mode, os::uid_t uid, os::gid_t gid);

  bool is_dir_;
  os::mode_t mode_;
  os::uid_t uid_;
  os::gid_t gid_;
  std::uint64_t ino_;
  std::uint64_t version_ = 0;
  std::string data_;
  Entries entries_;
};

/// Metadata snapshot returned by stat().
struct Stat {
  std::uint64_t ino = 0;
  bool is_dir = false;
  os::mode_t mode = 0;
  os::uid_t uid = 0;
  os::gid_t gid = 0;
  std::uint64_t size = 0;
  /// Inode::version(): with `ino`, changes whenever content, mode or owner do.
  std::uint64_t version = 0;
};

enum class Access : std::uint8_t { kRead, kWrite, kExec };

/// Standard owner/group/other permission check; euid 0 bypasses read/write
/// checks and needs any exec bit for exec (Linux behaviour).
[[nodiscard]] bool can_access(const Inode& node, const os::Credentials& creds, Access want);

/// An open-file description: inode + cursor + access mode. Shared between
/// fd-table slots on dup, exactly like the kernel's struct file.
class OpenFile {
 public:
  OpenFile(InodePtr inode, os::OpenFlags flags, std::string path);

  /// Read up to `count` bytes from the cursor; advances the cursor.
  [[nodiscard]] Result<std::string> read(std::size_t count);
  /// Write at the cursor (or end when O_APPEND); advances the cursor.
  [[nodiscard]] Result<std::size_t> write(std::string_view bytes);
  /// Absolute seek; returns the new offset.
  [[nodiscard]] Result<std::uint64_t> seek(std::uint64_t offset);

  [[nodiscard]] const InodePtr& inode() const noexcept { return inode_; }
  [[nodiscard]] os::OpenFlags flags() const noexcept { return flags_; }
  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  InodePtr inode_;
  os::OpenFlags flags_;
  std::uint64_t offset_ = 0;
  std::string path_;  // normalized path used at open (for diagnostics)
};

using OpenFilePtr = std::shared_ptr<OpenFile>;

/// The filesystem tree. All paths are normalized on entry; all mutating and
/// permission-sensitive operations take the caller's credentials.
class FileSystem {
 public:
  FileSystem();

  [[nodiscard]] Status mkdir(std::string_view path, const os::Credentials& creds,
                             os::mode_t mode = 0755);
  /// mkdir -p; existing directories along the way are fine.
  [[nodiscard]] Status mkdir_p(std::string_view path, const os::Credentials& creds,
                               os::mode_t mode = 0755);

  [[nodiscard]] Result<OpenFilePtr> open(std::string_view path, os::OpenFlags flags,
                                         const os::Credentials& creds,
                                         os::mode_t create_mode = 0644);

  [[nodiscard]] Result<Stat> stat(std::string_view path) const;
  [[nodiscard]] Status unlink(std::string_view path, const os::Credentials& creds);
  [[nodiscard]] Status chmod(std::string_view path, os::mode_t mode,
                             const os::Credentials& creds);
  [[nodiscard]] Status chown(std::string_view path, os::uid_t uid, os::gid_t gid,
                             const os::Credentials& creds);
  [[nodiscard]] Status rename(std::string_view from, std::string_view to,
                              const os::Credentials& creds);

  /// Convenience: create-or-replace a whole file (root-like maintenance used
  /// by test fixtures and variant-file generation). `mode` applies only to a
  /// file it creates. When the file already holds `content`, nothing changes,
  /// not even its version.
  [[nodiscard]] Status write_file(std::string_view path, std::string_view content,
                                  const os::Credentials& creds, os::mode_t mode = 0644);
  [[nodiscard]] Result<std::string> read_file(std::string_view path,
                                              const os::Credentials& creds) const;

  [[nodiscard]] bool exists(std::string_view path) const;
  [[nodiscard]] Result<std::vector<std::string>> list_dir(std::string_view path) const;
  [[nodiscard]] Result<InodePtr> lookup(std::string_view path) const;

 private:
  /// The directory `dir`, which holds some path's final component, when
  /// `creds` may search it.
  [[nodiscard]] Result<InodePtr> resolve_parent(std::string_view dir,
                                                const os::Credentials& creds) const;
  /// The node open() opens: looked up, or created when `flags` has kCreate,
  /// after open()'s permission checks. Truncates nothing.
  [[nodiscard]] Result<InodePtr> open_node(std::string_view path, os::OpenFlags flags,
                                           const os::Credentials& creds, os::mode_t create_mode);

  InodePtr root_;
};

}  // namespace nv::vfs

#endif  // NV_VFS_FILESYSTEM_H
