#include "vfs/filesystem.h"

#include <algorithm>
#include <atomic>

#include "vfs/path.h"

namespace nv::vfs {

namespace {

std::uint64_t next_ino() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// `path` as a walk reads it: `path` itself, or, when it has a ".."
/// component, its normalized form, stored in `normalized`.
std::string_view walkable(std::string_view path, std::string& normalized) {
  if (!has_dotdot(path)) return path;
  normalized = normalize_path(path);
  return normalized;
}

/// A walkable path split before its final component, both parts views of
/// it: "/a//b/." -> {"/a//", "b"}; "/" -> {"/", ""}.
struct SplitPath {
  std::string_view dir;
  std::string_view name;
};

SplitPath split_last(std::string_view path) noexcept {
  std::string_view name;
  std::string_view rest = path;
  for (std::string_view part = pop_component(rest); !part.empty(); part = pop_component(rest)) {
    name = part;
  }
  if (name.empty()) return {path, name};
  return {path.substr(0, static_cast<std::size_t>(name.data() - path.data())), name};
}

}  // namespace

Inode::Inode(bool is_dir, os::mode_t mode, os::uid_t uid, os::gid_t gid)
    : is_dir_(is_dir), mode_(mode), uid_(uid), gid_(gid), ino_(next_ino()) {}

InodePtr Inode::make_file(os::mode_t mode, os::uid_t uid, os::gid_t gid, std::string content) {
  auto node = InodePtr(new Inode(false, mode, uid, gid));
  node->data_ = std::move(content);
  return node;
}

InodePtr Inode::make_dir(os::mode_t mode, os::uid_t uid, os::gid_t gid) {
  return InodePtr(new Inode(true, mode, uid, gid));
}

void Inode::set_mode(os::mode_t mode) noexcept {
  mode_ = mode;
  ++version_;
}

void Inode::set_owner(os::uid_t uid, os::gid_t gid) noexcept {
  uid_ = uid;
  gid_ = gid;
  ++version_;
}

Status Inode::write(std::uint64_t offset, std::string_view bytes) {
  // Neither comparison can wrap: the second runs only once bytes.size() is
  // known to be at most kMaxFileSize.
  if (bytes.size() > kMaxFileSize || offset > kMaxFileSize - bytes.size()) {
    return fail(os::Errno::kEFBIG);
  }
  const auto at = static_cast<std::size_t>(offset);
  if (at > data_.size()) data_.resize(at, '\0');
  data_.replace(at, std::min(bytes.size(), data_.size() - at), bytes);
  ++version_;
  return Ok{};
}

void Inode::truncate(std::size_t size) noexcept {
  data_.resize(std::min(size, data_.size()));
  ++version_;
}

bool can_access(const Inode& node, const os::Credentials& creds, Access want) {
  if (creds.is_superuser()) {
    if (want != Access::kExec) return true;
    // Root still needs at least one exec bit set anywhere.
    return (node.mode() & (os::kModeOwnerExec | os::kModeGroupExec | os::kModeOtherExec)) != 0;
  }
  os::mode_t shift = 0;  // "other" bits
  if (node.uid() == creds.euid) shift = 6;
  else if (creds.in_group(node.gid())) shift = 3;
  os::mode_t bit = 0;
  switch (want) {
    case Access::kRead: bit = 04; break;
    case Access::kWrite: bit = 02; break;
    case Access::kExec: bit = 01; break;
  }
  return (node.mode() >> shift & bit) != 0;
}

OpenFile::OpenFile(InodePtr inode, os::OpenFlags flags, std::string path)
    : inode_(std::move(inode)), flags_(flags), path_(std::move(path)) {}

Result<std::string> OpenFile::read(std::size_t count) {
  if (!has_flag(flags_, os::OpenFlags::kRead)) return fail(os::Errno::kEBADF);
  const std::string& data = inode_->data();
  if (offset_ >= data.size()) return std::string{};
  const std::size_t take = std::min(count, data.size() - static_cast<std::size_t>(offset_));
  std::string out = data.substr(static_cast<std::size_t>(offset_), take);
  offset_ += take;
  return out;
}

Result<std::size_t> OpenFile::write(std::string_view bytes) {
  if (!has_flag(flags_, os::OpenFlags::kWrite)) return fail(os::Errno::kEBADF);
  const std::uint64_t at = has_flag(flags_, os::OpenFlags::kAppend) ? inode_->size() : offset_;
  if (auto written = inode_->write(at, bytes); !written) return fail(written.error());
  offset_ = at + bytes.size();
  return bytes.size();
}

Result<std::uint64_t> OpenFile::seek(std::uint64_t offset) {
  offset_ = offset;
  return offset_;
}

FileSystem::FileSystem() : root_(Inode::make_dir(0755, os::kRootUid, os::kRootGid)) {}

Result<InodePtr> FileSystem::lookup(std::string_view path) const {
  std::string normalized;
  std::string_view rest = walkable(path, normalized);
  const InodePtr* node = &root_;
  for (std::string_view part = pop_component(rest); !part.empty(); part = pop_component(rest)) {
    if (!(*node)->is_dir()) return fail(os::Errno::kENOTDIR);
    const auto it = (*node)->entries().find(part);
    if (it == (*node)->entries().end()) return fail(os::Errno::kENOENT);
    node = &it->second;
  }
  return *node;
}

Result<InodePtr> FileSystem::resolve_parent(std::string_view dir,
                                            const os::Credentials& creds) const {
  auto parent = lookup(dir);
  if (!parent) return parent;
  if (!(*parent)->is_dir()) return fail(os::Errno::kENOTDIR);
  // Traversal requires exec on the parent; we check only the final directory
  // (intermediate checks omitted for simplicity; the kernel layer never
  // relies on them).
  if (!can_access(**parent, creds, Access::kExec)) return fail(os::Errno::kEACCES);
  return parent;
}

Status FileSystem::mkdir(std::string_view path, const os::Credentials& creds, os::mode_t mode) {
  std::string normalized;
  const auto [dir, name] = split_last(walkable(path, normalized));
  if (name.empty()) return fail(os::Errno::kEEXIST);  // mkdir("/")
  auto parent = resolve_parent(dir, creds);
  if (!parent) return fail(parent.error());
  Inode::Entries& entries = (*parent)->entries();
  if (entries.contains(name)) return fail(os::Errno::kEEXIST);
  if (!can_access(**parent, creds, Access::kWrite)) return fail(os::Errno::kEACCES);
  entries.try_emplace(std::string(name), Inode::make_dir(mode, creds.euid, creds.egid));
  return Ok{};
}

Status FileSystem::mkdir_p(std::string_view path, const os::Credentials& creds,
                           os::mode_t mode) {
  // One walk: existing directories are passed through unchecked, and each
  // missing one is made as mkdir() would make it.
  std::string normalized;
  std::string_view rest = walkable(path, normalized);
  const InodePtr* node = &root_;
  for (std::string_view part = pop_component(rest); !part.empty(); part = pop_component(rest)) {
    Inode& dir = **node;
    if (!dir.is_dir()) return fail(os::Errno::kENOTDIR);
    auto it = dir.entries().find(part);
    if (it == dir.entries().end()) {
      if (!can_access(dir, creds, Access::kExec) || !can_access(dir, creds, Access::kWrite)) {
        return fail(os::Errno::kEACCES);
      }
      it = dir.entries()
               .try_emplace(std::string(part), Inode::make_dir(mode, creds.euid, creds.egid))
               .first;
    }
    node = &it->second;
  }
  if (!(*node)->is_dir()) return fail(os::Errno::kENOTDIR);
  return Ok{};
}

Result<InodePtr> FileSystem::open_node(std::string_view path, os::OpenFlags flags,
                                       const os::Credentials& creds, os::mode_t create_mode) {
  auto found = lookup(path);
  InodePtr node;
  if (found) {
    node = std::move(*found);
  } else {
    if (found.error() != os::Errno::kENOENT || !has_flag(flags, os::OpenFlags::kCreate)) {
      return fail(found.error());
    }
    std::string normalized;
    const auto [dir, name] = split_last(walkable(path, normalized));
    auto parent = resolve_parent(dir, creds);
    if (!parent) return fail(parent.error());
    if (!can_access(**parent, creds, Access::kWrite)) return fail(os::Errno::kEACCES);
    node = Inode::make_file(create_mode, creds.euid, creds.egid);
    (*parent)->entries().try_emplace(std::string(name), node);
  }
  if (node->is_dir() && has_flag(flags, os::OpenFlags::kWrite)) return fail(os::Errno::kEISDIR);
  if (has_flag(flags, os::OpenFlags::kRead) && !can_access(*node, creds, Access::kRead)) {
    return fail(os::Errno::kEACCES);
  }
  if (has_flag(flags, os::OpenFlags::kWrite) && !can_access(*node, creds, Access::kWrite)) {
    return fail(os::Errno::kEACCES);
  }
  return node;
}

Result<OpenFilePtr> FileSystem::open(std::string_view path, os::OpenFlags flags,
                                     const os::Credentials& creds, os::mode_t create_mode) {
  auto node = open_node(path, flags, creds, create_mode);
  if (!node) return fail(node.error());
  if (has_flag(flags, os::OpenFlags::kTruncate) && !(*node)->is_dir()) (*node)->truncate(0);
  return std::make_shared<OpenFile>(std::move(*node), flags, normalize_path(path));
}

Result<Stat> FileSystem::stat(std::string_view path) const {
  auto node = lookup(path);
  if (!node) return fail(node.error());
  Stat s;
  s.ino = (*node)->ino();
  s.is_dir = (*node)->is_dir();
  s.mode = (*node)->mode();
  s.uid = (*node)->uid();
  s.gid = (*node)->gid();
  s.size = (*node)->size();
  s.version = (*node)->version();
  return s;
}

Status FileSystem::unlink(std::string_view path, const os::Credentials& creds) {
  std::string normalized;
  const auto [dir, name] = split_last(walkable(path, normalized));
  if (name.empty()) return fail(os::Errno::kEISDIR);
  auto parent = resolve_parent(dir, creds);
  if (!parent) return fail(parent.error());
  Inode::Entries& entries = (*parent)->entries();
  const auto it = entries.find(name);
  if (it == entries.end()) return fail(os::Errno::kENOENT);
  if (it->second->is_dir() && !it->second->entries().empty()) return fail(os::Errno::kEEXIST);
  if (!can_access(**parent, creds, Access::kWrite)) return fail(os::Errno::kEACCES);
  entries.erase(it);
  return Ok{};
}

Status FileSystem::chmod(std::string_view path, os::mode_t mode, const os::Credentials& creds) {
  auto node = lookup(path);
  if (!node) return fail(node.error());
  if (!creds.is_superuser() && (*node)->uid() != creds.euid) return fail(os::Errno::kEPERM);
  (*node)->set_mode(mode);
  return Ok{};
}

Status FileSystem::chown(std::string_view path, os::uid_t uid, os::gid_t gid,
                         const os::Credentials& creds) {
  auto node = lookup(path);
  if (!node) return fail(node.error());
  if (!creds.is_superuser()) return fail(os::Errno::kEPERM);
  (*node)->set_owner(uid, gid);
  return Ok{};
}

Status FileSystem::rename(std::string_view from, std::string_view to,
                          const os::Credentials& creds) {
  auto node = lookup(from);
  if (!node) return fail(node.error());
  std::string from_normalized;
  std::string to_normalized;
  const auto [from_dir, from_name] = split_last(walkable(from, from_normalized));
  const auto [to_dir, to_name] = split_last(walkable(to, to_normalized));
  auto from_parent = resolve_parent(from_dir, creds);
  if (!from_parent) return fail(from_parent.error());
  auto to_parent = resolve_parent(to_dir, creds);
  if (!to_parent) return fail(to_parent.error());
  if (!can_access(**from_parent, creds, Access::kWrite) ||
      !can_access(**to_parent, creds, Access::kWrite)) {
    return fail(os::Errno::kEACCES);
  }
  Inode::Entries& from_entries = (*from_parent)->entries();
  if (const auto it = from_entries.find(from_name); it != from_entries.end()) {
    from_entries.erase(it);
  }
  (*to_parent)->entries().insert_or_assign(std::string(to_name), std::move(*node));
  return Ok{};
}

Status FileSystem::write_file(std::string_view path, std::string_view content,
                              const os::Credentials& creds, os::mode_t mode) {
  auto node = open_node(path, os::OpenFlags::kWrite | os::OpenFlags::kCreate, creds, mode);
  if (!node) return fail(node.error());
  Inode& file = **node;
  if (file.data() == content) return Ok{};  // an identical rewrite changes nothing
  if (auto written = file.write(0, content); !written) return written;
  file.truncate(content.size());
  return Ok{};
}

Result<std::string> FileSystem::read_file(std::string_view path,
                                          const os::Credentials& creds) const {
  auto node = lookup(path);
  if (!node) return fail(node.error());
  if (!can_access(**node, creds, Access::kRead)) return fail(os::Errno::kEACCES);
  return (*node)->data();
}

bool FileSystem::exists(std::string_view path) const { return lookup(path).has_value(); }

Result<std::vector<std::string>> FileSystem::list_dir(std::string_view path) const {
  auto node = lookup(path);
  if (!node) return fail(node.error());
  if (!(*node)->is_dir()) return fail(os::Errno::kENOTDIR);
  std::vector<std::string> names;
  names.reserve((*node)->entries().size());
  for (const auto& [name, child] : (*node)->entries()) names.push_back(name);
  return names;
}

}  // namespace nv::vfs
