#include "guest/guest_program.h"

namespace nv::guest {

using vkernel::Sys;
using vkernel::SyscallArgs;
using vkernel::SyscallResult;

namespace {
util::Unexpected<os::Errno> sys_fail(os::Errno e) { return util::Unexpected<os::Errno>{e}; }
}  // namespace

SysResult<os::fd_t> GuestContext::open(std::string_view path, os::OpenFlags flags,
                                       os::mode_t mode) {
  SyscallArgs args;
  args.no = Sys::kOpen;
  args.ints = {static_cast<std::uint64_t>(flags), mode};
  args.str = path;
  const SyscallResult r = raw_syscall(args);
  if (!r.ok()) return sys_fail(r.err);
  return static_cast<os::fd_t>(r.value);
}

os::Errno GuestContext::close(os::fd_t fd) {
  SyscallArgs args;
  args.no = Sys::kClose;
  args.ints = {static_cast<std::uint64_t>(fd)};
  return raw_syscall(args).err;
}

SysResult<std::string> GuestContext::read(os::fd_t fd, std::size_t count) {
  SyscallArgs args;
  args.no = Sys::kRead;
  args.ints = {static_cast<std::uint64_t>(fd), count};
  SyscallResult r = raw_syscall(args);
  if (!r.ok()) return sys_fail(r.err);
  return std::move(r.data);
}

SysResult<std::size_t> GuestContext::write(os::fd_t fd, std::string_view data) {
  SyscallArgs args;
  args.no = Sys::kWrite;
  args.ints = {static_cast<std::uint64_t>(fd)};
  args.str = data;
  const SyscallResult r = raw_syscall(args);
  if (!r.ok()) return sys_fail(r.err);
  return static_cast<std::size_t>(r.value);
}

SysResult<std::uint64_t> GuestContext::seek(os::fd_t fd, std::uint64_t offset) {
  SyscallArgs args;
  args.no = Sys::kSeek;
  args.ints = {static_cast<std::uint64_t>(fd), offset};
  const SyscallResult r = raw_syscall(args);
  if (!r.ok()) return sys_fail(r.err);
  return r.value;
}

SysResult<vfs::Stat> GuestContext::stat(std::string_view path) {
  SyscallArgs args;
  args.no = Sys::kStat;
  args.str = path;
  const SyscallResult r = raw_syscall(args);
  if (!r.ok()) return sys_fail(r.err);
  vfs::Stat s;
  if (r.out_ints.size() >= 6) {
    s.ino = r.out_ints[0];
    s.is_dir = r.out_ints[1] != 0;
    s.mode = static_cast<os::mode_t>(r.out_ints[2]);
    s.uid = static_cast<os::uid_t>(r.out_ints[3]);
    s.gid = static_cast<os::gid_t>(r.out_ints[4]);
    s.size = r.out_ints[5];
  }
  return s;
}

os::Errno GuestContext::unlink(std::string_view path) {
  SyscallArgs args;
  args.no = Sys::kUnlink;
  args.str = path;
  return raw_syscall(args).err;
}

os::Errno GuestContext::mkdir(std::string_view path, os::mode_t mode) {
  SyscallArgs args;
  args.no = Sys::kMkdir;
  args.ints = {mode};
  args.str = path;
  return raw_syscall(args).err;
}

SysResult<std::string> GuestContext::read_file(std::string_view path) {
  auto fd = open(path, os::OpenFlags::kRead);
  if (!fd) return sys_fail(fd.error());
  std::string content;
  while (true) {
    auto chunk = read(*fd, 4096);
    if (!chunk) {
      (void)close(*fd);
      return sys_fail(chunk.error());
    }
    if (chunk->empty()) break;
    content += *chunk;
  }
  (void)close(*fd);
  return content;
}

namespace {
SyscallArgs no_arg_call(Sys sys) {
  SyscallArgs args;
  args.no = sys;
  return args;
}
SyscallArgs one_arg_call(Sys sys, std::uint64_t a) {
  SyscallArgs args;
  args.no = sys;
  args.ints = {a};
  return args;
}
}  // namespace

os::uid_t GuestContext::getuid() {
  return static_cast<os::uid_t>(raw_syscall(no_arg_call(Sys::kGetuid)).value);
}
os::uid_t GuestContext::geteuid() {
  return static_cast<os::uid_t>(raw_syscall(no_arg_call(Sys::kGeteuid)).value);
}
os::gid_t GuestContext::getgid() {
  return static_cast<os::gid_t>(raw_syscall(no_arg_call(Sys::kGetgid)).value);
}
os::gid_t GuestContext::getegid() {
  return static_cast<os::gid_t>(raw_syscall(no_arg_call(Sys::kGetegid)).value);
}
os::Errno GuestContext::setuid(os::uid_t uid) {
  return raw_syscall(one_arg_call(Sys::kSetuid, uid)).err;
}
os::Errno GuestContext::seteuid(os::uid_t uid) {
  return raw_syscall(one_arg_call(Sys::kSeteuid, uid)).err;
}
os::Errno GuestContext::setreuid(os::uid_t ruid, os::uid_t euid) {
  SyscallArgs args;
  args.no = Sys::kSetreuid;
  args.ints = {ruid, euid};
  return raw_syscall(args).err;
}
os::Errno GuestContext::setresuid(os::uid_t ruid, os::uid_t euid, os::uid_t suid) {
  SyscallArgs args;
  args.no = Sys::kSetresuid;
  args.ints = {ruid, euid, suid};
  return raw_syscall(args).err;
}
os::Errno GuestContext::setgid(os::gid_t gid) {
  return raw_syscall(one_arg_call(Sys::kSetgid, gid)).err;
}
os::Errno GuestContext::setegid(os::gid_t gid) {
  return raw_syscall(one_arg_call(Sys::kSetegid, gid)).err;
}
os::Errno GuestContext::setgroups(const std::vector<os::gid_t>& groups) {
  // A call carries at most six ints; a longer list is refused as Linux
  // refuses one past NGROUPS_MAX, before any call is made.
  if (groups.size() > vkernel::SyscallInts::kCapacity) return os::Errno::kEINVAL;
  SyscallArgs args;
  args.no = Sys::kSetgroups;
  for (os::gid_t g : groups) args.ints.push_back(g);
  return raw_syscall(args).err;
}

SysResult<os::fd_t> GuestContext::socket() {
  const SyscallResult r = raw_syscall(no_arg_call(Sys::kSocket));
  if (!r.ok()) return sys_fail(r.err);
  return static_cast<os::fd_t>(r.value);
}
os::Errno GuestContext::bind(os::fd_t fd, std::uint16_t port) {
  SyscallArgs args;
  args.no = Sys::kBind;
  // The transformed program embeds its listen-port constant reexpressed
  // (R_i), exactly like uid_const(): the monitor's kPort canonicalization
  // inverts it, so benign binds agree while an injected raw port diverges.
  args.ints = {static_cast<std::uint64_t>(fd), config_.port_coder->reexpress(port)};
  return raw_syscall(args).err;
}
os::Errno GuestContext::listen(os::fd_t fd) {
  return raw_syscall(one_arg_call(Sys::kListen, static_cast<std::uint64_t>(fd))).err;
}
SysResult<os::fd_t> GuestContext::accept(os::fd_t fd) {
  const SyscallResult r = raw_syscall(one_arg_call(Sys::kAccept, static_cast<std::uint64_t>(fd)));
  if (!r.ok()) return sys_fail(r.err);
  return static_cast<os::fd_t>(r.value);
}

os::pid_t GuestContext::getpid() {
  return static_cast<os::pid_t>(raw_syscall(no_arg_call(Sys::kGetpid)).value);
}
std::uint64_t GuestContext::gettime() { return raw_syscall(no_arg_call(Sys::kGettime)).value; }

void GuestContext::exit(int code) {
  (void)raw_syscall(one_arg_call(Sys::kExit, static_cast<std::uint64_t>(code)));
  throw GuestExit{code};
}

std::optional<std::string> GuestContext::poll_event() {
  SyscallResult r = raw_syscall(no_arg_call(Sys::kPollEvent));
  if (r.value == 0) return std::nullopt;
  return std::move(r.data);
}

os::uid_t GuestContext::uid_value(os::uid_t uid) {
  return static_cast<os::uid_t>(raw_syscall(one_arg_call(Sys::kUidValue, uid)).value);
}

bool GuestContext::cond_chk(bool condition) {
  return raw_syscall(one_arg_call(Sys::kCondChk, condition ? 1 : 0)).value != 0;
}

bool GuestContext::cc(vkernel::CcOp op, os::uid_t a, os::uid_t b) {
  SyscallArgs args;
  args.no = Sys::kCcCmp;
  args.ints = {static_cast<std::uint64_t>(op), a, b};
  return raw_syscall(args).value != 0;
}

vkernel::VmResult GuestContext::execute_code(std::uint64_t entry, std::uint64_t max_steps) {
  return vkernel::vm_run(process_.memory(), entry, config_.code_tag, port_, max_steps);
}

std::optional<vfs::PasswdEntry> GuestContext::getpwnam(std::string_view name) {
  auto content = read_file("/etc/passwd");
  if (!content) return std::nullopt;
  return vfs::find_user(*content, name);
}

std::optional<vfs::GroupEntry> GuestContext::getgrnam(std::string_view name) {
  auto content = read_file("/etc/group");
  if (!content) return std::nullopt;
  return vfs::find_group(*content, name);
}

}  // namespace nv::guest
