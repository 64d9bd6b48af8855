#include "vkernel/kernel.h"

#include "vkernel/credentials.h"

namespace nv::vkernel {

namespace {

SyscallResult failure(os::Errno e) {
  SyscallResult r;
  r.err = e;
  r.value = static_cast<std::uint64_t>(-1);
  return r;
}

SyscallResult success(std::uint64_t value = 0) {
  SyscallResult r;
  r.value = value;
  return r;
}

std::uint64_t ival(const SyscallArgs& args, std::size_t i) {
  return i < args.ints.size() ? args.ints[i] : 0;
}

SyscallResult do_read(Process& proc, const SyscallArgs& args) {
  FdEntry* entry = proc.fd(static_cast<os::fd_t>(ival(args, 0)));
  if (entry == nullptr) return failure(os::Errno::kEBADF);
  const auto count = static_cast<std::size_t>(ival(args, 1));
  if (auto* file = std::get_if<vfs::OpenFilePtr>(entry)) {
    auto data = (*file)->read(count);
    if (!data) return failure(data.error());
    SyscallResult r = success(data->size());
    r.data = std::move(*data);
    return r;
  }
  if (auto* sock = std::get_if<SocketPtr>(entry)) {
    if ((*sock)->state != SocketObj::State::kConnected) return failure(os::Errno::kENOTCONN);
    auto data = (*sock)->conn.recv(count);
    if (!data) return failure(data.error());
    SyscallResult r = success(data->size());
    r.data = std::move(*data);
    return r;
  }
  return failure(os::Errno::kEBADF);
}

SyscallResult do_write(Process& proc, const SyscallArgs& args) {
  FdEntry* entry = proc.fd(static_cast<os::fd_t>(ival(args, 0)));
  if (entry == nullptr) return failure(os::Errno::kEBADF);
  const std::string& payload = args.str;
  if (auto* file = std::get_if<vfs::OpenFilePtr>(entry)) {
    auto written = (*file)->write(payload);
    if (!written) return failure(written.error());
    return success(*written);
  }
  if (auto* sock = std::get_if<SocketPtr>(entry)) {
    if ((*sock)->state != SocketObj::State::kConnected) return failure(os::Errno::kENOTCONN);
    auto sent = (*sock)->conn.send(payload);
    if (!sent) return failure(sent.error());
    return success(*sent);
  }
  return failure(os::Errno::kEBADF);
}

}  // namespace

SyscallResult do_open(KernelContext& ctx, Process& proc, std::string_view path,
                      os::OpenFlags flags, os::mode_t mode, os::fd_t slot) {
  auto file = ctx.fs().open(path, flags, proc.creds(), mode);
  if (!file) return failure(file.error());
  os::fd_t fd = slot;
  if (fd < 0) {
    fd = proc.install_fd(FdEntry{std::move(*file)});
  } else {
    proc.install_fd_at(fd, FdEntry{std::move(*file)});
  }
  return success(static_cast<std::uint64_t>(fd));
}

SyscallResult execute_syscall(KernelContext& ctx, Process& proc, const SyscallArgs& args) {
  ctx.count_syscall();
  switch (args.no) {
    case Sys::kOpen:
      return do_open(ctx, proc, args.str, static_cast<os::OpenFlags>(ival(args, 0)),
                     static_cast<os::mode_t>(ival(args, 1)));
    case Sys::kClose: {
      const os::Errno e = proc.close_fd(static_cast<os::fd_t>(ival(args, 0)));
      return e == os::Errno::kOk ? success() : failure(e);
    }
    case Sys::kRead:
      return do_read(proc, args);
    case Sys::kWrite:
      return do_write(proc, args);
    case Sys::kSeek: {
      FdEntry* entry = proc.fd(static_cast<os::fd_t>(ival(args, 0)));
      if (entry == nullptr) return failure(os::Errno::kEBADF);
      auto* file = std::get_if<vfs::OpenFilePtr>(entry);
      if (file == nullptr) return failure(os::Errno::kEINVAL);
      auto off = (*file)->seek(ival(args, 1));
      if (!off) return failure(off.error());
      return success(*off);
    }
    case Sys::kStat: {
      auto st = ctx.fs().stat(args.str);
      if (!st) return failure(st.error());
      SyscallResult r = success();
      r.out_ints = {st->ino, st->is_dir ? 1ULL : 0ULL, st->mode, st->uid, st->gid, st->size};
      return r;
    }
    case Sys::kUnlink: {
      auto u = ctx.fs().unlink(args.str, proc.creds());
      return u ? success() : failure(u.error());
    }
    case Sys::kMkdir: {
      auto m = ctx.fs().mkdir(args.str, proc.creds(),
                              static_cast<os::mode_t>(ival(args, 0)));
      return m ? success() : failure(m.error());
    }

    case Sys::kGetuid: return success(proc.creds().ruid);
    case Sys::kGeteuid: return success(proc.creds().euid);
    case Sys::kGetgid: return success(proc.creds().rgid);
    case Sys::kGetegid: return success(proc.creds().egid);
    case Sys::kSetuid: {
      const os::Errno e = sys_setuid(proc.creds(), static_cast<os::uid_t>(ival(args, 0)));
      return e == os::Errno::kOk ? success() : failure(e);
    }
    case Sys::kSeteuid: {
      const os::Errno e = sys_seteuid(proc.creds(), static_cast<os::uid_t>(ival(args, 0)));
      return e == os::Errno::kOk ? success() : failure(e);
    }
    case Sys::kSetreuid: {
      const os::Errno e = sys_setreuid(proc.creds(), static_cast<os::uid_t>(ival(args, 0)),
                                       static_cast<os::uid_t>(ival(args, 1)));
      return e == os::Errno::kOk ? success() : failure(e);
    }
    case Sys::kSetresuid: {
      const os::Errno e = sys_setresuid(proc.creds(), static_cast<os::uid_t>(ival(args, 0)),
                                        static_cast<os::uid_t>(ival(args, 1)),
                                        static_cast<os::uid_t>(ival(args, 2)));
      return e == os::Errno::kOk ? success() : failure(e);
    }
    case Sys::kSetgid: {
      const os::Errno e = sys_setgid(proc.creds(), static_cast<os::gid_t>(ival(args, 0)));
      return e == os::Errno::kOk ? success() : failure(e);
    }
    case Sys::kSetegid: {
      const os::Errno e = sys_setegid(proc.creds(), static_cast<os::gid_t>(ival(args, 0)));
      return e == os::Errno::kOk ? success() : failure(e);
    }
    case Sys::kSetgroups: {
      std::vector<os::gid_t> groups;
      groups.reserve(args.ints.size());
      for (auto g : args.ints) groups.push_back(static_cast<os::gid_t>(g));
      const os::Errno e = sys_setgroups(proc.creds(), std::move(groups));
      return e == os::Errno::kOk ? success() : failure(e);
    }

    case Sys::kSocket: {
      auto sock = std::make_shared<SocketObj>();
      return success(static_cast<std::uint64_t>(proc.install_fd(FdEntry{std::move(sock)})));
    }
    case Sys::kBind: {
      FdEntry* entry = proc.fd(static_cast<os::fd_t>(ival(args, 0)));
      if (entry == nullptr) return failure(os::Errno::kEBADF);
      auto* sock = std::get_if<SocketPtr>(entry);
      if (sock == nullptr) return failure(os::Errno::kENOTSOCK);
      // Binding to port 0 and privileged ports (<1024) as non-root is refused,
      // matching POSIX; servers must bind before dropping privileges.
      const auto port = static_cast<std::uint16_t>(ival(args, 1));
      if (port < 1024 && !proc.creds().is_superuser()) return failure(os::Errno::kEACCES);
      const os::Errno e = ctx.hub().bind(port);
      if (e != os::Errno::kOk) return failure(e);
      (*sock)->state = SocketObj::State::kListening;
      (*sock)->port = port;
      return success();
    }
    case Sys::kListen: {
      FdEntry* entry = proc.fd(static_cast<os::fd_t>(ival(args, 0)));
      if (entry == nullptr) return failure(os::Errno::kEBADF);
      auto* sock = std::get_if<SocketPtr>(entry);
      if (sock == nullptr) return failure(os::Errno::kENOTSOCK);
      if ((*sock)->state != SocketObj::State::kListening) return failure(os::Errno::kEINVAL);
      return success();
    }
    case Sys::kAccept: {
      FdEntry* entry = proc.fd(static_cast<os::fd_t>(ival(args, 0)));
      if (entry == nullptr) return failure(os::Errno::kEBADF);
      auto* sock = std::get_if<SocketPtr>(entry);
      if (sock == nullptr) return failure(os::Errno::kENOTSOCK);
      if ((*sock)->state != SocketObj::State::kListening) return failure(os::Errno::kEINVAL);
      auto conn = ctx.hub().accept((*sock)->port);
      if (!conn) return failure(conn.error());
      auto new_sock = std::make_shared<SocketObj>();
      new_sock->state = SocketObj::State::kConnected;
      new_sock->conn = std::move(*conn);
      return success(static_cast<std::uint64_t>(proc.install_fd(FdEntry{std::move(new_sock)})));
    }

    case Sys::kGetpid: return success(static_cast<std::uint64_t>(proc.pid()));
    case Sys::kGettime: return success(ctx.read_clock());
    case Sys::kExit:
      proc.set_exited(static_cast<int>(ival(args, 0)));
      return success();
    case Sys::kPollEvent: {
      auto event = ctx.pop_event();
      SyscallResult r = success(event.has_value() ? 1 : 0);
      if (event) r.data = std::move(*event);
      return r;
    }

    // Detection syscalls (Table 2). In the plain kernel there is no peer
    // variant to compare with, so these degenerate to identity/evaluation —
    // the MVEE overrides their handling with cross-variant checks.
    case Sys::kUidValue: return success(ival(args, 0));
    case Sys::kCondChk: return success(ival(args, 0) != 0 ? 1 : 0);
    case Sys::kCcCmp:
      return success(cc_eval(static_cast<CcOp>(ival(args, 0)),
                             static_cast<os::uid_t>(ival(args, 1)),
                             static_cast<os::uid_t>(ival(args, 2)))
                         ? 1
                         : 0);
  }
  return failure(os::Errno::kENOSYS);
}

PlainKernel::PlainKernel(KernelContext& ctx, std::string process_name, os::Credentials creds)
    : ctx_(ctx), proc_(std::make_unique<Process>(1, std::move(process_name), std::move(creds))) {}

SyscallResult PlainKernel::syscall(const SyscallArgs& args) {
  return execute_syscall(ctx_, *proc_, args);
}

}  // namespace nv::vkernel
