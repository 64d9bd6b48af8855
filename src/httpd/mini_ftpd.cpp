#include "httpd/mini_ftpd.h"

#include "util/strings.h"

namespace nv::httpd {

using guest::GuestContext;
using guest::UidOps;

namespace {

/// Read one CRLF/LF-terminated line from the connection.
std::string read_line(GuestContext& ctx, os::fd_t conn) {
  std::string line;
  while (true) {
    auto chunk = ctx.read(conn, 1);
    if (!chunk || chunk->empty()) return line;  // EOF/interrupt
    if ((*chunk)[0] == '\n') return line;
    if ((*chunk)[0] != '\r') line += (*chunk)[0];
    if (line.size() > 4096) return line;  // refuse absurd lines
  }
}

void reply(GuestContext& ctx, os::fd_t conn, std::string_view text) {
  (void)ctx.write(conn, std::string(text) + "\r\n");
}

/// Look up a user's password in the secrets file ("name:password" lines).
std::optional<std::string> password_for(GuestContext& ctx, const std::string& path,
                                        const std::string& user) {
  auto content = ctx.read_file(path);
  if (!content) return std::nullopt;
  for (util::SplitCursor lines(*content, '\n'); !lines.done();) {
    util::SplitCursor fields(lines.next(), ':');
    const std::string_view name = fields.next();
    if (!fields.done() && name == user) return std::string(fields.next());
  }
  return std::nullopt;
}

}  // namespace

void MiniFtpd::run(GuestContext& ctx) {
  auto listen_fd = ctx.socket();
  if (!listen_fd) ctx.exit(2);
  if (ctx.bind(*listen_fd, config_.listen_port) != os::Errno::kOk) ctx.exit(2);
  if (ctx.listen(*listen_fd) != os::Errno::kOk) ctx.exit(2);

  UidOps ops(ctx, config_.uid_ops_mode);

  // Per-daemon command buffer and session-UID slot: buffer first, UID right
  // after it — the wu-ftpd-style layout the SITE copy can overrun.
  Session session;
  session.buffer_addr = ctx.alloc(config_.command_buffer_size + 4);
  session.uid_addr = session.buffer_addr + config_.command_buffer_size;

  std::uint32_t sessions = 0;
  while (true) {
    auto conn = ctx.accept(*listen_fd);
    if (!conn) break;  // interrupted
    serve_session(ctx, ops, *conn, session);
    (void)ctx.close(*conn);
    ++sessions;
    if (config_.max_sessions != 0 && sessions >= config_.max_sessions) break;
  }
  (void)ctx.close(*listen_fd);
}

void MiniFtpd::serve_session(GuestContext& ctx, UidOps& ops, os::fd_t conn, Session& session) {
  reply(ctx, conn, "220 mini-ftpd ready");
  while (true) {
    const std::string line = read_line(ctx, conn);
    if (line.empty()) return;  // disconnect
    if (!handle_command(ctx, ops, conn, session, line)) return;
  }
}

bool MiniFtpd::handle_command(GuestContext& ctx, UidOps& ops, os::fd_t conn, Session& session,
                              const std::string& line) {
  std::string_view rest = line;
  const std::string_view verb = util::pop_token(rest);
  if (verb.empty()) return true;
  const std::string_view arg = util::trim(rest);  // the rest of the line after the verb

  if (util::iequals(verb, "user")) {
    const auto pw = ctx.getpwnam(arg);
    if (!pw) {
      reply(ctx, conn, "530 unknown user");
      return true;
    }
    session.pending_user = arg;
    reply(ctx, conn, "331 need password");
    return true;
  }

  if (util::iequals(verb, "pass")) {
    const auto expected = password_for(ctx, config_.secrets_path, session.pending_user);
    const auto pw = ctx.getpwnam(session.pending_user);
    if (!expected || !pw || *expected != arg) {
      reply(ctx, conn, "530 denied");
      return true;
    }
    // The wu-ftpd pattern: remember the session identity in memory and
    // switch effective UID to it (saved-root retained for later sessions).
    ctx.memory().store_u32(session.uid_addr, pw->uid);
    if (ctx.setegid(pw->gid) != os::Errno::kOk ||
        ctx.seteuid(pw->uid) != os::Errno::kOk) {
      reply(ctx, conn, "530 cannot switch identity");
      return true;
    }
    session.authenticated = true;
    reply(ctx, conn, "230 logged in");
    return true;
  }

  if (util::iequals(verb, "retr")) {
    if (!session.authenticated) {
      reply(ctx, conn, "530 not logged in");
      return true;
    }
    auto content = ctx.read_file(arg);
    if (!content) {
      reply(ctx, conn, "550 denied");
      return true;
    }
    reply(ctx, conn, "150 " + *content);
    return true;
  }

  if (util::iequals(verb, "site")) {
    // THE VULNERABILITY (wu-ftpd SITE EXEC analog): unbounded copy of the
    // argument into the fixed buffer that sits just below the session UID.
    for (std::size_t i = 0; i < arg.size(); ++i) {
      ctx.memory().store_u8(session.buffer_addr + i, static_cast<std::uint8_t>(arg[i]));
    }
    reply(ctx, conn, "200 site ok");
    return true;
  }

  if (util::iequals(verb, "rein")) {
    // Reinitialize: escalate, then re-install the stored session UID — the
    // value the attacker may have corrupted. check_value() is the §3.5
    // uid_value exposure; the seteuid boundary is the fallback detector.
    if (ctx.seteuid(ctx.uid_const(os::kRootUid)) != os::Errno::kOk) {
      reply(ctx, conn, "421 cannot reinitialize");
      return true;
    }
    os::uid_t session_uid = ctx.memory().load_u32(session.uid_addr);
    session_uid = ops.check_value(session_uid);
    (void)ctx.seteuid(session_uid);
    reply(ctx, conn, "220 reinitialized");
    return true;
  }

  if (util::iequals(verb, "whoami")) {
    reply(ctx, conn, ops.is_root(ctx.geteuid()) ? "211 root" : "211 user");
    return true;
  }

  if (util::iequals(verb, "quit")) {
    reply(ctx, conn, "221 bye");
    return false;
  }

  reply(ctx, conn, "502 not implemented");
  return true;
}

void install_ftpd_site(vfs::FileSystem& fs, const FtpdConfig& config) {
  const os::Credentials root = os::Credentials::root();
  (void)fs.mkdir_p("/etc", root);
  (void)fs.mkdir_p("/home/alice", root);
  (void)fs.mkdir_p("/home/bob", root);
  (void)fs.write_file("/etc/passwd",
                      "root:x:0:0:root:/root:/bin/sh\n"
                      "alice:x:1000:1000:Alice:/home/alice:/bin/sh\n"
                      "bob:x:1001:1001:Bob:/home/bob:/bin/sh\n",
                      root, 0644);
  (void)fs.write_file("/etc/group", "root:x:0:\nalice:x:1000:\nbob:x:1001:\n", root, 0644);
  (void)fs.write_file(config.secrets_path, "alice:wonderland\nbob:builder\n", root, 0644);
  (void)fs.write_file("/home/alice/notes.txt", "alice's notes\n", root, 0644);
  (void)fs.chown("/home/alice/notes.txt", 1000, 1000, root);
  (void)fs.chmod("/home/alice/notes.txt", 0600, root);
  (void)fs.write_file("/home/bob/todo.txt", "bob's todo\n", root, 0644);
  (void)fs.chown("/home/bob/todo.txt", 1001, 1001, root);
  (void)fs.chmod("/home/bob/todo.txt", 0600, root);
  (void)fs.write_file("/etc/master.key", "ROOT-ONLY-KEY\n", root, 0600);
}

}  // namespace nv::httpd
