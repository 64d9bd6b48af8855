#include "httpd/mini_httpd.h"

#include "util/strings.h"

namespace nv::httpd {

using guest::GuestContext;
using guest::UidOps;

namespace {

/// Read from `conn` until the end of the HTTP head or EOF.
std::string read_head(GuestContext& ctx, os::fd_t conn) {
  std::string head;
  while (head.find("\r\n\r\n") == std::string::npos) {
    auto chunk = ctx.read(conn, 4096);
    if (!chunk || chunk->empty()) break;
    head += *chunk;
    if (head.size() > (1u << 20)) break;  // refuse absurd heads
  }
  return head;
}

}  // namespace

void MiniHttpd::run(GuestContext& ctx) {
  ServerState state;

  auto conf_text = ctx.read_file(config_path_);
  if (!conf_text) ctx.exit(2);
  state.config = ServerConfig::parse(*conf_text);

  UidOps ops(ctx, state.config.uid_ops_mode);

  auto log_fd = ctx.open(state.config.error_log,
                         os::OpenFlags::kWrite | os::OpenFlags::kCreate | os::OpenFlags::kAppend,
                         0640);
  if (!log_fd) ctx.exit(2);
  state.log_fd = *log_fd;

  // Resolve worker identity from the (possibly unshared) passwd/group files.
  const auto pw = ctx.getpwnam(state.config.user);
  const auto gr = ctx.getgrnam(state.config.group);
  if (!pw || !gr) {
    log_error(ctx, state, "unknown User/Group in configuration");
    ctx.exit(2);
  }
  state.worker_uid = pw->uid;  // variant representation (diversified file)
  state.worker_gid = gr->gid;

  // Network setup while still root (privileged port semantics).
  auto listen_fd = ctx.socket();
  if (!listen_fd) ctx.exit(2);
  state.listen_fd = *listen_fd;
  if (ctx.bind(state.listen_fd, state.config.listen_port) != os::Errno::kOk) {
    log_error(ctx, state, "bind failed");
    ctx.exit(2);
  }
  if (ctx.listen(state.listen_fd) != os::Errno::kOk) ctx.exit(2);

  // The vulnerable layout: header buffer immediately followed by the stored
  // worker UID that privilege restoration reads back.
  state.buffer_addr = ctx.alloc(state.config.header_buffer_size + 4);
  state.uid_addr = state.buffer_addr + state.config.header_buffer_size;
  ctx.memory().store_u32(state.uid_addr, state.worker_uid);

  // Drop privileges for request handling. Saved UID stays root so the
  // protected-resource path can escalate (the Apache/wu-ftpd pattern that
  // Chen et al.'s non-control-data attack exploits).
  if (ctx.setgroups({state.worker_gid}) != os::Errno::kOk ||
      ctx.setegid(state.worker_gid) != os::Errno::kOk ||
      ctx.seteuid(state.worker_uid) != os::Errno::kOk) {
    log_error(ctx, state, "privilege drop failed");
    ctx.exit(2);
  }

  while (true) {
    auto conn = ctx.accept(state.listen_fd);
    if (!conn) break;  // EINTR on shutdown
    handle_connection(ctx, ops, state, *conn);
    (void)ctx.close(*conn);
    ++state.requests_served;
    if (state.config.max_requests != 0 && state.requests_served >= state.config.max_requests) {
      break;
    }
  }

  (void)ctx.close(state.listen_fd);
  (void)ctx.close(state.log_fd);
}

void MiniHttpd::handle_connection(GuestContext& ctx, UidOps& ops, ServerState& state,
                                  os::fd_t conn) {
  const std::string head = read_head(ctx, conn);
  const auto request = parse_request(head);
  if (!request || request->method != "GET") {
    (void)ctx.write(conn, format_response(400, "bad request\n"));
    log_error(ctx, state, "malformed request");
    return;
  }

  // THE VULNERABILITY: copy the User-Agent into the fixed-size simulated-
  // memory buffer without a bounds check. A longer value runs over the
  // stored worker UID at buffer_addr + header_buffer_size.
  const std::string agent = request->header("user-agent");
  for (std::size_t i = 0; i < agent.size(); ++i) {
    ctx.memory().store_u8(state.buffer_addr + i, static_cast<std::uint8_t>(agent[i]));
  }

  serve_request(ctx, ops, state, conn, *request);
}

void MiniHttpd::serve_request(GuestContext& ctx, UidOps& ops, ServerState& state, os::fd_t conn,
                              const HttpRequest& request) {
  if (request.path == "/whoami") {
    // Compare — never print — the UID (printing raw UIDs diverges across
    // variants; see the error-log discussion in §4).
    const bool root = ops.is_root(ctx.geteuid());
    (void)ctx.write(conn, format_response(200, root ? "root\n" : "user\n"));
    return;
  }

  if (request.path.starts_with(state.config.protected_prefix)) {
    serve_protected(ctx, ops, state, conn, request);
    return;
  }

  std::string path = state.config.document_root + request.path;
  if (request.path == "/") path = state.config.document_root + "/index.html";
  auto content = ctx.read_file(path);
  if (!content) {
    (void)ctx.write(conn, format_response(404, "not found\n"));
    log_error(ctx, state, "file not found: " + request.path);
    return;
  }
  (void)ctx.write(conn, format_response(200, *content, "text/html"));
}

void MiniHttpd::serve_protected(GuestContext& ctx, UidOps& ops, ServerState& state, os::fd_t conn,
                                const HttpRequest& request) {
  // Escalate to root for the protected resource.
  if (ctx.seteuid(ctx.uid_const(os::kRootUid)) != os::Errno::kOk) {
    (void)ctx.write(conn, format_response(500, "escalation failed\n"));
    log_error(ctx, state, "seteuid(root) failed");
    return;
  }

  std::string path = state.config.document_root + request.path;
  auto content = ctx.read_file(path);

  // Restore the worker UID from simulated memory — the value the attacker
  // may have corrupted. check_value() is the uid_value() exposure point
  // (§3.5): under the UID variation, a corrupted-but-identical value has
  // different meanings per variant and the monitor raises an alarm here,
  // BEFORE the corrupted UID is installed.
  os::uid_t restore_uid = ctx.memory().load_u32(state.uid_addr);
  restore_uid = ops.check_value(restore_uid);
  if (ctx.seteuid(restore_uid) != os::Errno::kOk) {
    log_error(ctx, state, "privilege restore failed");
    (void)ctx.write(conn, format_response(500, "restore failed\n"));
    return;
  }

  if (!content) {
    (void)ctx.write(conn, format_response(404, "not found\n"));
    log_error(ctx, state, "protected file missing: " + request.path);
    return;
  }
  (void)ctx.write(conn, format_response(200, *content, "text/plain"));
}

void MiniHttpd::log_error(GuestContext& ctx, ServerState& state, std::string_view message) {
  if (state.log_fd < 0) return;
  std::string line = "[error] ";
  line += message;
  if (state.config.log_uid_in_errors) {
    // The §4 complication, left in deliberately as a configuration option:
    // the numeric euid differs across variants, so writing it to the shared
    // log file diverges and the monitor (correctly, by its rules) alarms.
    line += util::format(" (euid=%u)", ctx.geteuid());
  }
  line += "\n";
  (void)ctx.write(state.log_fd, line);
}

ServerConfig install_default_site(vfs::FileSystem& fs, const ServerConfig& config) {
  const os::Credentials root = os::Credentials::root();
  (void)fs.mkdir_p("/etc", root);
  (void)fs.mkdir_p("/var/log", root);
  (void)fs.mkdir_p(config.document_root, root);

  (void)fs.write_file("/etc/passwd",
                      "root:x:0:0:root:/root:/bin/sh\n"
                      "daemon:x:1:1:daemon:/usr/sbin:/usr/sbin/nologin\n"
                      "www:x:33:33:www-data:/var/www:/usr/sbin/nologin\n"
                      "alice:x:1000:1000:Alice:/home/alice:/bin/sh\n"
                      "bob:x:1001:1001:Bob:/home/bob:/bin/sh\n",
                      root, 0644);
  (void)fs.write_file("/etc/group",
                      "root:x:0:\n"
                      "daemon:x:1:\n"
                      "www:x:33:\n"
                      "users:x:100:alice,bob\n",
                      root, 0644);
  (void)fs.write_file("/etc/httpd.conf", config.serialize(), root, 0644);

  (void)fs.write_file(config.document_root + "/index.html",
                      "<html><body>It works!</body></html>\n", root, 0644);
  (void)fs.write_file(config.document_root + "/page1.html",
                      "<html><body>page one</body></html>\n", root, 0644);
  (void)fs.write_file(config.document_root + "/page2.html",
                      "<html><body>page two</body></html>\n", root, 0644);
  // Protected resource: root-only, readable solely while escalated.
  (void)fs.mkdir_p(config.document_root + config.protected_prefix, root);
  (void)fs.write_file(config.document_root + config.protected_prefix + "/key.txt",
                      "TOP-SECRET-KEY\n", root, 0600);
  return config;
}

}  // namespace nv::httpd
