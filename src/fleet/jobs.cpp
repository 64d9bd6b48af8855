#include "fleet/jobs.h"

#include <utility>

#include "guest/runners.h"
#include "httpd/client.h"
#include "httpd/mini_httpd.h"

namespace nv::fleet::jobs {

namespace {

/// The privilege-churn guest: repeated drop / detection-check / restore.
class UidChurnGuest final : public guest::GuestProgram {
 public:
  explicit UidChurnGuest(unsigned rounds) : rounds_(rounds) {}

  [[nodiscard]] std::string_view name() const override { return "uid-churn"; }

  void run(guest::GuestContext& ctx) override {
    for (unsigned i = 0; i < rounds_; ++i) {
      const os::uid_t worker = ctx.uid_const(1000 + (i % 7));
      if (ctx.seteuid(worker) != os::Errno::kOk) ctx.exit(1);
      const os::uid_t euid = ctx.geteuid();
      (void)ctx.uid_value(euid);
      if (!ctx.cc(vkernel::CcOp::kNeq, euid, ctx.uid_const(0))) ctx.exit(2);
      if (ctx.seteuid(ctx.uid_const(0)) != os::Errno::kOk) ctx.exit(3);
    }
    ctx.exit(0);
  }

 private:
  unsigned rounds_;
};

}  // namespace

std::vector<HttpPlay> normal_browse(unsigned requests) {
  static const char* const kPages[] = {"/", "/page1.html", "/page2.html", "/whoami",
                                       "/secret/key.txt"};
  std::vector<HttpPlay> plays;
  plays.reserve(requests);
  for (unsigned i = 0; i < requests; ++i) {
    plays.push_back({kPages[i % (sizeof(kPages) / sizeof(kPages[0]))], {}});
  }
  return plays;
}

std::vector<HttpPlay> uid_smash_attack(std::uint32_t header_buffer_size) {
  std::string agent(header_buffer_size, 'A');  // fill the header buffer...
  agent += std::string(4, '\0');  // ...and smash the adjacent worker UID to 0
  return {
      {"/", {{"User-Agent", agent}}},  // plant the corrupted UID
      {"/secret/key.txt", {}},         // escalate, then restore the corrupted UID
      {"/whoami", {}},                 // would answer "root" on an undefended server
  };
}

FleetJob httpd_request_stream(httpd::ServerConfig config, std::vector<HttpPlay> plays) {
  return [config, plays = std::move(plays)](core::NVariantSystem& system) {
    httpd::install_default_site(system.fs(), config);
    httpd::MiniHttpd server;
    return guest::serve_nvariant(system, server, [&] {
      // False once the server can no longer bind: it exited, or an alarm
      // shut the hub down.
      if (!system.hub().wait_bound(config.listen_port)) return;
      for (const auto& play : plays) {
        if (system.monitor().triggered()) break;
        (void)httpd::http_get(system.hub(), config.listen_port, play.path, play.headers);
      }
    });
  };
}

std::vector<std::string> ftp_normal_session() {
  return {"USER alice", "PASS wonderland", "RETR /home/alice/notes.txt", "WHOAMI", "QUIT"};
}

std::vector<std::string> ftp_site_attack(std::uint32_t command_buffer_size) {
  std::string overrun(command_buffer_size, 'A');
  overrun += std::string(4, '\0');  // stored session UID <- canonical root
  return {"USER alice", "PASS wonderland", "SITE " + overrun, "REIN",
          "RETR /etc/master.key", "QUIT"};
}

FleetJob ftpd_command_stream(httpd::FtpdConfig config, std::vector<std::string> commands) {
  return [config, commands = std::move(commands)](core::NVariantSystem& system) {
    httpd::install_ftpd_site(system.fs(), config);
    httpd::MiniFtpd server(config);
    return guest::serve_nvariant(system, server, [&] {
      if (!system.hub().wait_bound(config.listen_port)) return;
      auto conn = system.hub().connect(config.listen_port);
      if (!conn) return;
      (void)conn->recv_until("\r\n");  // greeting
      for (const auto& command : commands) {
        if (system.monitor().triggered()) break;
        if (!conn->send(command + "\r\n")) break;
        auto reply = conn->recv_until("\r\n");
        if (!reply || reply->empty()) break;
      }
      conn->close();
    });
  };
}

FleetJob uid_churn(unsigned rounds) {
  return [rounds](core::NVariantSystem& system) {
    UidChurnGuest guest(rounds);
    return guest::run_nvariant(system, guest);
  };
}

}  // namespace nv::fleet::jobs
