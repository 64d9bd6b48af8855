// mini-ftpd under attack: the wu-ftpd SITE-overrun / REIN-escalation pattern
// from Chen et al. — silent root on the unprotected daemon, immediate alarm
// under the 2-variant UID variation.
//
//   $ ./examples/ftp_demo
#include <chrono>
#include <cstdio>
#include <thread>

#include "core/nvariant_system.h"
#include "guest/runners.h"
#include "httpd/mini_ftpd.h"
#include "util/strings.h"
#include "variants/registry.h"

using namespace nv;  // NOLINT

namespace {

constexpr std::uint16_t kPort = 2121;

void session(vkernel::SocketHub& hub, const char* label,
             const std::vector<std::string>& commands) {
  auto conn = hub.connect(kPort);
  if (!conn) {
    std::printf("[%s] connection refused (system already halted)\n", label);
    return;
  }
  auto greeting = conn->recv_until("\r\n");
  if (greeting) std::printf("[%s] S: %s\n", label, std::string(util::trim(*greeting)).c_str());
  for (const auto& command : commands) {
    const std::string shown =
        command.size() > 40 ? command.substr(0, 37) + "..." : command;
    std::printf("[%s] C: %s\n", label, shown.c_str());
    if (!conn->send(command + "\r\n")) break;
    auto reply = conn->recv_until("\r\n");
    if (!reply || reply->empty()) {
      std::printf("[%s] S: (connection severed)\n", label);
      break;
    }
    std::printf("[%s] S: %s\n", label, std::string(util::trim(*reply)).c_str());
  }
  conn->close();
}

std::vector<std::string> attack_script() {
  std::string overrun(128, 'A');
  overrun += std::string(4, '\0');  // overwrite session UID with 0 (root)
  return {"USER alice", "PASS wonderland", "SITE " + overrun,
          "REIN",       "WHOAMI",          "RETR /etc/master.key"};
}

}  // namespace

int main() {
  std::printf("=== mini-ftpd: the wu-ftpd non-control-data attack (Chen et al.) ===\n\n");

  std::printf("--- unprotected daemon ---\n");
  {
    vfs::FileSystem fs;
    vkernel::SocketHub hub;
    vkernel::KernelContext ctx(fs, hub);
    httpd::FtpdConfig config;
    config.uid_ops_mode = guest::UidOpsMode::kPlain;
    config.max_sessions = 1;
    httpd::install_ftpd_site(fs, config);
    httpd::MiniFtpd server(config);
    std::thread thread([&] { (void)guest::run_plain(ctx, server); });
    (void)hub.wait_bound(kPort, std::chrono::steady_clock::now() + std::chrono::seconds(30));
    session(hub, "plain", attack_script());
    hub.shutdown();
    thread.join();
    std::printf("=> WHOAMI says root and the root-only key leaked: silent compromise.\n\n");
  }

  std::printf("--- 2-variant UID variation ---\n");
  {
    const auto system = core::NVariantSystem::Builder()
                            .variation(variants::make_builtin("uid-xor"))
                            .build();
    httpd::FtpdConfig config;
    config.max_sessions = 2;
    httpd::install_ftpd_site(system->fs(), config);
    httpd::MiniFtpd server(config);
    guest::launch_nvariant(*system, server);
    (void)system->hub().wait_bound(kPort,
                                   std::chrono::steady_clock::now() + std::chrono::seconds(30));
    session(system->hub(), "nvar ", attack_script());
    const auto report = system->stop();
    std::printf("=> monitor verdict: %s\n",
                report.alarm ? report.alarm->describe().c_str() : "no alarm");
    return report.attack_detected ? 0 : 1;
  }
}
