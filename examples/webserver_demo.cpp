// The §4 case study end to end: mini-Apache under a 2-variant UID-variation
// MVEE, serving real (simulated) HTTP, then hit with Chen et al.'s
// non-control-data attack — first against an unprotected single process
// (root shell for the attacker), then against the N-variant system (alarm).
//
//   $ ./examples/webserver_demo
#include <chrono>
#include <cstdio>
#include <thread>

#include "core/nvariant_system.h"
#include "guest/runners.h"
#include "httpd/client.h"
#include "httpd/mini_httpd.h"
#include "util/strings.h"
#include "variants/registry.h"

using namespace nv;  // NOLINT

namespace {

constexpr std::uint16_t kPort = 8080;

std::map<std::string, std::string> attack_headers() {
  std::string agent(256, 'A');     // fill the 256-byte header buffer...
  agent += std::string(4, '\0');   // ...and overwrite the adjacent worker UID with 0
  return {{"User-Agent", agent}};
}

void wait_for_bind(vkernel::SocketHub& hub) {
  (void)hub.wait_bound(kPort, std::chrono::steady_clock::now() + std::chrono::seconds(30));
}

void drive_attack(vkernel::SocketHub& hub, const char* label) {
  std::printf("[%s] GET /            -> %d\n", label, httpd::http_get(hub, kPort, "/").status);
  std::printf("[%s] GET / + overflow User-Agent (overwrites stored worker UID with 0)\n",
              label);
  (void)httpd::http_get(hub, kPort, "/", attack_headers());
  std::printf("[%s] GET /secret/key.txt (escalate; restore from CORRUPTED uid)\n", label);
  const auto secret = httpd::http_get(hub, kPort, "/secret/key.txt");
  std::printf("[%s]   -> status %d\n", label, secret.status);
  const auto who = httpd::http_get(hub, kPort, "/whoami");
  const std::string identity =
      who.status > 0 ? std::string(util::trim(who.body)) : std::string("(no response)");
  std::printf("[%s] GET /whoami      -> \"%s\"\n", label, identity.c_str());
}

}  // namespace

int main() {
  std::printf("=== mini-Apache + UID corruption attack (Chen et al. pattern) ===\n\n");

  // Round 1: unprotected single process.
  std::printf("--- round 1: single process, no defense ---\n");
  {
    vfs::FileSystem fs;
    vkernel::SocketHub hub;
    vkernel::KernelContext ctx(fs, hub);
    httpd::ServerConfig config;
    config.max_requests = 5;
    config.uid_ops_mode = guest::UidOpsMode::kPlain;
    httpd::install_default_site(fs, config);
    httpd::MiniHttpd server;
    std::thread thread([&] { (void)guest::run_plain(ctx, server); });
    wait_for_bind(hub);
    drive_attack(hub, "plain");
    hub.shutdown();
    thread.join();
    std::printf("=> the worker now answers as ROOT: silent compromise.\n\n");
  }

  // Round 2: the same server, same attack, under the 2-variant UID variation.
  std::printf("--- round 2: 2-variant system, UID variation ---\n");
  {
    const auto system = core::NVariantSystem::Builder()
                            .variation(variants::make_builtin("uid-xor"))
                            .build();
    httpd::ServerConfig config;
    config.max_requests = 10;
    config.uid_ops_mode = guest::UidOpsMode::kSyscallChecked;
    httpd::install_default_site(system->fs(), config);
    httpd::MiniHttpd server;
    guest::launch_nvariant(*system, server);
    wait_for_bind(system->hub());
    drive_attack(system->hub(), "nvar ");
    const auto report = system->stop();
    std::printf("=> monitor verdict: %s\n",
                report.alarm ? report.alarm->describe().c_str() : "no alarm");
    std::printf("   the corrupted UID meant two different things in the two variants;\n"
                "   uid_value() exposed the divergence before seteuid installed it.\n");
    return report.attack_detected ? 0 : 1;
  }
}
