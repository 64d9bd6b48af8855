// mini-httpd end to end: normal service, the Chen-style UID-corruption
// attack succeeding on the unprotected baseline, and the UID variation
// detecting it under the MVEE. Also reproduces the §4 error-log complication.
#include <gtest/gtest.h>

#include <thread>

#include "core/nvariant_system.h"
#include "guest/runners.h"
#include "httpd/client.h"
#include "httpd/mini_httpd.h"
#include "test_helpers.h"

namespace nv {
namespace {

using core::NVariantSystem;
using httpd::HttpResponse;
using httpd::MiniHttpd;
using httpd::ServerConfig;

constexpr std::uint16_t kPort = 8080;

/// The non-control-data attack payload: a User-Agent that overflows the
/// 256-byte header buffer and overwrites the stored worker UID with zero
/// bytes (canonical root in variant 0's encoding).
std::map<std::string, std::string> attack_headers(std::size_t buffer_size) {
  std::string agent(buffer_size, 'A');
  agent += std::string(4, '\0');  // overwrite the adjacent uid_t with 0
  return {{"User-Agent", agent}};
}

ServerConfig test_config(guest::UidOpsMode mode, std::uint32_t max_requests) {
  ServerConfig config;
  config.listen_port = kPort;
  config.uid_ops_mode = mode;
  config.max_requests = max_requests;
  return config;
}

void wait_for_bind(vkernel::SocketHub& hub) {
  ASSERT_TRUE(testing::wait_for_bind(hub, kPort));
}

// --- single-process baseline (no redundancy, no monitor) -------------------

struct PlainServer {
  vfs::FileSystem fs;
  vkernel::SocketHub hub;
  vkernel::KernelContext ctx{fs, hub};
  MiniHttpd server;
  std::thread thread;
  guest::PlainRunResult result;

  explicit PlainServer(const ServerConfig& config) {
    httpd::install_default_site(fs, config);
    thread = std::thread([this] { result = guest::run_plain(ctx, server); });
    wait_for_bind(hub);
  }
  ~PlainServer() {
    hub.shutdown();
    if (thread.joinable()) thread.join();
  }
};

TEST(MiniHttpdPlain, ServesStaticPages) {
  PlainServer s(test_config(guest::UidOpsMode::kPlain, 3));
  EXPECT_EQ(httpd::http_get(s.hub, kPort, "/").status, 200);
  EXPECT_EQ(httpd::http_get(s.hub, kPort, "/page1.html").status, 200);
  EXPECT_EQ(httpd::http_get(s.hub, kPort, "/missing.html").status, 404);
}

TEST(MiniHttpdPlain, DropsPrivilegesForRequestHandling) {
  PlainServer s(test_config(guest::UidOpsMode::kPlain, 1));
  const HttpResponse who = httpd::http_get(s.hub, kPort, "/whoami");
  EXPECT_EQ(who.status, 200);
  EXPECT_EQ(who.body, "user\n");
}

TEST(MiniHttpdPlain, ServesProtectedResourceViaEscalation) {
  PlainServer s(test_config(guest::UidOpsMode::kPlain, 2));
  const HttpResponse secret = httpd::http_get(s.hub, kPort, "/secret/key.txt");
  EXPECT_EQ(secret.status, 200);
  EXPECT_EQ(secret.body, "TOP-SECRET-KEY\n");
  // After the protected request the server is back to the worker identity.
  EXPECT_EQ(httpd::http_get(s.hub, kPort, "/whoami").body, "user\n");
}

TEST(MiniHttpdPlain, UidCorruptionAttackSucceedsWithoutDefense) {
  PlainServer s(test_config(guest::UidOpsMode::kPlain, 3));
  // 1. Overflow the header buffer, overwriting the stored worker UID with 0.
  EXPECT_EQ(httpd::http_get(s.hub, kPort, "/", attack_headers(256)).status, 200);
  // 2. A protected request escalates, then "restores" the corrupted UID —
  //    which is now root. The server keeps running with full privileges.
  EXPECT_EQ(httpd::http_get(s.hub, kPort, "/secret/key.txt").status, 200);
  // 3. Proof of compromise: the worker now answers as root.
  EXPECT_EQ(httpd::http_get(s.hub, kPort, "/whoami").body, "root\n");
}

// --- 2-variant MVEE with the UID variation ---------------------------------

struct NvServer {
  std::unique_ptr<NVariantSystem> system;
  MiniHttpd server;

  explicit NvServer(const ServerConfig& config) {
    system = testing::build_system(2, {"uid-xor"});
    httpd::install_default_site(system->fs(), config);
    guest::launch_nvariant(*system, server);
    wait_for_bind(system->hub());
  }
  core::RunReport finish() { return system->stop(); }
};

TEST(MiniHttpdNVariant, ServesNormalTrafficWithoutAlarms) {
  NvServer s(test_config(guest::UidOpsMode::kSyscallChecked, 4));
  EXPECT_EQ(httpd::http_get(s.system->hub(), kPort, "/").status, 200);
  EXPECT_EQ(httpd::http_get(s.system->hub(), kPort, "/page2.html").status, 200);
  EXPECT_EQ(httpd::http_get(s.system->hub(), kPort, "/whoami").body, "user\n");
  EXPECT_EQ(httpd::http_get(s.system->hub(), kPort, "/secret/key.txt").body,
            "TOP-SECRET-KEY\n");
  const auto report = s.finish();
  EXPECT_FALSE(report.attack_detected);
  EXPECT_TRUE(report.completed);
}

TEST(MiniHttpdNVariant, UidCorruptionAttackIsDetectedAtUidValue) {
  NvServer s(test_config(guest::UidOpsMode::kSyscallChecked, 10));
  // The same two attack requests that compromised the plain server.
  (void)httpd::http_get(s.system->hub(), kPort, "/", attack_headers(256));
  (void)httpd::http_get(s.system->hub(), kPort, "/secret/key.txt");
  const auto report = s.finish();
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  // Immediate detection at the uid_value() exposure point (§3.5).
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kUidCheckFailed);
}

TEST(MiniHttpdNVariant, WithoutDetectionSyscallsAttackCaughtAtSeteuid) {
  NvServer s(test_config(guest::UidOpsMode::kPlain, 10));
  (void)httpd::http_get(s.system->hub(), kPort, "/", attack_headers(256));
  (void)httpd::http_get(s.system->hub(), kPort, "/secret/key.txt");
  const auto report = s.finish();
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  // Lower precision (§5): the alarm fires at the seteuid syscall boundary.
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kArgumentMismatch);
}

TEST(MiniHttpdNVariant, AttackNeverEscalatesTheWorker) {
  NvServer s(test_config(guest::UidOpsMode::kSyscallChecked, 10));
  (void)httpd::http_get(s.system->hub(), kPort, "/", attack_headers(256));
  const HttpResponse secret = httpd::http_get(s.system->hub(), kPort, "/secret/key.txt");
  // The system alarms during the protected request; the worker never reaches
  // a state where /whoami would say root.
  const HttpResponse who = httpd::http_get(s.system->hub(), kPort, "/whoami");
  EXPECT_NE(who.body, "root\n");
  (void)secret;
  const auto report = s.finish();
  EXPECT_TRUE(report.attack_detected);
}

TEST(MiniHttpdNVariant, LoggingUidsCausesBenignDivergence) {
  ServerConfig config = test_config(guest::UidOpsMode::kSyscallChecked, 4);
  config.log_uid_in_errors = true;  // the §4 complication, re-enabled
  NvServer s(config);
  // A 404 triggers an error-log line that embeds the per-variant euid.
  (void)httpd::http_get(s.system->hub(), kPort, "/missing.html");
  const auto report = s.finish();
  EXPECT_TRUE(report.attack_detected);  // false alarm, exactly as the paper found
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kArgumentMismatch);
}

TEST(MiniHttpdNVariant, UserSpaceReversedModeServesCorrectly) {
  NvServer s(test_config(guest::UidOpsMode::kUserSpaceReversed, 3));
  EXPECT_EQ(httpd::http_get(s.system->hub(), kPort, "/").status, 200);
  EXPECT_EQ(httpd::http_get(s.system->hub(), kPort, "/whoami").body, "user\n");
  EXPECT_EQ(httpd::http_get(s.system->hub(), kPort, "/secret/key.txt").status, 200);
  const auto report = s.finish();
  EXPECT_FALSE(report.attack_detected);
}

TEST(MiniHttpdNVariant, ErrorLogIsWrittenOnceNotTwice) {
  NvServer s(test_config(guest::UidOpsMode::kSyscallChecked, 2));
  (void)httpd::http_get(s.system->hub(), kPort, "/missing.html");
  (void)httpd::http_get(s.system->hub(), kPort, "/");
  const auto report = s.finish();
  EXPECT_FALSE(report.attack_detected);
  auto log = s.system->fs().read_file("/var/log/httpd-error.log", os::Credentials::root());
  ASSERT_TRUE(log.has_value());
  // One 404 -> exactly one log line (output performed once across variants).
  std::size_t lines = 0;
  for (char c : *log) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1u);
}

}  // namespace
}  // namespace nv
