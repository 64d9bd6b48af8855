// mini-ftpd: the wu-ftpd-style second case study. Auth, per-user access
// control, the SITE overrun -> REIN escalation attack on the unprotected
// baseline, and its detection under the UID variation. Also exercises the
// synchronized event-delivery extension.
#include <gtest/gtest.h>

#include <thread>

#include "core/nvariant_system.h"
#include "guest/runners.h"
#include "httpd/mini_ftpd.h"
#include "util/strings.h"
#include "test_helpers.h"

namespace nv {
namespace {

using httpd::FtpdConfig;
using httpd::MiniFtpd;

constexpr std::uint16_t kPort = 2121;

/// Simple scripted FTP client: sends each command, returns all replies.
std::vector<std::string> ftp_session(vkernel::SocketHub& hub,
                                     const std::vector<std::string>& commands) {
  std::vector<std::string> replies;
  auto conn = hub.connect(kPort);
  if (!conn) return replies;
  auto greeting = conn->recv_until("\r\n");
  if (greeting) replies.push_back(std::string(util::trim(*greeting)));
  for (const auto& command : commands) {
    if (!conn->send(command + "\r\n")) break;
    auto reply = conn->recv_until("\r\n");
    if (!reply || reply->empty()) break;
    replies.push_back(std::string(util::trim(*reply)));
  }
  conn->close();
  return replies;
}

/// A passwd with a user whose name occurs inside the verb "user".
constexpr std::string_view kPasswdWithUs =
    "alice:x:1000:1000:Alice:/home/alice:/bin/sh\n"
    "us:x:1002:1002:Us:/home/us:/bin/sh\n";

/// Sends USER us three ways, then QUIT, and expects the user found each
/// time: the argument is the rest of the line after the verb, even where its
/// text also occurs inside the verb.
void expect_user_us_accepted(vkernel::SocketHub& hub) {
  const auto replies = ftp_session(hub, {"user us", "USER us", "uSeR \t us  ", "QUIT"});
  ASSERT_EQ(replies.size(), 5u);
  EXPECT_EQ(replies[1], "331 need password");  // was "530 unknown user"
  EXPECT_EQ(replies[2], "331 need password");
  EXPECT_EQ(replies[3], "331 need password");
  EXPECT_EQ(replies[4], "221 bye");
}

std::string attack_site_arg(std::uint32_t buffer_size) {
  // Fill the buffer and overwrite the adjacent session UID with "0000"...
  // almost: the bytes must be non-space to survive tokenization, so the
  // attacker writes printable filler then uses a second, shorter trick: the
  // overrun value is the four NUL bytes appended below.
  std::string arg(buffer_size, 'A');
  arg += std::string(4, '\0');  // session_uid <- 0 (root) in raw bytes
  return arg;
}

void wait_for_bind(vkernel::SocketHub& hub) {
  ASSERT_TRUE(testing::wait_for_bind(hub, kPort));
}

// --- plain (unprotected) ----------------------------------------------------

struct PlainFtpd {
  vfs::FileSystem fs;
  vkernel::SocketHub hub;
  vkernel::KernelContext ctx{fs, hub};
  MiniFtpd server;
  std::thread thread;
  guest::PlainRunResult result;

  /// A non-empty `passwd` replaces the site's /etc/passwd.
  explicit PlainFtpd(FtpdConfig config, std::string_view passwd = {}) : server(config) {
    httpd::install_ftpd_site(fs, config);
    if (!passwd.empty()) (void)fs.write_file("/etc/passwd", passwd, os::Credentials::root());
    thread = std::thread([this] { result = guest::run_plain(ctx, server); });
    wait_for_bind(hub);
  }
  ~PlainFtpd() {
    hub.shutdown();
    if (thread.joinable()) thread.join();
  }
};

FtpdConfig plain_config(std::uint32_t sessions) {
  FtpdConfig config;
  config.uid_ops_mode = guest::UidOpsMode::kPlain;
  config.max_sessions = sessions;
  return config;
}

TEST(MiniFtpdPlain, LoginAndRetrOwnFile) {
  PlainFtpd s(plain_config(1));
  const auto replies = ftp_session(
      s.hub, {"USER alice", "PASS wonderland", "RETR /home/alice/notes.txt", "QUIT"});
  ASSERT_EQ(replies.size(), 5u);
  EXPECT_EQ(replies[1], "331 need password");
  EXPECT_EQ(replies[2], "230 logged in");
  EXPECT_EQ(replies[3], "150 alice's notes");
  EXPECT_EQ(replies[4], "221 bye");
}

TEST(MiniFtpdPlain, WrongPasswordRejected) {
  PlainFtpd s(plain_config(1));
  const auto replies = ftp_session(s.hub, {"USER alice", "PASS nope", "QUIT"});
  ASSERT_GE(replies.size(), 3u);
  EXPECT_EQ(replies[2], "530 denied");
}

TEST(MiniFtpdPlain, UnknownUserRejected) {
  PlainFtpd s(plain_config(1));
  const auto replies = ftp_session(s.hub, {"USER mallory", "QUIT"});
  ASSERT_GE(replies.size(), 2u);
  EXPECT_EQ(replies[1], "530 unknown user");
}

TEST(MiniFtpdPlain, CannotReadOtherUsersFiles) {
  PlainFtpd s(plain_config(1));
  const auto replies = ftp_session(
      s.hub, {"USER alice", "PASS wonderland", "RETR /home/bob/todo.txt", "QUIT"});
  ASSERT_GE(replies.size(), 4u);
  EXPECT_EQ(replies[3], "550 denied");
}

TEST(MiniFtpdPlain, CannotReadRootOnlyFile) {
  PlainFtpd s(plain_config(1));
  const auto replies =
      ftp_session(s.hub, {"USER alice", "PASS wonderland", "RETR /etc/master.key", "QUIT"});
  ASSERT_GE(replies.size(), 4u);
  EXPECT_EQ(replies[3], "550 denied");
}

TEST(MiniFtpdPlain, ArgumentIsTheRestOfTheLineAfterTheVerb) {
  PlainFtpd s(plain_config(1), kPasswdWithUs);
  expect_user_us_accepted(s.hub);
}

TEST(MiniFtpdPlain, SiteOverrunPlusReinEscalatesToRoot) {
  // The Chen et al. wu-ftpd attack, end to end, against the unprotected
  // daemon: corrupt the stored session UID, force a reinitialize, read a
  // root-only file.
  PlainFtpd s(plain_config(1));
  const auto replies = ftp_session(s.hub, {"USER alice", "PASS wonderland",
                                           "SITE " + attack_site_arg(128), "REIN", "WHOAMI",
                                           "RETR /etc/master.key", "QUIT"});
  ASSERT_EQ(replies.size(), 8u);
  EXPECT_EQ(replies[3], "200 site ok");
  EXPECT_EQ(replies[4], "220 reinitialized");
  EXPECT_EQ(replies[5], "211 root");                  // compromised
  EXPECT_EQ(replies[6], "150 ROOT-ONLY-KEY");       // proof: root-only data
}

// --- 2-variant UID variation -------------------------------------------------

struct NvFtpd {
  std::unique_ptr<core::NVariantSystem> system;
  MiniFtpd server;

  explicit NvFtpd(FtpdConfig config, std::string_view passwd = {}) : server(config) {
    system = testing::build_system(2, {"uid-xor"});
    httpd::install_ftpd_site(system->fs(), config);
    if (!passwd.empty()) {
      (void)system->fs().write_file("/etc/passwd", passwd, os::Credentials::root());
    }
    guest::launch_nvariant(*system, server);
    wait_for_bind(system->hub());
  }
  core::RunReport finish() { return system->stop(); }
};

FtpdConfig nv_config(std::uint32_t sessions) {
  FtpdConfig config;
  config.uid_ops_mode = guest::UidOpsMode::kSyscallChecked;
  config.max_sessions = sessions;
  return config;
}

TEST(MiniFtpdNVariant, NormalSessionWorksWithoutAlarms) {
  NvFtpd s(nv_config(1));
  const auto replies = ftp_session(
      s.system->hub(),
      {"USER alice", "PASS wonderland", "RETR /home/alice/notes.txt", "WHOAMI", "QUIT"});
  ASSERT_EQ(replies.size(), 6u);
  EXPECT_EQ(replies[2], "230 logged in");
  EXPECT_EQ(replies[3], "150 alice's notes");
  EXPECT_EQ(replies[4], "211 user");
  const auto report = s.finish();
  EXPECT_FALSE(report.attack_detected);
  EXPECT_TRUE(report.completed);
}

TEST(MiniFtpdNVariant, AccessControlIntactAcrossVariants) {
  NvFtpd s(nv_config(1));
  const auto replies = ftp_session(
      s.system->hub(), {"USER bob", "PASS builder", "RETR /home/alice/notes.txt",
                        "RETR /home/bob/todo.txt", "QUIT"});
  ASSERT_GE(replies.size(), 5u);
  EXPECT_EQ(replies[3], "550 denied");
  EXPECT_EQ(replies[4], "150 bob's todo");
  const auto report = s.finish();
  EXPECT_FALSE(report.attack_detected);
}

TEST(MiniFtpdNVariant, ArgumentIsTheRestOfTheLineAfterTheVerb) {
  NvFtpd s(nv_config(1), kPasswdWithUs);
  expect_user_us_accepted(s.system->hub());
  const auto report = s.finish();
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected) << (report.alarm ? report.alarm->describe() : "");
}

TEST(MiniFtpdNVariant, SiteReinAttackDetectedAtUidValue) {
  NvFtpd s(nv_config(2));
  const auto replies = ftp_session(s.system->hub(), {"USER alice", "PASS wonderland",
                                                     "SITE " + attack_site_arg(128), "REIN",
                                                     "RETR /etc/master.key", "QUIT"});
  // The overrun is silent; REIN's uid_value exposure kills the system before
  // the corrupted UID is installed, so the client never sees the key.
  bool leaked = false;
  for (const auto& reply : replies) leaked = leaked || reply.find("ROOT-ONLY-KEY") != std::string::npos;
  EXPECT_FALSE(leaked);
  const auto report = s.finish();
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kUidCheckFailed);
}

TEST(MiniFtpdNVariant, AttackWithoutDetectionSyscallsCaughtAtSeteuid) {
  FtpdConfig config = nv_config(2);
  config.uid_ops_mode = guest::UidOpsMode::kPlain;  // §5 lower-precision mode
  NvFtpd s(config);
  (void)ftp_session(s.system->hub(), {"USER alice", "PASS wonderland",
                                      "SITE " + attack_site_arg(128), "REIN", "QUIT"});
  const auto report = s.finish();
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kArgumentMismatch);
}

// --- synchronized event delivery (extension) ---------------------------------

TEST(EventDelivery, SynchronizedEventsDoNotDiverge) {
  const auto system_owner = testing::build_system();
  auto& system = *system_owner;
  // Queue events BEFORE launch; both variants must observe the identical
  // sequence at identical points (poll_event is an input-class syscall).
  system.kernel().push_event("reload-config");
  system.kernel().push_event("rotate-logs");
  testing::LambdaGuest guest([](guest::GuestContext& ctx) {
    std::vector<std::string> seen;
    while (auto event = ctx.poll_event()) seen.push_back(*event);
    EXPECT_EQ(seen, (std::vector<std::string>{"reload-config", "rotate-logs"}));
    // Event-dependent control flow stays equivalent across variants.
    (void)ctx.cond_chk(seen.size() == 2);
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.completed) << (report.alarm ? report.alarm->describe() : "");
  EXPECT_FALSE(report.attack_detected);
}

TEST(EventDelivery, PlainKernelPollsSameQueue) {
  vfs::FileSystem fs;
  vkernel::SocketHub hub;
  vkernel::KernelContext ctx(fs, hub);
  ctx.push_event("only-one");
  testing::LambdaGuest guest([](guest::GuestContext& g) {
    auto first = g.poll_event();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, "only-one");
    EXPECT_FALSE(g.poll_event().has_value());
    g.exit(0);
  });
  EXPECT_TRUE(guest::run_plain(ctx, guest).completed);
}

}  // namespace
}  // namespace nv
