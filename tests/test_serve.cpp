// Server mode on the caller's thread (NVariantSystem::serve(): the client is
// one more fiber beside the variants) against server mode on a session
// thread (launch() + stop(), the client on the test's thread): the same plays
// give the same responses and the same run report, and so does the fleet job
// built on serve().
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fleet/jobs.h"
#include "guest/runners.h"
#include "httpd/client.h"
#include "httpd/mini_ftpd.h"
#include "httpd/mini_httpd.h"
#include "test_helpers.h"

namespace nv {
namespace {

/// What the client saw, one entry per response or reply, and the run's report.
struct Served {
  std::vector<std::string> responses;
  core::RunReport report;
};

std::unique_ptr<core::NVariantSystem> uid_system() {
  return testing::build_system(2, {"uid-xor"});
}

void expect_same_report(const core::RunReport& a, const core::RunReport& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.attack_detected, b.attack_detected);
  ASSERT_EQ(a.alarm.has_value(), b.alarm.has_value());
  if (a.alarm) {
    EXPECT_EQ(a.alarm->kind, b.alarm->kind);
  }
  EXPECT_EQ(a.exit_codes, b.exit_codes);
  EXPECT_EQ(a.syscall_rounds, b.syscall_rounds);
  EXPECT_EQ(a.syscall_batches, b.syscall_batches);
}

// --- httpd ---------------------------------------------------------------------

/// The client of fleet::jobs::httpd_request_stream, recording each response.
void browse(core::NVariantSystem& system, const httpd::ServerConfig& config,
            const std::vector<fleet::jobs::HttpPlay>& plays, std::vector<std::string>& seen) {
  for (const auto& play : plays) {
    if (system.monitor().triggered()) break;
    const auto response =
        httpd::http_get(system.hub(), config.listen_port, play.path, play.headers);
    seen.push_back(std::to_string(response.status) + " " + response.body);
  }
}

Served serve_httpd(const std::vector<fleet::jobs::HttpPlay>& plays) {
  const auto system = uid_system();
  const httpd::ServerConfig config;
  httpd::install_default_site(system->fs(), config);
  httpd::MiniHttpd server;
  Served served;
  served.report = guest::serve_nvariant(*system, server, [&] {
    if (system->hub().wait_bound(config.listen_port)) {
      browse(*system, config, plays, served.responses);
    }
  });
  return served;
}

Served launch_httpd(const std::vector<fleet::jobs::HttpPlay>& plays) {
  const auto system = uid_system();
  const httpd::ServerConfig config;
  httpd::install_default_site(system->fs(), config);
  httpd::MiniHttpd server;
  guest::launch_nvariant(*system, server);
  Served served;
  if (testing::wait_for_bind(system->hub(), config.listen_port)) {
    browse(*system, config, plays, served.responses);
  }
  served.report = system->stop();
  return served;
}

core::RunReport httpd_job(std::vector<fleet::jobs::HttpPlay> plays) {
  const auto system = uid_system();
  return fleet::jobs::httpd_request_stream({}, std::move(plays))(*system);
}

TEST(ServeEquivalence, NormalBrowse) {
  const auto plays = fleet::jobs::normal_browse(5);
  const Served served = serve_httpd(plays);
  const Served launched = launch_httpd(plays);
  EXPECT_EQ(served.responses.size(), 5u);
  EXPECT_EQ(served.responses, launched.responses);
  EXPECT_TRUE(served.report.completed);
  expect_same_report(served.report, launched.report);
  expect_same_report(httpd_job(plays), launched.report);
}

TEST(ServeEquivalence, UidSmashAttack) {
  const auto plays = fleet::jobs::uid_smash_attack();
  const Served served = serve_httpd(plays);
  const Served launched = launch_httpd(plays);
  EXPECT_EQ(served.responses, launched.responses);
  EXPECT_TRUE(served.report.attack_detected);
  expect_same_report(served.report, launched.report);
  expect_same_report(httpd_job(plays), launched.report);
}

// --- ftpd ----------------------------------------------------------------------

/// The client of fleet::jobs::ftpd_command_stream, recording each reply.
void converse(core::NVariantSystem& system, const httpd::FtpdConfig& config,
              const std::vector<std::string>& commands, std::vector<std::string>& seen) {
  auto conn = system.hub().connect(config.listen_port);
  if (!conn) return;
  auto greeting = conn->recv_until("\r\n");
  if (greeting) seen.push_back(*greeting);
  for (const auto& command : commands) {
    if (system.monitor().triggered()) break;
    if (!conn->send(command + "\r\n")) break;
    auto reply = conn->recv_until("\r\n");
    if (!reply || reply->empty()) break;
    seen.push_back(*reply);
  }
  conn->close();
}

Served serve_ftpd(const std::vector<std::string>& commands) {
  const auto system = uid_system();
  const httpd::FtpdConfig config;
  httpd::install_ftpd_site(system->fs(), config);
  httpd::MiniFtpd server(config);
  Served served;
  served.report = guest::serve_nvariant(*system, server, [&] {
    if (system->hub().wait_bound(config.listen_port)) {
      converse(*system, config, commands, served.responses);
    }
  });
  return served;
}

Served launch_ftpd(const std::vector<std::string>& commands) {
  const auto system = uid_system();
  const httpd::FtpdConfig config;
  httpd::install_ftpd_site(system->fs(), config);
  httpd::MiniFtpd server(config);
  guest::launch_nvariant(*system, server);
  Served served;
  if (testing::wait_for_bind(system->hub(), config.listen_port)) {
    converse(*system, config, commands, served.responses);
  }
  served.report = system->stop();
  return served;
}

core::RunReport ftpd_job(std::vector<std::string> commands) {
  const auto system = uid_system();
  return fleet::jobs::ftpd_command_stream({}, std::move(commands))(*system);
}

TEST(ServeEquivalence, FtpNormalSession) {
  const auto commands = fleet::jobs::ftp_normal_session();
  const Served served = serve_ftpd(commands);
  const Served launched = launch_ftpd(commands);
  EXPECT_EQ(served.responses.size(), commands.size() + 1);  // greeting + one reply each
  EXPECT_EQ(served.responses, launched.responses);
  EXPECT_TRUE(served.report.completed);
  expect_same_report(served.report, launched.report);
  expect_same_report(ftpd_job(commands), launched.report);
}

TEST(ServeEquivalence, FtpSiteAttack) {
  const auto commands = fleet::jobs::ftp_site_attack();
  const Served served = serve_ftpd(commands);
  const Served launched = launch_ftpd(commands);
  EXPECT_EQ(served.responses, launched.responses);
  EXPECT_TRUE(served.report.attack_detected);
  expect_same_report(served.report, launched.report);
  expect_same_report(ftpd_job(commands), launched.report);
}

}  // namespace
}  // namespace nv
