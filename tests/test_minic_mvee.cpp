// End-to-end: automatically transformed mini-C programs executing under the
// MVEE with the UID variation — the full §5 automation story.
#include <gtest/gtest.h>

#include "core/nvariant_system.h"
#include "guest/runners.h"
#include "transform/mini_apache.h"
#include "transform/minic_guest.h"
#include "variants/registry.h"

namespace nv::transform {
namespace {

std::unique_ptr<core::NVariantSystem> make_system() {
  auto system = core::NVariantSystem::Builder()
                    .variation(variants::make_builtin("uid-xor"))
                    .build();
  const auto root = os::Credentials::root();
  EXPECT_TRUE(system->fs().mkdir_p("/etc", root));
  EXPECT_TRUE(system->fs().mkdir_p("/var/log", root));
  EXPECT_TRUE(system->fs().write_file("/etc/passwd",
                                      "root:x:0:0:root:/root:/bin/sh\n"
                                      "www:x:33:33:w:/var/www:/bin/false\n"
                                      "alice:x:1000:1000:Alice:/home/a:/bin/sh\n",
                                      root));
  EXPECT_TRUE(system->fs().write_file("/etc/group", "root:x:0:\nwww:x:33:\n", root));
  return system;
}

TEST(MiniCMvee, TransformedProgramRunsCleanlyUnderUidVariation) {
  auto system = make_system();
  MiniCGuest guest(std::string(R"(
    int main() {
      uid_t worker = getpwnam_uid("www");
      if (worker == 0xFFFFFFFF) { return 2; }
      if (seteuid(worker) != 0) { return 3; }
      uid_t now = geteuid();
      if (now != worker) { return 4; }
      if (now == 0) { return 5; }
      log_msg("request handled");
      return 0;
    }
  )"));
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.completed) << (report.alarm ? report.alarm->describe() : "");
  EXPECT_FALSE(report.attack_detected);
  EXPECT_EQ(report.exit_codes, (std::vector<int>{0, 0}));
}

TEST(MiniCMvee, UntransformedProgramViolatesNormalEquivalence) {
  // Running the ORIGINAL program in both variants breaks property (1) of
  // §2.2: the untransformed constant reaches the kernel with different
  // canonical meanings and the monitor (correctly) alarms on normal input.
  auto system = make_system();
  MiniCGuest::Options options;
  options.apply_transformation = false;
  MiniCGuest guest(std::string(R"(
    int main() {
      if (seteuid(1000) != 0) { return 1; }
      return 0;
    }
  )"),
                   options);
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.attack_detected);
}

TEST(MiniCMvee, MiniApacheRunsToCompletionUnderMvee) {
  auto system = make_system();
  MiniCGuest guest{std::string(mini_apache_source())};
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.completed) << (report.alarm ? report.alarm->describe() : "");
  EXPECT_FALSE(report.attack_detected);
  EXPECT_EQ(report.exit_codes, (std::vector<int>{0, 0}));
  // Both variants produced identical transformed-site counts.
  EXPECT_EQ(guest.stats_for(0).total(), CaseStudyCounts::kTotal);
  EXPECT_EQ(guest.stats_for(1).total(), CaseStudyCounts::kTotal);
  // And identical request outcomes (served responses).
  EXPECT_EQ(guest.result_for(0).responses, guest.result_for(1).responses);
}

TEST(MiniCMvee, UserSpaceReversedModeAlsoRunsCleanly) {
  auto system = make_system();
  MiniCGuest::Options options;
  options.detection = DetectionMode::kUserSpaceReversed;
  MiniCGuest guest(std::string(mini_apache_source()), options);
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.completed) << (report.alarm ? report.alarm->describe() : "");
  EXPECT_FALSE(report.attack_detected);
}

TEST(MiniCMvee, LogUidHazardCausesBenignDivergence) {
  // A transformed program that logs a raw UID value reproduces the §4
  // error-log complication: identical program, divergent log bytes.
  auto system = make_system();
  MiniCGuest guest(std::string(R"(
    int main() {
      uid_t me = geteuid();
      log_uid("current identity", me);
      return 0;
    }
  )"));
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kArgumentMismatch);
}

TEST(MiniCMvee, InjectedUidConstantCaughtByDetectionSyscalls) {
  // Simulates the post-corruption state: a value that bypassed reexpression
  // (the attacker's injected constant) flows into a uid_value exposure.
  auto system = make_system();
  MiniCGuest::Options options;
  options.apply_transformation = false;  // raw value, as an attacker would inject
  MiniCGuest guest(std::string(R"(
    int main() {
      uid_t stolen = 0;
      uid_t checked = uid_value(stolen);
      setuid(checked);
      return 0;
    }
  )"),
                   options);
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kUidCheckFailed);
}

TEST(MiniCMvee, PlainKernelRunMatchesMveeSemantics) {
  // The same transformed program produces the same responses on the plain
  // kernel (variant-0 semantics) as under the MVEE — normal equivalence.
  MiniCGuest guest{std::string(mini_apache_source())};

  vfs::FileSystem fs;
  vkernel::SocketHub hub;
  vkernel::KernelContext ctx(fs, hub);
  const auto root = os::Credentials::root();
  ASSERT_TRUE(fs.mkdir_p("/etc", root));
  ASSERT_TRUE(fs.mkdir_p("/var/log", root));
  ASSERT_TRUE(fs.write_file("/etc/passwd",
                            "root:x:0:0:root:/root:/bin/sh\n"
                            "www:x:33:33:w:/var/www:/bin/false\n"
                            "alice:x:1000:1000:Alice:/home/a:/bin/sh\n",
                            root));
  ASSERT_TRUE(fs.write_file("/etc/group", "root:x:0:\nwww:x:33:\n", root));
  const auto plain = guest::run_plain(ctx, guest);
  ASSERT_TRUE(plain.completed);
  EXPECT_EQ(plain.exit_code, 0);
  const auto plain_responses = guest.result_for(0).responses;

  auto system = make_system();
  MiniCGuest guest2{std::string(mini_apache_source())};
  const auto report = guest::run_nvariant(*system, guest2);
  ASSERT_TRUE(report.completed);
  EXPECT_EQ(guest2.result_for(0).responses, plain_responses);
  EXPECT_EQ(guest2.result_for(1).responses, plain_responses);
}

}  // namespace
}  // namespace nv::transform
