// Failure injection and edge cases for the MVEE: guest exceptions, tag
// faults, reuse after attack, composition of variations, and the §3.1
// scheduling limitation reproduced as a test.
#include <gtest/gtest.h>

#include "core/nvariant_system.h"
#include "guest/runners.h"
#include "test_helpers.h"
#include "vkernel/vm.h"

namespace nv {
namespace {

using core::NVariantSystem;
using testing::LambdaGuest;

std::unique_ptr<NVariantSystem> fast_system(
    std::initializer_list<std::string_view> variation_names = {},
    std::initializer_list<std::string> unshared = {}, unsigned n_variants = 2) {
  return testing::build_system(n_variants, variation_names,
                               unshared);
}

void seed_etc(NVariantSystem& system) {
  const auto root = os::Credentials::root();
  ASSERT_TRUE(system.fs().mkdir_p("/etc", root));
  ASSERT_TRUE(system.fs().write_file("/etc/passwd", "root:x:0:0:r:/:/bin/sh\n", root));
  ASSERT_TRUE(system.fs().write_file("/etc/group", "root:x:0:\n", root));
}

TEST(FailureInjection, GuestExceptionBecomesGuestErrorAlarm) {
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    if (ctx.variant() == 1) throw std::runtime_error("injected guest bug");
    (void)ctx.getpid();
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kGuestError);
  EXPECT_EQ(report.alarm->variant, 1u);
  EXPECT_NE(report.alarm->detail.find("injected guest bug"), std::string::npos);
}

TEST(FailureInjection, TagFaultAlarmFromInjectedCode) {
  const auto system_owner = fast_system({"instruction-tagging"});
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    // Both variants store the SAME injected bytes (tagged for variant 0's
    // tag) and execute them: variant 1 must trap.
    vkernel::VmProgram payload;
    payload.load_imm(0, 1).halt();
    const auto image = payload.assemble(0xA0);
    const auto base = ctx.alloc(image.size());
    ctx.memory().store_bytes(base, image);
    (void)ctx.execute_code(base);
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kTagFault);
  EXPECT_EQ(report.alarm->variant, 1u);
}

TEST(FailureInjection, TrustedTaggedCodeRunsInBothVariants) {
  const auto system_owner = fast_system({"instruction-tagging"});
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    // Trusted load path: each variant tags the code with ITS OWN tag.
    vkernel::VmProgram program;
    program.load_imm(0, 41).load_imm(1, 1).add(0, 1).emit().halt();
    const auto image = program.assemble(ctx.config().code_tag);
    const auto base = ctx.alloc(image.size());
    ctx.memory().store_bytes(base, image);
    const auto result = ctx.execute_code(base);
    EXPECT_EQ(result.output, (std::vector<std::uint32_t>{42}));
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
}

TEST(FailureInjection, SystemReusableAfterDetectedAttack) {
  const auto system_owner = fast_system({"uid-xor"});
  auto& system = *system_owner;
  seed_etc(system);

  LambdaGuest attacked([](guest::GuestContext& ctx) {
    (void)ctx.uid_value(0);
    ctx.exit(0);
  });
  const auto first = guest::run_nvariant(system, attacked);
  EXPECT_TRUE(first.attack_detected);

  // The same system object runs a clean workload afterwards.
  LambdaGuest clean([](guest::GuestContext& ctx) {
    EXPECT_EQ(ctx.geteuid(), ctx.uid_const(0));
    ctx.exit(0);
  });
  const auto second = guest::run_nvariant(system, clean);
  EXPECT_TRUE(second.completed);
  EXPECT_FALSE(second.attack_detected);
}

TEST(FailureInjection, CompositionOfThreeVariations) {
  const auto system_owner =
      fast_system({"uid-xor", "address-partitioning", "instruction-tagging"});
  auto& system = *system_owner;
  seed_etc(system);
  LambdaGuest guest([](guest::GuestContext& ctx) {
    // UID path works.
    EXPECT_EQ(ctx.seteuid(ctx.uid_const(1000)), os::Errno::kOk);
    EXPECT_EQ(ctx.geteuid(), ctx.uid_const(1000));
    // Memory is partitioned.
    const auto addr = ctx.alloc(16);
    if (ctx.variant() == 1) {
      EXPECT_GE(addr, 0x80000000ULL);
    }
    // Tagged code executes.
    vkernel::VmProgram program;
    program.load_imm(0, 9).emit().halt();
    const auto image = program.assemble(ctx.config().code_tag);
    const auto base = ctx.alloc(image.size());
    ctx.memory().store_bytes(base, image);
    EXPECT_EQ(ctx.execute_code(base).output, (std::vector<std::uint32_t>{9}));
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.completed) << (report.alarm ? report.alarm->describe() : "");
  EXPECT_FALSE(report.attack_detected);
}

TEST(FailureInjection, SchedulingDivergenceLimitationReproduced) {
  // §3.1: "if a signal is delivered to variants at different points in their
  // execution, their behaviors may diverge. This leads to a false attack
  // detection." We model an unsynchronized asynchronous event (a per-variant
  // race) influencing control flow: the framework — correctly per its rules,
  // wrongly per intent — raises an alarm.
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) {
    // Each variant observes a different "signal arrival point".
    const bool signal_seen_early = ctx.variant() == 0;
    if (signal_seen_early) {
      (void)ctx.gettime();  // extra syscall on one path only
    }
    (void)ctx.getpid();
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.attack_detected);  // false positive, faithfully reproduced
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kSyscallMismatch);
}

TEST(FailureInjection, DoubleStopIsSafe) {
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest guest([](guest::GuestContext& ctx) { ctx.exit(0); });
  guest::launch_nvariant(system, guest);
  const auto first = system.stop();
  EXPECT_TRUE(first.completed);
  const auto second = system.stop();  // no threads left: harmless
  EXPECT_TRUE(second.completed);
}

TEST(FailureInjection, LaunchWhileRunningThrows) {
  const auto system_owner = fast_system();
  auto& system = *system_owner;
  LambdaGuest server([](guest::GuestContext& ctx) {
    auto sock = ctx.socket();
    ASSERT_TRUE(sock.has_value());
    // stop() may race ahead of us; EINTR from an already-shut-down hub is a
    // clean exit, not a failure.
    if (ctx.bind(*sock, 9191) != os::Errno::kOk) ctx.exit(0);
    while (true) {
      auto conn = ctx.accept(*sock);
      if (!conn) break;
      (void)ctx.close(*conn);
    }
    ctx.exit(0);
  });
  guest::launch_nvariant(system, server);
  LambdaGuest other([](guest::GuestContext& ctx) { ctx.exit(0); });
  EXPECT_THROW(guest::launch_nvariant(system, other), std::logic_error);
  (void)system.stop();
}

TEST(FailureInjection, MissingUnsharedVariantFileFailsLoudly) {
  const auto system_owner = fast_system({}, {"/etc/conf"});
  auto& system = *system_owner;
  const auto root = os::Credentials::root();
  ASSERT_TRUE(system.fs().mkdir_p("/etc", root));
  ASSERT_TRUE(system.fs().write_file("/etc/conf", "x", root));
  ASSERT_TRUE(system.fs().write_file("/etc/conf-0", "zero", root));
  // No /etc/conf-1: variant 1's open must fail, and since results are
  // compared... both get their own errno. Variant 0 succeeds, variant 1
  // fails; the guest asserts success and exits differently -> divergence.
  LambdaGuest guest([](guest::GuestContext& ctx) {
    auto content = ctx.read_file("/etc/conf");
    ctx.exit(content.has_value() ? 0 : 1);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.attack_detected);  // exit-code mismatch surfaces the hole
}

TEST(FailureInjection, FourVariantLockstep) {
  const auto system_owner = fast_system({"uid-xor"}, {}, 4);
  auto& system = *system_owner;
  seed_etc(system);
  LambdaGuest guest([](guest::GuestContext& ctx) {
    EXPECT_EQ(ctx.geteuid(), ctx.uid_const(0));
    EXPECT_EQ(ctx.seteuid(ctx.uid_const(42)), os::Errno::kOk);
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.completed) << (report.alarm ? report.alarm->describe() : "");
  EXPECT_EQ(report.exit_codes.size(), 4u);
}

}  // namespace
}  // namespace nv
