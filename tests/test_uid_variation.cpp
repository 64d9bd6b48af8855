// The paper's §3 UID variation end to end: reexpression at syscall
// boundaries, unshared passwd files, detection of corruption, and the
// documented high-bit weakness.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/nvariant_system.h"
#include "fleet/session_factory.h"
#include "guest/runners.h"
#include "guest/uid_ops.h"
#include "httpd/mini_httpd.h"
#include "test_helpers.h"
#include "util/strings.h"
#include "variants/registry.h"
#include "variants/uid_variation.h"

namespace nv {
namespace {

using core::NVariantSystem;
using testing::LambdaGuest;
using variants::UidVariation;

std::unique_ptr<NVariantSystem> make_uid_system(unsigned n_variants = 2) {
  auto system =
      testing::build_system(n_variants, {"uid-xor"});
  EXPECT_TRUE(system->fs().mkdir_p("/etc", os::Credentials::root()));
  EXPECT_TRUE(system->fs().write_file("/etc/passwd",
                                      "root:x:0:0:root:/root:/bin/sh\n"
                                      "www:x:33:33:www:/var/www:/bin/false\n"
                                      "alice:x:1000:1000:Alice:/home/alice:/bin/sh\n",
                                      os::Credentials::root()));
  EXPECT_TRUE(system->fs().write_file("/etc/group", "root:x:0:\nwww:x:33:\n",
                                      os::Credentials::root()));
  return system;
}

TEST(UidVariation, MasksArePairwiseDistinct) {
  UidVariation variation;
  EXPECT_EQ(variation.mask_for(0), 0u);
  EXPECT_EQ(variation.mask_for(1), 0x7FFFFFFFu);
  EXPECT_EQ(variation.mask_for(2), 0x3FFFFFFFu);
  EXPECT_NE(variation.mask_for(1), variation.mask_for(2));
}

TEST(UidVariation, GetuidReturnsReexpressedValuePerVariant) {
  auto system = make_uid_system();
  LambdaGuest guest([](guest::GuestContext& ctx) {
    const os::uid_t euid = ctx.geteuid();
    // Variant 0 sees canonical root (0); variant 1 sees 0x7FFFFFFF.
    if (ctx.variant() == 0) {
      EXPECT_EQ(euid, 0u);
    } else {
      EXPECT_EQ(euid, 0x7FFFFFFFu);
    }
    // Either way, it equals the variant's transformed root constant.
    EXPECT_EQ(euid, ctx.uid_const(os::kRootUid));
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
}

TEST(UidVariation, SetuidWithTransformedConstantSucceeds) {
  auto system = make_uid_system();
  LambdaGuest guest([](guest::GuestContext& ctx) {
    // The transformed program passes R_i(1000); wrappers invert to 1000.
    EXPECT_EQ(ctx.seteuid(ctx.uid_const(1000)), os::Errno::kOk);
    EXPECT_EQ(ctx.geteuid(), ctx.uid_const(1000));
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
}

TEST(UidVariation, KernelStoresCanonicalCredentials) {
  auto system = make_uid_system();
  LambdaGuest guest([](guest::GuestContext& ctx) {
    EXPECT_EQ(ctx.setuid(ctx.uid_const(1000)), os::Errno::kOk);
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
}

TEST(UidVariation, PasswdFilesAreDiversifiedPerVariant) {
  auto system = make_uid_system();
  LambdaGuest guest([](guest::GuestContext& ctx) {
    const auto pw = ctx.getpwnam("www");
    ASSERT_TRUE(pw.has_value());
    // The unshared passwd copy already encodes this variant's representation.
    EXPECT_EQ(pw->uid, ctx.uid_const(33));
    // And installing it round-trips through the wrapper correctly.
    EXPECT_EQ(ctx.seteuid(pw->uid), os::Errno::kOk);
    EXPECT_EQ(ctx.geteuid(), ctx.uid_const(33));
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
}

TEST(UidVariation, InjectedIdenticalUidDetectedAtUidValue) {
  auto system = make_uid_system();
  // The attacker corrupts a stored UID with the SAME concrete value in both
  // variants (that is all the shared input channel allows). uid_value()
  // inverts per variant: 0 vs 0x7FFFFFFF -> alarm.
  LambdaGuest guest([](guest::GuestContext& ctx) {
    const os::uid_t injected = 0;  // attacker wants root
    (void)ctx.uid_value(injected);
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kUidCheckFailed);
}

TEST(UidVariation, InjectedUidDetectedAtSetuidEvenWithoutDetectionSyscalls) {
  auto system = make_uid_system();
  // §5: without uid_value the attack is still caught at the next UID-carrying
  // syscall, at the cost of detection precision.
  LambdaGuest guest([](guest::GuestContext& ctx) {
    (void)ctx.seteuid(0);  // same raw value in both variants
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kArgumentMismatch);
}

TEST(UidVariation, CcComparisonAgreesOnTransformedValues) {
  auto system = make_uid_system();
  LambdaGuest guest([](guest::GuestContext& ctx) {
    guest::UidOps ops(ctx, guest::UidOpsMode::kSyscallChecked);
    const os::uid_t alice = ctx.uid_const(1000);
    const os::uid_t root = ctx.uid_const(0);
    EXPECT_TRUE(ops.lt(root, alice));   // 0 < 1000 canonically, both variants
    EXPECT_FALSE(ops.gt(root, alice));
    EXPECT_TRUE(ops.eq(root, root));
    EXPECT_TRUE(ops.is_root(root));
    EXPECT_FALSE(ops.is_root(alice));
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
}

TEST(UidVariation, UserSpaceReversedComparisonsPreserveSemantics) {
  auto system = make_uid_system();
  LambdaGuest guest([](guest::GuestContext& ctx) {
    guest::UidOps ops(ctx, guest::UidOpsMode::kUserSpaceReversed);
    const os::uid_t alice = ctx.uid_const(1000);
    const os::uid_t bob = ctx.uid_const(1001);
    EXPECT_TRUE(ops.lt(alice, bob));
    EXPECT_TRUE(ops.leq(alice, alice));
    EXPECT_FALSE(ops.gt(alice, bob));
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
}

TEST(UidVariation, HighBitFlipEscapesDetection) {
  auto system = make_uid_system();
  // The documented weakness (§3.2): the mask leaves the high bit unflipped,
  // so corrupting ONLY the high bit of the stored representation yields the
  // same canonical change in both variants — no divergence.
  LambdaGuest guest([](guest::GuestContext& ctx) {
    const os::uid_t stored = ctx.uid_const(1000);
    const os::uid_t corrupted = stored ^ 0x80000000u;  // same flip, both variants
    (void)ctx.uid_value(corrupted);                    // NOT detected
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_FALSE(report.attack_detected);  // faithful reproduction of the gap
  EXPECT_TRUE(report.completed);
}

TEST(UidVariation, ByteLevelOverwriteIsDetected) {
  auto system = make_uid_system();
  // §3.2: byte-level partial overwrites are the realistic remote threat, and
  // the low-byte flip lands on reexpressed bits -> canonical values diverge.
  LambdaGuest guest([](guest::GuestContext& ctx) {
    os::uid_t stored = ctx.uid_const(1000);
    stored = (stored & 0xFFFFFF00u) | 0x00000000u;  // attacker zeroes low byte
    (void)ctx.uid_value(stored);
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.attack_detected);
}

TEST(UidVariation, ThreeVariantConfigurationWorks) {
  auto system = make_uid_system(3);
  LambdaGuest guest([](guest::GuestContext& ctx) {
    EXPECT_EQ(ctx.geteuid(), ctx.uid_const(0));
    EXPECT_EQ(ctx.seteuid(ctx.uid_const(7)), os::Errno::kOk);
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);

  LambdaGuest attacked([](guest::GuestContext& ctx) {
    (void)ctx.uid_value(0);  // identical injected value across 3 variants
    ctx.exit(0);
  });
  auto system2 = make_uid_system(3);
  const auto report2 = guest::run_nvariant(*system2, attacked);
  EXPECT_TRUE(report2.attack_detected);
}

TEST(UidVariation, InvalidUidSentinelRoundTrips) {
  auto system = make_uid_system();
  // setreuid(-1, x): the transformed program passes R_i(-1); the wrapper
  // inverts it back to the canonical sentinel, which the kernel honours.
  LambdaGuest guest([](guest::GuestContext& ctx) {
    EXPECT_EQ(ctx.setreuid(ctx.uid_const(os::kInvalidUid), ctx.uid_const(1000)), os::Errno::kOk);
    EXPECT_EQ(ctx.getuid(), ctx.uid_const(0));      // ruid unchanged (root)
    EXPECT_EQ(ctx.geteuid(), ctx.uid_const(1000));  // euid changed
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
}

/// A file owned by uid and gid 1000, which a suexec-style guest drops to.
void install_owned_file(vfs::FileSystem& fs) {
  const auto root = os::Credentials::root();
  EXPECT_TRUE(fs.mkdir_p("/srv", root));
  EXPECT_TRUE(fs.write_file("/srv/f", "data", root));
  EXPECT_TRUE(fs.chown("/srv/f", 1000, 1000, root));
}

TEST(UidVariation, StatReexpressesTheOwnerSoAGuestCanDropToIt) {
  // stat's owner crosses the boundary as a uid: each variant must read it in
  // its own representation, or seteuid(st.uid) diverges and alarms.
  LambdaGuest guest([](guest::GuestContext& ctx) {
    const auto st = ctx.stat("/srv/f");
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->uid, ctx.uid_const(1000));
    EXPECT_EQ(st->gid, ctx.uid_const(1000));
    if (ctx.seteuid(st->uid) != os::Errno::kOk) ctx.exit(1);
  });
  vfs::FileSystem fs;
  vkernel::SocketHub hub;
  vkernel::KernelContext plain{fs, hub};
  install_owned_file(fs);
  const guest::PlainRunResult expected = guest::run_plain(plain, guest);
  ASSERT_TRUE(expected.completed);
  EXPECT_EQ(expected.exit_code, 0);
  for (const unsigned n : {2u, 3u}) {
    SCOPED_TRACE(util::format("N=%u", n));
    auto system = make_uid_system(n);
    install_owned_file(system->fs());
    const auto report = guest::run_nvariant(*system, guest);
    EXPECT_TRUE(report.completed);
    EXPECT_FALSE(report.attack_detected) << (report.alarm ? report.alarm->detail : "");
    EXPECT_EQ(report.exit_codes, std::vector<int>(n, expected.exit_code));
  }
}

TEST(UidVariation, StatOfAnUnsharedFileGivesEachVariantItsOwnRoot) {
  // /etc/passwd is redirected to each variant's copy, which root owns.
  auto system = make_uid_system(3);
  LambdaGuest guest([](guest::GuestContext& ctx) {
    const auto st = ctx.stat("/etc/passwd");
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->uid, ctx.uid_const(os::kRootUid)) << "variant " << ctx.variant();
    EXPECT_EQ(st->gid, ctx.uid_const(0)) << "variant " << ctx.variant();
  });
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
}

// The passwd and group copies are derived before the first run and again
// only when /etc/passwd, /etc/group or one of their copies changed. These
// tests run a fleet session (N=2, uid-xor drawn by the factory) that serves
// the default httpd site.

const os::Credentials kRoot = os::Credentials::root();

std::unique_ptr<NVariantSystem> site_session() {
  fleet::SessionFactory factory(fleet::SessionSpec{}, 7, variants::builtin_registry());
  auto session = factory.make_session();
  if (!session) throw std::runtime_error(session.error());
  httpd::install_default_site(session->system->fs());
  return std::move(session->system);
}

/// One run in which every variant looks `name` up in its passwd copy and
/// expects `uid` re-expressed by its own mask.
void expect_uid_of(NVariantSystem& system, std::string name, os::uid_t uid) {
  LambdaGuest guest([&](guest::GuestContext& ctx) {
    const auto pw = ctx.getpwnam(name);
    ASSERT_TRUE(pw.has_value());
    EXPECT_EQ(pw->uid, ctx.uid_const(uid)) << "variant " << ctx.variant();
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
}

std::pair<std::uint64_t, std::uint64_t> stamp_of(const vfs::FileSystem& fs,
                                                 std::string_view path) {
  const vfs::Stat st = fs.stat(path).value();
  return {st.ino, st.version};
}

TEST(UnsharedFileCopies, AnEditToPasswdReachesEveryVariantBeforeTheNextRun) {
  auto system = site_session();
  expect_uid_of(*system, "www", 33);
  ASSERT_TRUE(system->fs().write_file("/etc/passwd",
                                      "root:x:0:0:root:/root:/bin/sh\n"
                                      "www:x:44:44:www-data:/var/www:/usr/sbin/nologin\n",
                                      kRoot));
  expect_uid_of(*system, "www", 44);
  expect_uid_of(*system, "root", 0);
}

TEST(UnsharedFileCopies, AGuestWriteToItsOwnCopyIsUndoneBeforeTheNextRun) {
  auto system = site_session();
  expect_uid_of(*system, "www", 33);
  const std::string derived = system->fs().read_file("/etc/passwd-1", kRoot).value();
  LambdaGuest forger([](guest::GuestContext& ctx) {
    // Both variants write the same bytes, each into its own copy.
    auto fd = ctx.open("/etc/passwd", os::OpenFlags::kWrite | os::OpenFlags::kTruncate);
    ASSERT_TRUE(fd.has_value());
    ASSERT_TRUE(ctx.write(*fd, "www:x:0:0::/:/bin/sh\n").has_value());
    (void)ctx.close(*fd);
    ctx.exit(0);
  });
  ASSERT_TRUE(guest::run_nvariant(*system, forger).completed);
  ASSERT_EQ(system->fs().read_file("/etc/passwd-1", kRoot).value(), "www:x:0:0::/:/bin/sh\n");

  expect_uid_of(*system, "www", 33);
  EXPECT_EQ(system->fs().read_file("/etc/passwd-1", kRoot).value(), derived);
}

TEST(UnsharedFileCopies, AnUnlinkedCopyOrAFileRenamedOntoPasswdDerivesAgain) {
  auto system = site_session();
  auto& fs = system->fs();
  expect_uid_of(*system, "www", 33);
  const std::string derived = fs.read_file("/etc/passwd-1", kRoot).value();
  ASSERT_TRUE(fs.unlink("/etc/passwd-1", kRoot));
  expect_uid_of(*system, "www", 33);
  EXPECT_EQ(fs.read_file("/etc/passwd-1", kRoot).value(), derived);

  const std::string renamed =
      util::replace_all(fs.read_file("/etc/passwd", kRoot).value(), "www:x:33:", "www:x:55:");
  ASSERT_TRUE(fs.write_file("/etc/passwd.new", renamed, kRoot));
  // Only the inode number tells the two files apart: each was written once.
  ASSERT_EQ(fs.stat("/etc/passwd.new")->version, fs.stat("/etc/passwd")->version);
  ASSERT_TRUE(fs.rename("/etc/passwd.new", "/etc/passwd", kRoot));
  expect_uid_of(*system, "www", 55);
}

TEST(UnsharedFileCopies, AnIdenticalSiteInstallLeavesTheCopiesUntouched) {
  auto system = site_session();
  const auto& fs = system->fs();
  expect_uid_of(*system, "www", 33);
  const auto stamps = [&] {
    return std::vector{stamp_of(fs, "/etc/passwd-0"), stamp_of(fs, "/etc/passwd-1"),
                       stamp_of(fs, "/etc/group-0"), stamp_of(fs, "/etc/group-1")};
  };
  const auto before = stamps();
  httpd::install_default_site(system->fs());
  expect_uid_of(*system, "www", 33);
  EXPECT_EQ(stamps(), before);
}

}  // namespace
}  // namespace nv
