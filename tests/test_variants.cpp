// Unit tests for the variation implementations (Table 1 rows as objects),
// including the network-diversity companions (port-hopping end to end
// through the MVEE, endpoint-rotation's entropy accounting).
#include <gtest/gtest.h>

#include <chrono>

#include "core/nvariant_system.h"
#include "guest/runners.h"
#include "test_helpers.h"
#include "variants/address_partitioning.h"
#include "variants/instruction_tagging.h"
#include "variants/network_diversity.h"
#include "variants/registry.h"
#include "variants/stack_reversal.h"
#include "variants/uid_variation.h"
#include "vfs/filesystem.h"
#include "vfs/passwd.h"

namespace nv::variants {
namespace {

core::VariantConfig config_for(const core::Variation& variation, unsigned index) {
  core::VariantConfig config;
  config.index = index;
  variation.configure_variant(config);
  return config;
}

TEST(AddressPartitioningVariation, DisjointBases) {
  const AddressPartitioning partitioning;
  const auto c0 = config_for(partitioning, 0);
  const auto c1 = config_for(partitioning, 1);
  EXPECT_EQ(c0.memory_base, 0x10000000ULL);
  EXPECT_EQ(c1.memory_base, 0x10000000ULL + 0x80000000ULL);
  // Partitions do not overlap for 1 MiB segments.
  EXPECT_GT(c1.memory_base, c0.memory_base + c0.memory_size);
}

TEST(AddressPartitioningVariation, ReexpressionMatchesTableOne) {
  const AddressPartitioning partitioning;
  const auto r1 = partitioning.reexpression(1);
  EXPECT_EQ(r1.offset(), 0x80000000ULL);
  EXPECT_EQ(r1.reexpress(0x1000), 0x80001000ULL);
  EXPECT_EQ(r1.invert(0x80001000ULL), 0x1000ULL);
}

TEST(ExtendedPartitioningVariation, AddsNonZeroPageAlignedOffset) {
  const ExtendedAddressPartitioning extended(0x80000000ULL, 1ULL << 20, 99);
  const auto c0 = config_for(extended, 0);
  const auto c1 = config_for(extended, 1);
  EXPECT_EQ(c0.memory_base, 0x10000000ULL);
  const std::uint64_t extra = c1.memory_base - 0x10000000ULL - 0x80000000ULL;
  EXPECT_GT(extra, 0u);
  EXPECT_LT(extra, 1ULL << 20);
  EXPECT_EQ(extra % 4096, 0u);
}

TEST(ExtendedPartitioningVariation, OffsetIsDeterministicPerSeed) {
  const ExtendedAddressPartitioning a(0x80000000ULL, 1ULL << 20, 7);
  const ExtendedAddressPartitioning b(0x80000000ULL, 1ULL << 20, 7);
  const ExtendedAddressPartitioning c(0x80000000ULL, 1ULL << 20, 8);
  EXPECT_EQ(config_for(a, 1).memory_base, config_for(b, 1).memory_base);
  EXPECT_NE(config_for(a, 1).memory_base, config_for(c, 1).memory_base);
}

TEST(InstructionTaggingVariation, DistinctTagsPerVariant) {
  const InstructionTagging tagging;
  EXPECT_EQ(config_for(tagging, 0).code_tag, 0xA0);
  EXPECT_EQ(config_for(tagging, 1).code_tag, 0xA1);
  EXPECT_EQ(config_for(tagging, 2).code_tag, 0xA2);
}

TEST(InstructionTaggingVariation, LoadProgramTagsImage) {
  const InstructionTagging tagging;
  vkernel::AddressSpace memory;
  vkernel::VmProgram program;
  program.load_imm(0, 5).halt();
  const auto size = tagging.load_program(memory, 0x4000, program, 1);
  EXPECT_EQ(size, 1u + 6 + 1 + 1);  // tag+loadimm, tag+halt
  EXPECT_EQ(memory.load_u8(0x4000), 0xA1);
}

TEST(StackReversalVariation, AlternatesDirection) {
  const StackReversal reversal;
  EXPECT_FALSE(config_for(reversal, 0).reverse_stack);
  EXPECT_TRUE(config_for(reversal, 1).reverse_stack);
  EXPECT_FALSE(config_for(reversal, 2).reverse_stack);
}

TEST(UidVariationUnit, CoderMatchesMask) {
  const UidVariation variation;
  const auto c1 = config_for(variation, 1);
  EXPECT_EQ(c1.uid_coder->reexpress(0), 0x7FFFFFFFu);
  EXPECT_EQ(c1.uid_coder->invert(0x7FFFFFFFu), 0u);
  const auto c0 = config_for(variation, 0);
  EXPECT_EQ(c0.uid_coder->reexpress(12345), 12345u);
}

TEST(UidVariationUnit, PrepareFilesystemWritesDiversifiedCopies) {
  vfs::FileSystem fs;
  const auto root = os::Credentials::root();
  ASSERT_TRUE(fs.mkdir_p("/etc", root));
  ASSERT_TRUE(fs.write_file("/etc/passwd", "www:x:33:33:w:/w:/bin/f\n", root, 0644));
  ASSERT_TRUE(fs.write_file("/etc/group", "www:x:33:\n", root, 0644));
  const UidVariation variation;
  variation.prepare_filesystem(fs, 2);

  const auto p0 = vfs::parse_passwd(*fs.read_file("/etc/passwd-0", root));
  const auto p1 = vfs::parse_passwd(*fs.read_file("/etc/passwd-1", root));
  ASSERT_EQ(p0.size(), 1u);
  ASSERT_EQ(p1.size(), 1u);
  EXPECT_EQ(p0[0].uid, 33u);
  EXPECT_EQ(p1[0].uid, 33u ^ 0x7FFFFFFFu);
  const auto g1 = vfs::parse_group(*fs.read_file("/etc/group-1", root));
  ASSERT_EQ(g1.size(), 1u);
  EXPECT_EQ(g1[0].gid, 33u ^ 0x7FFFFFFFu);
}

TEST(UidVariationUnit, MissingFilesAreSkippedQuietly) {
  vfs::FileSystem fs;  // no /etc at all
  const UidVariation variation;
  variation.prepare_filesystem(fs, 2);  // must not throw
  EXPECT_FALSE(fs.exists("/etc/passwd-0"));
}

/// Variant 1's boundary under a default UidVariation alone.
core::RoleTable uid_variant_one() {
  return core::RoleTable({std::make_shared<const UidVariation>()}, 1);
}

TEST(UidVariationUnit, CanonicalizeRewritesOnlyUidArguments) {
  const core::RoleTable roles = uid_variant_one();
  vkernel::SyscallArgs args;
  args.no = vkernel::Sys::kSetresuid;
  args.ints = {0x7FFFFFFF ^ 5u, 0x7FFFFFFF ^ 6u, 0x7FFFFFFF ^ 7u};
  roles.canonicalize(args);
  EXPECT_EQ(args.ints, (vkernel::SyscallInts{5, 6, 7}));

  vkernel::SyscallArgs read_args;
  read_args.no = vkernel::Sys::kRead;
  read_args.ints = {3, 100};
  roles.canonicalize(read_args);
  EXPECT_EQ(read_args.ints, (vkernel::SyscallInts{3, 100}));  // untouched
}

TEST(UidVariationUnit, CcCmpOperatorByteNotRewritten) {
  const core::RoleTable roles = uid_variant_one();
  vkernel::SyscallArgs args;
  args.no = vkernel::Sys::kCcCmp;
  args.ints = {static_cast<std::uint64_t>(vkernel::CcOp::kLt), 0x7FFFFFFFu, 0x7FFFFFFEu};
  roles.canonicalize(args);
  EXPECT_EQ(args.ints[0], static_cast<std::uint64_t>(vkernel::CcOp::kLt));
  EXPECT_EQ(args.ints[1], 0u);
  EXPECT_EQ(args.ints[2], 1u);
}

TEST(UidVariationUnit, ReexpressResultOnlyForUidReturningCalls) {
  const core::RoleTable roles = uid_variant_one();
  vkernel::SyscallResult result;
  result.value = 33;
  roles.reexpress(vkernel::Sys::kGetuid, result);
  EXPECT_EQ(result.value, 33u ^ 0x7FFFFFFFu);

  vkernel::SyscallResult read_result;
  read_result.value = 33;
  roles.reexpress(vkernel::Sys::kRead, read_result);
  EXPECT_EQ(read_result.value, 33u);  // untouched
}

TEST(UidVariationUnit, ReexpressStatOnlyInItsOwnerSlots) {
  const core::RoleTable roles = uid_variant_one();
  vkernel::SyscallResult result;
  result.out_ints = {7, 0, 0640, 1000, 33, 5};  // ino, is_dir, mode, uid, gid, size
  roles.reexpress(vkernel::Sys::kStat, result);
  EXPECT_EQ(result.out_ints,
            (vkernel::SyscallInts{7, 0, 0640, 1000u ^ 0x7FFFFFFFu, 33u ^ 0x7FFFFFFFu, 5}));
  EXPECT_EQ(result.value, 0u);
}

TEST(UidVariationUnit, FailedUidCallResultNotReexpressed) {
  const core::RoleTable roles = uid_variant_one();
  vkernel::SyscallResult result;
  result.err = os::Errno::kEPERM;
  result.value = static_cast<std::uint64_t>(-1);
  roles.reexpress(vkernel::Sys::kGeteuid, result);
  EXPECT_EQ(result.value, static_cast<std::uint64_t>(-1));  // error value untouched

  vkernel::SyscallResult failed_stat;
  failed_stat.err = os::Errno::kENOENT;
  failed_stat.out_ints = {7, 0, 0640, 1000, 33, 5};
  roles.reexpress(vkernel::Sys::kStat, failed_stat);
  EXPECT_EQ(failed_stat.out_ints, (vkernel::SyscallInts{7, 0, 0640, 1000, 33, 5}));
}

TEST(UidVariationUnit, CustomDiversifiedFileList) {
  UidVariation::Options options;
  options.diversified_files = {"/srv/users.db"};
  const UidVariation variation(options);
  EXPECT_EQ(variation.unshared_paths(), (std::vector<std::string>{"/srv/users.db"}));
}

// --- Network diversity -------------------------------------------------------

TEST(PortHoppingVariation, MasksArePairwiseDistinctAndVariantZeroIsIdentity) {
  const PortHopping hopping;
  EXPECT_EQ(hopping.mask_for(0), 0u);
  EXPECT_EQ(hopping.mask_for(1), 0x8000u);
  EXPECT_EQ(hopping.mask_for(2), 0x4000u);
  EXPECT_FALSE(hopping.disjointedness_violation(0, 1).has_value());
  EXPECT_FALSE(hopping.disjointedness_violation(1, 2).has_value());
  // The shifted scheme runs out after 16 offset-carrying variants: variants
  // 17 and 18 would both shift the mask to zero (= variant 0's identity).
  EXPECT_TRUE(hopping.disjointedness_violation(17, 18).has_value());
  EXPECT_EQ(hopping.keyspace_bits(2), 15.0);
}

TEST(PortHoppingVariation, CoderAndRoleTransformInvertEachOther) {
  const PortHopping hopping;
  const auto coder = hopping.coder_for(1);
  EXPECT_EQ(coder->reexpress(8080), 8080u ^ 0x8000u);
  EXPECT_EQ(coder->invert(coder->reexpress(8080)), 8080u);

  const auto transform = hopping.role_transform(vkernel::ArgRole::kPort, 1);
  ASSERT_TRUE(transform.has_value());
  EXPECT_EQ(transform->invert(8080u ^ 0x8000u), 8080u);
  EXPECT_EQ(transform->reexpress(8080u), 8080u ^ 0x8000u);
  // Only the low 16 bits are a port; high garbage must not leak through.
  EXPECT_EQ(transform->invert(0xABCD'0000ULL | (8080u ^ 0x8000u)), 8080u);
  // Variant 0 and non-port roles are untouched.
  EXPECT_FALSE(hopping.role_transform(vkernel::ArgRole::kPort, 0).has_value());
  EXPECT_FALSE(hopping.role_transform(vkernel::ArgRole::kUid, 1).has_value());
}

TEST(PortHoppingVariation, RegistryRejectsDegenerateMasks) {
  EXPECT_THROW((void)make_builtin("port-hopping", {{"mask", std::uint64_t{0}}}),
               std::runtime_error);
  EXPECT_THROW((void)make_builtin("port-hopping", {{"mask", std::uint64_t{0x10000}}}),
               std::runtime_error);
  EXPECT_NO_THROW((void)make_builtin("port-hopping", {{"mask", std::uint64_t{0x9C3A}}}));
}

TEST(PortHoppingVariation, BenignGuestBindAgreesAcrossVariants) {
  // The transformed program's listen port goes through VariantConfig::
  // port_coder (GuestContext::bind applies it, like uid_const for UIDs), so
  // the monitor's kPort canonicalization sees the same canonical port from
  // every variant: no alarm, and the socket hub binds the canonical port.
  const auto system =
      testing::build_system(2, {"port-hopping"});
  testing::LambdaGuest guest([](guest::GuestContext& ctx) {
    auto sock = ctx.socket();
    ASSERT_TRUE(sock.has_value());
    ASSERT_EQ(ctx.bind(*sock, 8080), os::Errno::kOk);
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.attack_detected);
  EXPECT_TRUE(system->hub().is_bound(8080));
}

TEST(PortHoppingVariation, InjectedRawPortDivergesAndAlarms) {
  // The attack: memory corruption overwrote the stored (reexpressed) port
  // constant with the attacker's absolute choice — the SAME raw bits in
  // every variant, bypassing the coder. Canonicalization then inverts
  // per-variant masks and the values disagree.
  const auto system =
      testing::build_system(2, {"port-hopping"});
  testing::LambdaGuest guest([](guest::GuestContext& ctx) {
    auto sock = ctx.socket();
    ASSERT_TRUE(sock.has_value());
    vkernel::SyscallArgs args;
    args.no = vkernel::Sys::kBind;
    args.ints = {static_cast<std::uint64_t>(*sock), 31337};  // raw injected port
    (void)ctx.raw_syscall(args);
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.attack_detected);
  ASSERT_TRUE(report.alarm.has_value());
  EXPECT_EQ(report.alarm->kind, core::AlarmKind::kArgumentMismatch);
}

TEST(EndpointRotationVariation, ReportsTheEndpointScanSpace) {
  const EndpointRotation rotation;
  EXPECT_EQ(rotation.keyspace_bits(2), 31.0);
  EXPECT_EQ(rotation.endpoint(), 0x80000000u);
  EXPECT_THROW(
      (void)make_builtin("endpoint-rotation", {{"endpoint", std::uint64_t{1} << 32}}),
      std::runtime_error);
}

}  // namespace
}  // namespace nv::variants
