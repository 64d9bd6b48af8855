// The policy-driven MVEE API: variation registry, diversity suites with
// all-pairs disjointedness validation, the NVariantSystem builder, and the
// declarative syscall descriptor table.
#include <gtest/gtest.h>

#include "core/diversity_suite.h"
#include "core/nvariant_system.h"
#include "core/variation_registry.h"
#include "guest/runners.h"
#include "test_helpers.h"
#include "variants/registry.h"
#include "variants/stack_reversal.h"
#include "variants/uid_variation.h"
#include "vkernel/syscall_descriptors.h"

namespace nv {
namespace {

using core::DiversitySuite;
using core::NVariantSystem;
using core::VariationParams;
using testing::LambdaGuest;
using vkernel::ArgRole;
using vkernel::ExecPolicy;
using vkernel::Sys;

const core::VariationRegistry& registry() { return variants::builtin_registry(); }

// --- registry ---------------------------------------------------------------

TEST(VariationRegistry, ConstructsEveryBuiltinByName) {
  for (const auto& name : registry().names()) {
    const auto variation = registry().make(name);
    ASSERT_TRUE(variation.has_value()) << name << ": " << variation.error();
    EXPECT_NE(*variation, nullptr);
    EXPECT_FALSE(registry().description(name).empty());
  }
  EXPECT_GE(registry().names().size(), 5u);  // the Table 1 catalog
}

TEST(VariationRegistry, UnknownNameReportsCatalog) {
  const auto result = registry().make("quantum-entanglement");
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().find("unknown variation"), std::string::npos);
  EXPECT_NE(result.error().find("uid-xor"), std::string::npos);  // catalog listed
}

TEST(VariationRegistry, AliasResolvesToSameFactory) {
  ASSERT_TRUE(registry().contains("uid-variation"));  // alias of uid-xor
  const auto via_alias = registry().make("uid-variation");
  ASSERT_TRUE(via_alias.has_value());
  EXPECT_EQ((*via_alias)->name(), "uid-variation");
}

TEST(VariationRegistry, ShadowingANameRetiresItsAliases) {
  core::VariationRegistry local;
  variants::register_builtin_variations(local);
  ASSERT_TRUE(local.contains("uid-variation"));  // alias of uid-xor
  // Shadow the primary: its aliases must not keep resolving to the old
  // factory (two names documented as equivalent diverging silently).
  local.add("uid-xor", "shadowed for test", [](const VariationParams&) {
    return util::Expected<core::VariationPtr, std::string>{
        std::make_shared<variants::StackReversal>()};
  });
  EXPECT_FALSE(local.contains("uid-variation"));
  const auto made = local.make("uid-xor");
  ASSERT_TRUE(made.has_value());
  EXPECT_EQ((*made)->name(), "stack-reversal");
}

TEST(VariationRegistry, TypedParametersReachTheVariation) {
  const auto variation = registry().make(
      "uid-xor", VariationParams{{"mask", std::uint64_t{0x00FF00FF}}});
  ASSERT_TRUE(variation.has_value());
  const auto* uid = dynamic_cast<const variants::UidVariation*>(variation->get());
  ASSERT_NE(uid, nullptr);
  EXPECT_EQ(uid->mask_for(1), 0x00FF00FFu);
}

TEST(VariationRegistry, WrongParameterTypeIsAnError) {
  const auto result =
      registry().make("uid-xor", VariationParams{{"mask", std::string("oops")}});
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().find("must be a u64"), std::string::npos);
}

TEST(VariationRegistry, MisspelledParameterIsAnError) {
  const auto result = registry().make(
      "address-partitioning", VariationParams{{"strde", std::uint64_t{4096}}});
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().find("strde"), std::string::npos);
}

TEST(VariationRegistry, ReusedParamsObjectStillCatchesMisspelledKeys) {
  // Consumption tracking is reset per make(): a key consumed by one factory
  // must not mask itself as "already read" for a factory that ignores it.
  const VariationParams params{{"stride", std::uint64_t{4096}}};
  ASSERT_TRUE(registry().make("address-partitioning", params));
  const auto reused = registry().make("uid-xor", params);
  ASSERT_FALSE(reused.has_value());
  EXPECT_NE(reused.error().find("stride"), std::string::npos);
}

TEST(VariationRegistry, FactoryValidatesParameterValues) {
  EXPECT_FALSE(
      registry().make("address-partitioning", VariationParams{{"stride", std::uint64_t{0}}}));
  EXPECT_FALSE(registry().make("instruction-tagging",
                               VariationParams{{"base-tag", std::uint64_t{0x1FF}}}));
}

// --- diversity suites -------------------------------------------------------

TEST(DiversitySuite, ComposesForTwoToFourVariantsWithAllPairsDisjoint) {
  for (unsigned n = 2; n <= 4; ++n) {
    auto suite = DiversitySuite::compose(
        n, {*registry().make("uid-xor"), *registry().make("address-partitioning"),
            *registry().make("instruction-tagging")});
    ASSERT_TRUE(suite.has_value()) << "n=" << n << ": " << suite.error();
    EXPECT_EQ(suite->n_variants(), n);
    EXPECT_EQ(suite->variations().size(), 3u);
    EXPECT_NE(suite->describe().find("across " + std::to_string(n)), std::string::npos);
  }
}

TEST(DiversitySuite, RejectsFewerThanTwoVariants) {
  const auto suite = DiversitySuite::compose(1, {*registry().make("uid-xor")});
  ASSERT_FALSE(suite.has_value());
  EXPECT_NE(suite.error().find("at least 2"), std::string::npos);
}

TEST(DiversitySuite, RejectsDegenerateUidMaskAtBuildTime) {
  // mask 0 makes R_1 identical to R_0: a §2.3 violation caught before launch.
  const auto suite = DiversitySuite::compose(
      2, {*registry().make("uid-xor", VariationParams{{"mask", std::uint64_t{0}}})});
  ASSERT_FALSE(suite.has_value());
  EXPECT_NE(suite.error().find("disjointedness violation"), std::string::npos);
}

TEST(DiversitySuite, RejectsUidMaskExhaustionAtLargeN) {
  // mask_for(i) = 0x7FFFFFFF >> (i-1) hits 0 at variant 32 — the same
  // reexpression as variant 0. The all-pairs check finds the collision.
  const auto suite = DiversitySuite::compose(33, {*registry().make("uid-xor")});
  ASSERT_FALSE(suite.has_value());
  EXPECT_NE(suite.error().find("disjointedness violation"), std::string::npos);
}

TEST(DiversitySuite, RejectsDuplicateVariation) {
  const auto suite = DiversitySuite::compose(
      2, {*registry().make("uid-xor"), *registry().make("uid-xor")});
  ASSERT_FALSE(suite.has_value());
  EXPECT_NE(suite.error().find("twice"), std::string::npos);
}

TEST(DiversitySuite, StackReversalHasNoValueDomainToViolate) {
  // Probabilistic layout variation: nothing to check, any N composes.
  EXPECT_TRUE(DiversitySuite::compose(4, {*registry().make("stack-reversal")}));
}

// --- builder ----------------------------------------------------------------

TEST(Builder, RejectsFewerThanTwoVariants) {
  auto result = NVariantSystem::Builder().n_variants(1).try_build();
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().find("at least 2"), std::string::npos);
  EXPECT_THROW((void)NVariantSystem::Builder().n_variants(0).build(), std::invalid_argument);
}

TEST(Builder, RejectsZeroMemorySize) {
  EXPECT_FALSE(NVariantSystem::Builder().memory_size(0).try_build());
}

TEST(Builder, RejectsVariantCountConflictingWithSuite) {
  auto suite = DiversitySuite::compose(3, {*registry().make("uid-xor")});
  ASSERT_TRUE(suite.has_value());
  auto result = NVariantSystem::Builder().n_variants(2).suite(*suite).try_build();
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().find("conflicts"), std::string::npos);
}

TEST(Builder, SuiteSetsVariantCount) {
  auto suite = DiversitySuite::compose(4, {*registry().make("uid-xor")});
  ASSERT_TRUE(suite.has_value());
  const auto system = NVariantSystem::Builder().suite(*suite).build();
  EXPECT_EQ(system->n_variants(), 4u);
  EXPECT_TRUE(system->sealed());
}

TEST(Builder, VariationBeforeSuiteIsMergedNotDropped) {
  // suite() and variation() are order-independent: a variation added before
  // the suite must survive into the built system, not be silently discarded.
  auto suite = DiversitySuite::compose(2, {*registry().make("address-partitioning")});
  ASSERT_TRUE(suite.has_value());
  const auto system = NVariantSystem::Builder()
                          .variation(*registry().make("uid-xor"))
                          .suite(*suite)
                          .build();
  ASSERT_EQ(system->variations().size(), 2u);
}

TEST(Builder, ValidatesAdHocVariationsAtBuildTime) {
  auto degenerate = registry().make("uid-xor", VariationParams{{"mask", std::uint64_t{0}}});
  auto result = NVariantSystem::Builder().variation(*degenerate).try_build();
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().find("disjointedness"), std::string::npos);
}

TEST(Builder, EverySystemIsSealed) {
  // The legacy mutate-then-run protocol (add_variation/mark_unshared on a
  // default-constructed system) is gone: construction goes through the
  // Builder only, and the result is always sealed against policy mutation.
  const auto bare = NVariantSystem::Builder().build();
  EXPECT_TRUE(bare->sealed());
  const auto configured = NVariantSystem::Builder()
                              .variation(*registry().make("uid-xor"))
                              .unshared("/etc/extra")
                              .build();
  EXPECT_TRUE(configured->sealed());
  EXPECT_EQ(configured->variations().size(), 1u);
}

TEST(Builder, ThreeVariantSuiteRunsEndToEnd) {
  auto suite = DiversitySuite::compose(
      3, {*registry().make("uid-xor"), *registry().make("address-partitioning")});
  ASSERT_TRUE(suite.has_value());
  const auto system = NVariantSystem::Builder().suite(*std::move(suite)).build();
  const auto root = os::Credentials::root();
  ASSERT_TRUE(system->fs().mkdir_p("/etc", root));
  ASSERT_TRUE(system->fs().write_file("/etc/passwd", "root:x:0:0:r:/:/bin/sh\n", root));
  ASSERT_TRUE(system->fs().write_file("/etc/group", "root:x:0:\n", root));

  LambdaGuest guest([](guest::GuestContext& ctx) {
    // Every variant sees root in its own encoding and can round-trip a drop.
    EXPECT_EQ(ctx.geteuid(), ctx.uid_const(0));
    EXPECT_EQ(ctx.seteuid(ctx.uid_const(1000)), os::Errno::kOk);
    EXPECT_EQ(ctx.geteuid(), ctx.uid_const(1000));
    ctx.exit(0);
  });
  const auto report = guest::run_nvariant(*system, guest);
  EXPECT_TRUE(report.completed) << (report.alarm ? report.alarm->describe() : "");
  EXPECT_FALSE(report.attack_detected);
  EXPECT_EQ(report.exit_codes.size(), 3u);

  // And the same suite still detects an injected concrete UID.
  LambdaGuest attacked([](guest::GuestContext& ctx) {
    (void)ctx.uid_value(0);
    ctx.exit(0);
  });
  const auto report2 = guest::run_nvariant(*system, attacked);
  EXPECT_TRUE(report2.attack_detected);
  ASSERT_TRUE(report2.alarm.has_value());
  EXPECT_EQ(report2.alarm->kind, core::AlarmKind::kUidCheckFailed);
}

// --- shared identity uid coder ---------------------------------------------

TEST(VariantConfig, DefaultUidCoderIsSharedSingleton) {
  const core::VariantConfig a;
  const core::VariantConfig b;
  ASSERT_NE(a.uid_coder, nullptr);
  EXPECT_EQ(a.uid_coder.get(), b.uid_coder.get());  // one immutable instance
  EXPECT_EQ(a.uid_coder->reexpress(1234), 1234u);
}

// --- syscall descriptor table -----------------------------------------------

TEST(SyscallDescriptors, EverySysEnumeratorHasACompleteDescriptor) {
  const auto& table = vkernel::descriptor_table();
  ASSERT_EQ(table.size(), vkernel::kSysCount);
  for (std::size_t i = 0; i < vkernel::kSysCount; ++i) {
    const auto sys = static_cast<Sys>(i);
    const auto& desc = vkernel::descriptor(sys);
    EXPECT_EQ(static_cast<std::size_t>(desc.no), i);
    EXPECT_FALSE(desc.name.empty());
    EXPECT_EQ(desc.name, vkernel::sys_name(sys));
    EXPECT_EQ(desc.cls, vkernel::sys_class(sys));
  }
}

TEST(SyscallDescriptors, DetectionSyscallsAreMarkedDetection) {
  for (const Sys sys : {Sys::kUidValue, Sys::kCondChk, Sys::kCcCmp}) {
    EXPECT_EQ(vkernel::descriptor(sys).exec, ExecPolicy::kDetection);
  }
  EXPECT_EQ(vkernel::descriptor(Sys::kOpen).exec, ExecPolicy::kOpen);
  EXPECT_EQ(vkernel::descriptor(Sys::kExit).exec, ExecPolicy::kExit);
}

/// The int slots of `args` whose descriptor role is kUid.
std::vector<std::size_t> uid_slots(const vkernel::SyscallArgs& args) {
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < args.ints.size(); ++i) {
    if (vkernel::descriptor(args.no).int_role(i) == ArgRole::kUid) slots.push_back(i);
  }
  return slots;
}

TEST(SyscallDescriptors, UidRolesMarkTheUidSlots) {
  vkernel::SyscallArgs args;
  args.no = Sys::kSetresuid;
  args.ints = {1, 2, 3};
  EXPECT_EQ(uid_slots(args), (std::vector<std::size_t>{0, 1, 2}));
  args.no = Sys::kCcCmp;
  args.ints = {0, 10, 20};
  EXPECT_EQ(uid_slots(args), (std::vector<std::size_t>{1, 2}));
  args.no = Sys::kSetgroups;
  args.ints = {1, 2, 3, 4, 5, 6};  // a GID list: every slot is a uid
  EXPECT_EQ(uid_slots(args), (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  args.no = Sys::kWrite;
  args.ints = {3};
  EXPECT_TRUE(uid_slots(args).empty());
}

TEST(SyscallDescriptors, ResultRolesDriveReexpression) {
  EXPECT_EQ(vkernel::descriptor(Sys::kGeteuid).result_role, ArgRole::kUid);
  EXPECT_EQ(vkernel::descriptor(Sys::kUidValue).result_role, ArgRole::kUid);
  EXPECT_EQ(vkernel::descriptor(Sys::kRead).result_role, ArgRole::kNone);
  EXPECT_TRUE(vkernel::returns_uid(Sys::kGetuid));
  EXPECT_FALSE(vkernel::returns_uid(Sys::kWrite));
}

TEST(SyscallDescriptors, FdRolesDriveSharedRouting) {
  EXPECT_EQ(vkernel::descriptor(Sys::kRead).int_role(0), ArgRole::kFd);
  EXPECT_EQ(vkernel::descriptor(Sys::kWrite).int_role(0), ArgRole::kFd);
  EXPECT_EQ(vkernel::descriptor(Sys::kSeek).exec, ExecPolicy::kFdRouted);
  EXPECT_EQ(vkernel::descriptor(Sys::kStat).str0_role, ArgRole::kPath);
  EXPECT_EQ(vkernel::descriptor(Sys::kAccept).exec, ExecPolicy::kOnceMirrorFd);
}

TEST(RoleTransforms, UidVariationRegistersOnlyTheUidRole) {
  const variants::UidVariation variation;
  EXPECT_FALSE(variation.role_transform(ArgRole::kUid, 0).has_value());  // identity variant
  const auto transform = variation.role_transform(ArgRole::kUid, 1);
  ASSERT_TRUE(transform.has_value());
  EXPECT_EQ(transform->invert(0x7FFFFFFF), 0u);
  EXPECT_EQ(transform->reexpress(0), 0x7FFFFFFFu);
  EXPECT_FALSE(variation.role_transform(ArgRole::kFd, 1).has_value());
  EXPECT_FALSE(variation.role_transform(ArgRole::kPath, 1).has_value());
}

}  // namespace
}  // namespace nv
