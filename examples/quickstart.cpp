// Quickstart: compose a 3-variant diversity suite by name from the registry
// (address partitioning + UID XOR), validate pairwise disjointedness at
// build time, run a guest, and watch an injected UID value get caught by
// disjoint reexpression.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "core/diversity_suite.h"
#include "core/interpreter_model.h"
#include "core/nvariant_system.h"
#include "guest/runners.h"
#include "variants/registry.h"

using namespace nv;  // NOLINT

namespace {

/// A well-behaved guest: every UID constant goes through uid_const (the
/// transformed-program discipline), so the variants stay equivalent.
class GoodGuest final : public guest::GuestProgram {
 public:
  void run(guest::GuestContext& ctx) override {
    std::printf("[variant %u] geteuid() -> 0x%08x (my encoding of root)\n", ctx.variant(),
                ctx.geteuid());
    if (ctx.seteuid(ctx.uid_const(1000)) != os::Errno::kOk) ctx.exit(1);
    std::printf("[variant %u] dropped to uid_const(1000) = 0x%08x\n", ctx.variant(),
                ctx.geteuid());
    ctx.exit(0);
  }
};

/// A corrupted guest: a concrete UID value (as an attacker would inject
/// through a memory-corruption bug) flows into a privileged operation.
class CorruptedGuest final : public guest::GuestProgram {
 public:
  void run(guest::GuestContext& ctx) override {
    const os::uid_t injected = 0;  // the attacker wants root
    (void)ctx.uid_value(injected);
    (void)ctx.seteuid(injected);
    ctx.exit(0);
  }
};

/// Compose the demo suite: variations constructed by NAME with typed
/// parameters, then all (R_i, R_j) pairs validated before anything launches.
core::DiversitySuite make_suite(unsigned n_variants) {
  const auto& registry = variants::builtin_registry();
  auto uid = registry.make("uid-xor");
  auto address = registry.make("address-partitioning");
  if (!uid || !address) {
    std::fprintf(stderr, "registry error: %s\n", (!uid ? uid : address).error().c_str());
    std::exit(1);
  }
  auto suite = core::DiversitySuite::compose(n_variants, {*uid, *address});
  if (!suite) {
    std::fprintf(stderr, "suite rejected: %s\n", suite.error().c_str());
    std::exit(1);
  }
  return *std::move(suite);
}

std::unique_ptr<core::NVariantSystem> make_system(const core::DiversitySuite& suite) {
  auto system = core::NVariantSystem::Builder()
                    .suite(suite)
                    .build();
  const auto root = os::Credentials::root();
  (void)system->fs().mkdir_p("/etc", root);
  (void)system->fs().write_file("/etc/passwd", "root:x:0:0:r:/:/bin/sh\n", root);
  (void)system->fs().write_file("/etc/group", "root:x:0:\n", root);
  return system;
}

}  // namespace

int main() {
  std::printf("=== nvsys quickstart: N-variant execution with UID data diversity ===\n\n");

  // The model first (Figure 2 in one paragraph): variant 1 stores UIDs XOR
  // 0x7FFFFFFF; the kernel wrapper inverts before use. Trusted data agrees;
  // injected data cannot.
  const core::Identity<os::uid_t> r0;
  const core::XorMask r1(0x7FFFFFFF);
  std::printf("%s\n", core::explain_injection(r0, r1, 0).c_str());

  // Build-time safety: a suite whose reexpressions collide is rejected
  // before any variant launches. uid-xor with mask 0 makes R_1 == R_0.
  {
    auto bad_uid = variants::builtin_registry().make(
        "uid-xor", core::VariationParams{{"mask", std::uint64_t{0}}});
    auto rejected = core::DiversitySuite::compose(2, {*bad_uid});
    std::printf("degenerate suite (uid mask 0): %s\n\n",
                rejected ? "ACCEPTED (bug!)" : rejected.error().c_str());
  }

  // Now the real thing: THREE variants in syscall lockstep under a validated
  // uid-xor + address-partitioning suite.
  const auto suite = make_suite(3);
  std::printf("suite: %s\n\n", suite.describe().c_str());
  const auto system = make_system(suite);

  std::printf("--- normal run (transformed program) ---\n");
  GoodGuest good;
  const auto ok_report = guest::run_nvariant(*system, good);
  std::printf("completed=%s alarms=%s syscall_rounds=%llu\n\n",
              ok_report.completed ? "yes" : "no", ok_report.attack_detected ? "YES" : "none",
              static_cast<unsigned long long>(ok_report.syscall_rounds));

  std::printf("--- attacked run (injected UID 0x00000000) ---\n");
  const auto system2 = make_system(suite);
  CorruptedGuest bad;
  const auto attack_report = guest::run_nvariant(*system2, bad);
  std::printf("attack detected: %s\n", attack_report.attack_detected ? "YES" : "no");
  if (attack_report.alarm) std::printf("alarm: %s\n", attack_report.alarm->describe().c_str());
  return ok_report.completed && !ok_report.attack_detected && attack_report.attack_detected ? 0
                                                                                            : 1;
}
