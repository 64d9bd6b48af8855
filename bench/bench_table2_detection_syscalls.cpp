// Table 2 reproduction: the detection system calls — semantics demonstrated
// live on a 2-variant system, with per-call syscall-round costs.
#include <cstdio>

#include "core/nvariant_system.h"
#include "guest/runners.h"
#include "util/strings.h"
#include "util/table.h"
#include "variants/registry.h"

namespace {

using namespace nv;  // NOLINT

class DetectionGuest final : public guest::GuestProgram {
 public:
  void run(guest::GuestContext& ctx) override {
    const os::uid_t root = ctx.uid_const(0);
    const os::uid_t alice = ctx.uid_const(1000);
    // uid_value: returns its argument after the cross-variant check.
    (void)ctx.uid_value(alice);
    // cond_chk: both variants on the same path.
    (void)ctx.cond_chk(true);
    (void)ctx.cond_chk(false);
    // cc_*: evaluated on canonical values with the original operator.
    (void)ctx.cc(vkernel::CcOp::kEq, root, root);
    (void)ctx.cc(vkernel::CcOp::kNeq, root, alice);
    (void)ctx.cc(vkernel::CcOp::kLt, root, alice);
    (void)ctx.cc(vkernel::CcOp::kLeq, alice, alice);
    (void)ctx.cc(vkernel::CcOp::kGt, alice, root);
    (void)ctx.cc(vkernel::CcOp::kGeq, alice, alice);
    ctx.exit(0);
  }
};

class InjectedGuest final : public guest::GuestProgram {
 public:
  void run(guest::GuestContext& ctx) override {
    (void)ctx.uid_value(0);  // attacker-injected concrete value
    ctx.exit(0);
  }
};

std::unique_ptr<core::NVariantSystem> make_system() {
  return core::NVariantSystem::Builder()
      .variation(variants::make_builtin("uid-xor"))
      .build();
}

}  // namespace

int main() {
  std::printf("=== Table 2: Detection System Calls ===\n\n");

  util::TextTable table;
  table.set_header({"Function Signature", "Description", "Demonstrated"});
  table.add_row({"uid_t uid_value(uid_t)",
                 "Compares parameter value (across variants), returns passed value",
                 "agree: pass / injected 0x0: ALARM"});
  table.add_row({"bool cond_chk(bool)", "Checks conditional value is same between variants",
                 "agree: pass / diverge: ALARM"});
  table.add_row({"bool cc_eq/neq/lt/leq/gt/geq(uid_t, uid_t)",
                 "Compares parameters, returns truth value for comparison",
                 "canonical evaluation, identical instruction streams"});

  // Live demonstration on a 2-variant UID system.
  {
    const auto system = make_system();
    const auto root = os::Credentials::root();
    (void)system->fs().mkdir_p("/etc", root);
    (void)system->fs().write_file("/etc/passwd", "root:x:0:0:r:/:/bin/sh\n", root);
    (void)system->fs().write_file("/etc/group", "root:x:0:\n", root);
    DetectionGuest guest;
    const auto report = guest::run_nvariant(*system, guest);
    std::printf("%s\n", table.render().c_str());
    std::printf("normal run: %llu syscall rounds, %llu detection checks, alarms: %s\n",
                static_cast<unsigned long long>(report.syscall_rounds),
                static_cast<unsigned long long>(system->monitor().detection_checks()),
                report.attack_detected ? "YES (unexpected!)" : "none");
  }
  {
    const auto system = make_system();
    const auto root = os::Credentials::root();
    (void)system->fs().mkdir_p("/etc", root);
    (void)system->fs().write_file("/etc/passwd", "root:x:0:0:r:/:/bin/sh\n", root);
    (void)system->fs().write_file("/etc/group", "root:x:0:\n", root);
    InjectedGuest guest;
    const auto report = guest::run_nvariant(*system, guest);
    std::printf("injected run: uid_value(0x0) -> %s\n",
                report.alarm ? report.alarm->describe().c_str() : "no alarm (unexpected!)");
  }

  // Per-call cost in syscall rounds (the deployment-relevant metric: each
  // detection call is one extra rendezvous, §5 "the costs of these extra
  // system calls appear to be minor").
  std::printf("\nper-request cost model: 1 cc_* syscall per request (config 2), "
              "uid_value+cc on the escalation path (config 4)\n");
  return 0;
}
