// Adapters that run GuestPrograms on the two execution substrates:
//   - run_plain():  single process, no redundancy (configurations 1-2)
//   - run/serve/launch_nvariant(): the MVEE (configurations 3-4)
#ifndef NV_GUEST_RUNNERS_H
#define NV_GUEST_RUNNERS_H

#include <functional>
#include <string>

#include "core/nvariant_system.h"
#include "guest/guest_program.h"
#include "vkernel/kernel.h"

namespace nv::guest {

struct PlainRunResult {
  bool completed = false;
  int exit_code = 0;
  bool faulted = false;
  std::string fault_detail;

  [[nodiscard]] bool operator==(const PlainRunResult&) const = default;
};

/// Run `program` as a single unmonitored process (the baseline the attacker
/// faces without N-variant protection). `config` defaults to an identity
/// build (variant 0 semantics). A return from run() issues exit(0), as under
/// the MVEE, so both see the same calls.
[[nodiscard]] PlainRunResult run_plain(vkernel::KernelContext& ctx, GuestProgram& program,
                                       os::Credentials creds = os::Credentials::root(),
                                       core::VariantConfig config = {});

/// Wrap a GuestProgram as the per-variant body for NVariantSystem.
[[nodiscard]] core::VariantBody as_variant_body(GuestProgram& program);

/// Run to completion under the MVEE.
[[nodiscard]] core::RunReport run_nvariant(core::NVariantSystem& system, GuestProgram& program);

/// Server mode with one client, both on the calling thread
/// (core::NVariantSystem::serve()).
[[nodiscard]] core::RunReport serve_nvariant(core::NVariantSystem& system, GuestProgram& program,
                                             const std::function<void()>& client);

/// Start asynchronously (server mode); stop via system.stop().
void launch_nvariant(core::NVariantSystem& system, GuestProgram& program);

}  // namespace nv::guest

#endif  // NV_GUEST_RUNNERS_H
