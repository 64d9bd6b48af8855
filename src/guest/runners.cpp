#include "guest/runners.h"

#include "util/strings.h"

namespace nv::guest {

PlainRunResult run_plain(vkernel::KernelContext& ctx, GuestProgram& program,
                         os::Credentials creds, core::VariantConfig config) {
  PlainRunResult result;
  vkernel::PlainKernel kernel(ctx, std::string(program.name()), std::move(creds));
  kernel.process().memory().map(config.memory_base, config.memory_size);
  kernel.process().memory().set_alloc_base(config.memory_base);
  GuestContext guest_ctx(kernel, kernel.process(), std::move(config));
  try {
    program.run(guest_ctx);
    // A normal end is a return: issue its exit(0), as the MVEE does.
    if (!kernel.process().exited()) {
      vkernel::SyscallArgs exit_call;
      exit_call.no = vkernel::Sys::kExit;
      exit_call.ints = {0};
      (void)kernel.syscall(exit_call);
    }
    result.completed = true;
    result.exit_code = kernel.process().exit_code();
  } catch (const GuestExit& exit) {
    result.completed = true;
    result.exit_code = exit.code;
  } catch (const vkernel::MemoryFault& fault) {
    result.faulted = true;
    result.fault_detail = fault.what;
  } catch (const vkernel::TagFault& fault) {
    result.faulted = true;
    result.fault_detail = util::format("tag fault at 0x%llx (expected 0x%02x, found 0x%02x)",
                                       static_cast<unsigned long long>(fault.address),
                                       fault.expected, fault.found);
  }
  return result;
}

core::VariantBody as_variant_body(GuestProgram& program) {
  return [&program](unsigned /*variant*/, vkernel::SyscallPort& port, vkernel::Process& process,
                    const core::VariantConfig& config) {
    GuestContext ctx(port, process, config);
    try {
      program.run(ctx);
    } catch (const GuestExit&) {
      // Normal termination path; the exit syscall already rendezvoused.
    }
  };
}

core::RunReport run_nvariant(core::NVariantSystem& system, GuestProgram& program) {
  return system.run(as_variant_body(program));
}

core::RunReport serve_nvariant(core::NVariantSystem& system, GuestProgram& program,
                               const std::function<void()>& client) {
  return system.serve(as_variant_body(program), client);
}

void launch_nvariant(core::NVariantSystem& system, GuestProgram& program) {
  system.launch(as_variant_body(program));
}

}  // namespace nv::guest
