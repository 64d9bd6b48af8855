#include "core/variation.h"

namespace nv::core {

using vkernel::ArgRole;
using vkernel::SyscallDescriptor;

RoleTable::RoleTable(const std::vector<VariationPtr>& variations, unsigned variant) {
  // kNone marks a slot without cross-variant meaning: nothing transforms it.
  for (std::size_t role = 1; role < vkernel::kArgRoleCount; ++role) {
    for (const auto& variation : variations) {
      if (auto transform = variation->role_transform(static_cast<ArgRole>(role), variant)) {
        by_role_[role].push_back(std::move(*transform));
      }
    }
  }
}

void RoleTable::canonicalize(vkernel::SyscallArgs& args) const {
  const SyscallDescriptor& desc = vkernel::descriptor(args.no);
  for (std::size_t i = 0; i < args.ints.size(); ++i) {
    for (const auto& transform : by_role_[static_cast<std::size_t>(desc.int_role(i))]) {
      args.ints[i] = transform.invert(args.ints[i]);
    }
  }
}

void RoleTable::reexpress(vkernel::Sys no, vkernel::SyscallResult& result) const {
  if (!result.ok()) return;
  const SyscallDescriptor& desc = vkernel::descriptor(no);
  for (const auto& transform : by_role_[static_cast<std::size_t>(desc.result_role)]) {
    result.value = transform.reexpress(result.value);
  }
  for (std::size_t i = 0; i < result.out_ints.size(); ++i) {
    for (const auto& transform : by_role_[static_cast<std::size_t>(desc.out_int_roles[i])]) {
      result.out_ints[i] = transform.reexpress(result.out_ints[i]);
    }
  }
}

}  // namespace nv::core
