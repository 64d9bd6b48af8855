#include "vkernel/syscalls.h"

#include "util/strings.h"
#include "vkernel/syscall_descriptors.h"

namespace nv::vkernel {

std::string_view sys_name(Sys sys) noexcept { return descriptor(sys).name; }

std::string_view cc_op_name(CcOp op) noexcept {
  switch (op) {
    case CcOp::kEq: return "cc_eq";
    case CcOp::kNeq: return "cc_neq";
    case CcOp::kLt: return "cc_lt";
    case CcOp::kLeq: return "cc_leq";
    case CcOp::kGt: return "cc_gt";
    case CcOp::kGeq: return "cc_geq";
  }
  return "cc_?";
}

bool cc_eval(CcOp op, os::uid_t a, os::uid_t b) noexcept {
  switch (op) {
    case CcOp::kEq: return a == b;
    case CcOp::kNeq: return a != b;
    case CcOp::kLt: return a < b;
    case CcOp::kLeq: return a <= b;
    case CcOp::kGt: return a > b;
    case CcOp::kGeq: return a >= b;
  }
  return false;
}

std::string SyscallArgs::describe() const {
  std::string out{sys_name(no)};
  out += "(";
  for (std::size_t i = 0; i < ints.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(ints[i]);
  }
  if (!str.empty() || descriptor(no).str0_role != ArgRole::kNone) {
    out += ", \"";
    out += str.size() > 32 ? str.substr(0, 29) + "..." : str;
    out += "\"";
  }
  out += ")";
  return out;
}

SysClass sys_class(Sys sys) noexcept { return descriptor(sys).cls; }

bool returns_uid(Sys sys) noexcept { return descriptor(sys).result_role == ArgRole::kUid; }

}  // namespace nv::vkernel
