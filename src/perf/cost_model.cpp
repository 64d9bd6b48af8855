#include "perf/cost_model.h"

namespace nv::perf {

std::string_view to_string(ServerSetup setup) noexcept {
  switch (setup) {
    case ServerSetup::kUnmodified: return "1: Unmodified Apache";
    case ServerSetup::kTransformed: return "2: Transformed Apache";
    case ServerSetup::kTwoVariantAddress: return "3: 2-Variant Address Space";
    case ServerSetup::kTwoVariantUid: return "4: 2-Variant UID";
  }
  return "?";
}

int CostModel::variants(ServerSetup setup) const noexcept {
  switch (setup) {
    case ServerSetup::kUnmodified:
    case ServerSetup::kTransformed:
      return 1;
    case ServerSetup::kTwoVariantAddress:
    case ServerSetup::kTwoVariantUid:
      return 2;
  }
  return 1;
}

double CostModel::demand_ms(ServerSetup setup) const noexcept {
  const int n = variants(setup);
  double cpu = cpu_ms;
  int syscalls = syscalls_per_request;
  double per_syscall_us = syscall_check_us;
  switch (setup) {
    case ServerSetup::kUnmodified:
      break;
    case ServerSetup::kTransformed:
      cpu *= transform_factor;
      syscalls += transformed_extra_syscalls;
      break;
    case ServerSetup::kTwoVariantAddress:
      per_syscall_us += rendezvous_us;
      break;
    case ServerSetup::kTwoVariantUid:
      cpu *= transform_factor;
      syscalls += transformed_extra_syscalls + uid_variation_extra_syscalls;
      per_syscall_us += rendezvous_us;
      break;
  }
  return n * cpu + static_cast<double>(syscalls) * per_syscall_us / 1000.0;
}

double CostModel::visible_demand_ms(ServerSetup setup) const noexcept {
  const double single = demand_ms(ServerSetup::kUnmodified);
  const double total = demand_ms(setup);
  if (variants(setup) == 1) return total;
  // Part of the duplicated work hides under I/O / the sibling hardware
  // thread when the server is otherwise idle.
  return single + (total - single) * (1.0 - duplicate_compute_overlap);
}

}  // namespace nv::perf
