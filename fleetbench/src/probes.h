// Per-layer probes: direct calls into one layer's public entry points with
// the workload's session spec, each timed as the median of many repetitions
// on the benchmark's one CPU.
#ifndef FLEETBENCH_PROBES_H
#define FLEETBENCH_PROBES_H

#include <cstdint>
#include <string>

#include "fleet/session_factory.h"

namespace fleetbench {

struct ProbeResults {
  double make_session_us = 0.0;     // SessionFactory::make_session()
  double run_exit_us = 0.0;         // NVariantSystem::run of an exit-only guest
  double barrier_call_us = 0.0;     // per seteuid under the MVEE, exit-only run removed
  double async_call_us = 0.0;       // per getpid under the MVEE (completion ring)
  double plain_call_us = 0.0;       // per seteuid under guest::run_plain
  double launch_to_bound_us = 0.0;  // launch_nvariant(MiniHttpd) until the port is bound
  double get_us = 0.0;              // one http_get round trip
  double stop_us = 0.0;             // stop() of a serving mini-httpd
  std::uint64_t checks = 0;         // outcomes checked
  std::uint64_t failed = 0;         // outcomes that were wrong
  std::string first_failure;
};

[[nodiscard]] ProbeResults run_probes(const nv::fleet::SessionSpec& spec, std::uint64_t seed);

}  // namespace fleetbench

#endif  // FLEETBENCH_PROBES_H
