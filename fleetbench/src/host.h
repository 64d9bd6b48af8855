// Host facts and process accounting for the fleet benchmark: one-CPU
// confinement, process CPU time and context switches (getrusage), and the
// pinned CPU's hypervisor steal (/proc/stat).
#ifndef FLEETBENCH_HOST_H
#define FLEETBENCH_HOST_H

#include <cstdint>
#include <optional>
#include <string>

namespace fleetbench {

struct HostFacts {
  /// The CPU the whole process runs on, or -1 when affinity could not be set.
  int cpu = -1;
  /// CPUs in the allowed set before confinement (what `nproc` prints).
  unsigned allowed_cpus = 0;
  /// CPUs online on the machine.
  unsigned online_cpus = 0;
  std::string compiler;
  std::string build_type;
};

/// Confine the calling thread to the highest-numbered CPU of its allowed
/// set. Call it before any other thread exists: every thread created later
/// (fleet workers, variant threads, clients) inherits the mask.
[[nodiscard]] HostFacts pin_to_one_cpu();

/// Cumulative usage of the whole process, every thread that has ever run in
/// it included.
struct ProcessUsage {
  double cpu_s = 0.0;             // user + system
  std::uint64_t voluntary_cs = 0;
  std::uint64_t involuntary_cs = 0;
  double max_rss_mib = 0.0;       // peak resident set
};
[[nodiscard]] ProcessUsage process_usage();

/// One CPU's cumulative tick counters from /proc/stat.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] std::optional<CpuTicks> cpu_ticks(int cpu);

/// Share of the ticks between two readings the hypervisor stole, in percent
/// (0 when no tick elapsed).
[[nodiscard]] double steal_pct(const CpuTicks& before, const CpuTicks& after);

/// Median round trip, in microseconds, of a mutex + condition-variable
/// handoff between two threads on the caller's CPU: what the host charges for
/// the two context switches a barrier round costs on one CPU. It moves with
/// host contention that steal does not show, and not with the program.
[[nodiscard]] double handoff_round_trip_us();

}  // namespace fleetbench

#endif  // FLEETBENCH_HOST_H
