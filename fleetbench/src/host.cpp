#include "host.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

namespace fleetbench {

namespace {

std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

HostFacts pin_to_one_cpu() {
  HostFacts facts;
  facts.compiler = compiler_name();
  facts.build_type = FLEETBENCH_BUILD_TYPE;
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  facts.online_cpus = online > 0 ? static_cast<unsigned>(online) : 0;

  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return facts;
  facts.allowed_cpus = static_cast<unsigned>(CPU_COUNT(&allowed));
  int chosen = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) chosen = cpu;
  }
  if (chosen < 0) return facts;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(chosen, &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) facts.cpu = chosen;
  return facts;
}

ProcessUsage process_usage() {
  rusage usage{};
  ProcessUsage out;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return out;
  out.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  out.voluntary_cs = static_cast<std::uint64_t>(usage.ru_nvcsw);
  out.involuntary_cs = static_cast<std::uint64_t>(usage.ru_nivcsw);
  out.max_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  return out;
}

std::optional<CpuTicks> cpu_ticks(int cpu) {
  if (cpu < 0) return std::nullopt;
  std::ifstream stat("/proc/stat");
  const std::string label = "cpu" + std::to_string(cpu);
  std::string line;
  while (std::getline(stat, line)) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    if (name != label) continue;
    // user nice system idle iowait irq softirq steal [guest guest_nice]; guest
    // time is already folded into user, so the first eight sum to the total.
    CpuTicks ticks;
    std::uint64_t value = 0;
    for (int i = 0; i < 8 && fields >> value; ++i) {
      ticks.total += value;
      if (i == 7) ticks.steal = value;
    }
    return ticks;
  }
  return std::nullopt;
}

double steal_pct(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double handoff_round_trip_us() {
  constexpr int kRounds = 2000;
  std::mutex mutex;
  std::condition_variable turn_changed;
  bool partner_turn = false;
  std::thread partner([&] {
    for (int i = 0; i < kRounds; ++i) {
      std::unique_lock lock(mutex);
      turn_changed.wait(lock, [&] { return partner_turn; });
      partner_turn = false;
      turn_changed.notify_one();
    }
  });
  std::vector<double> samples;
  samples.reserve(kRounds);
  for (int i = 0; i < kRounds; ++i) {
    const auto begin = std::chrono::steady_clock::now();
    std::unique_lock lock(mutex);
    partner_turn = true;
    turn_changed.notify_one();
    turn_changed.wait(lock, [&] { return !partner_turn; });
    lock.unlock();
    samples.push_back(
        std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - begin)
            .count());
  }
  partner.join();
  std::nth_element(samples.begin(), samples.begin() + kRounds / 2, samples.end());
  return samples[kRounds / 2];
}

}  // namespace fleetbench
