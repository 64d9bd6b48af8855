// The execution monitor: receives divergence alarms and records comparison
// statistics. Any alarm is treated as an attack (the paper replaces data
// diversity's majority vote with "any divergence is a security violation").
#ifndef NV_CORE_MONITOR_H
#define NV_CORE_MONITOR_H

#include <atomic>
#include <cstdint>
#include <optional>

#include "core/alarm.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nv::core {

class Monitor {
 public:
  /// Record an alarm: the first one is the attack verdict, and later ones
  /// are dropped. Thread-safe: another thread may poll triggered() while a
  /// session runs.
  void raise(Alarm alarm);

  [[nodiscard]] bool triggered() const;
  [[nodiscard]] std::optional<Alarm> first_alarm() const;

  // Statistics for the overhead experiments. The counters have one writer,
  // the thread that runs the session's leader, so a count needs no locked
  // read-modify-write; other threads may read them.
  void note_syscall_checked() noexcept { bump(syscalls_checked_); }
  void note_detection_check() noexcept { bump(detection_checks_); }
  [[nodiscard]] std::uint64_t syscalls_checked() const noexcept {
    return syscalls_checked_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t detection_checks() const noexcept {
    return detection_checks_.load(std::memory_order_relaxed);
  }

  void reset();

 private:
  static void bump(std::atomic<std::uint64_t>& counter) noexcept {
    counter.store(counter.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  mutable util::Mutex mutex_;
  std::optional<Alarm> first_ NV_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> syscalls_checked_{0};
  std::atomic<std::uint64_t> detection_checks_{0};
};

}  // namespace nv::core

#endif  // NV_CORE_MONITOR_H
