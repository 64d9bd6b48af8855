// The execution monitor: receives divergence alarms and records comparison
// statistics. Any alarm is treated as an attack (the paper replaces data
// diversity's majority vote with "any divergence is a security violation").
#ifndef NV_CORE_MONITOR_H
#define NV_CORE_MONITOR_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/alarm.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nv::core {

class Monitor {
 public:
  using AlarmCallback = std::function<void(const Alarm&)>;

  /// Record an alarm; the first one wins as the attack verdict. Thread-safe.
  void raise(Alarm alarm);

  [[nodiscard]] bool triggered() const;
  [[nodiscard]] std::optional<Alarm> first_alarm() const;
  [[nodiscard]] std::vector<Alarm> alarms() const;

  /// Called (outside the lock) for every alarm raised.
  void set_alarm_callback(AlarmCallback callback);

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
  std::vector<Alarm> alarms_ NV_GUARDED_BY(mutex_);
  AlarmCallback callback_ NV_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> syscalls_checked_{0};
  std::atomic<std::uint64_t> detection_checks_{0};
};

}  // namespace nv::core

#endif  // NV_CORE_MONITOR_H
