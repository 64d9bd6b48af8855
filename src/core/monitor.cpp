#include "core/monitor.h"

#include <atomic>
#include <utility>

#include "util/mutex.h"

namespace nv::core {

void Monitor::raise(Alarm alarm) {
  const util::MutexLock lock(mutex_);
  if (!first_.has_value()) first_ = std::move(alarm);
}

bool Monitor::triggered() const {
  const util::MutexLock lock(mutex_);
  return first_.has_value();
}

std::optional<Alarm> Monitor::first_alarm() const {
  const util::MutexLock lock(mutex_);
  return first_;
}

void Monitor::reset() {
  const util::MutexLock lock(mutex_);
  first_.reset();
  syscalls_checked_.store(0, std::memory_order_relaxed);
  detection_checks_.store(0, std::memory_order_relaxed);
}

}  // namespace nv::core
