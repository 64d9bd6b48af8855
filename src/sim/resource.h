// Queueing resources for the DES: a k-server FIFO station (models CPUs and
// I/O devices in the performance experiments).
#ifndef NV_SIM_RESOURCE_H
#define NV_SIM_RESOURCE_H

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "sim/simulation.h"
#include "util/stats.h"

namespace nv::sim {

/// FIFO service station with `servers` identical servers. Jobs are served in
/// submission order; when a server frees up, the head-of-line job starts.
/// Tracks utilization and waiting-time statistics.
class FifoStation {
 public:
  FifoStation(Simulation& sim, unsigned servers, std::string name = {});

  FifoStation(const FifoStation&) = delete;
  FifoStation& operator=(const FifoStation&) = delete;

  /// Enqueue a job requiring `service` time; `on_done` fires at completion.
  void submit(SimTime service, std::function<void()> on_done);

  [[nodiscard]] unsigned servers() const noexcept { return servers_; }
  [[nodiscard]] std::size_t queue_length() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] const util::RunningStats& wait_stats() const noexcept { return wait_; }
  [[nodiscard]] const util::RunningStats& service_stats() const noexcept { return service_; }

  /// Fraction of server-time busy over [0, sim.now()].
  [[nodiscard]] double utilization() const noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  struct Job {
    SimTime service;
    SimTime enqueued_at;
    std::function<void()> on_done;
  };

  void try_dispatch();
  void finish(SimTime service, std::function<void()> on_done);

  Simulation& sim_;
  unsigned servers_;
  unsigned busy_ = 0;
  std::string name_;
  std::deque<Job> queue_;
  std::uint64_t completed_ = 0;
  SimTime busy_time_ = 0;
  util::RunningStats wait_;
  util::RunningStats service_;
};

}  // namespace nv::sim

#endif  // NV_SIM_RESOURCE_H
