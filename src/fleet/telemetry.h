// Fleet-wide observability: counters are shared relaxed atomics, and each
// worker lane records job latency into its own fixed-size
// util::LatencyHistogram, which only that lane's worker writes, without a
// lock. snapshot() folds the lanes into one fleet view (counts, rates, and
// latency percentiles and buckets) without a heap allocation, so neither the
// fleet's memory nor a snapshot's cost grows with the jobs served.
//
// This is the population-level measurement the diversity literature asks for
// (Chen et al.: quantify effectiveness across many diversified instances,
// not one): attacks detected, sessions quarantined and re-diversified, and
// the latency the surviving sessions kept delivering while that happened.
#ifndef NV_FLEET_TELEMETRY_H
#define NV_FLEET_TELEMETRY_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/latency_histogram.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nv::fleet {

/// One coherent view of the fleet's counters and latency distribution.
struct FleetSnapshot {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_rejected = 0;   // backpressure refusals (try_submit on a full queue)
  std::uint64_t jobs_completed = 0;  // finished cleanly, no alarm
  std::uint64_t jobs_alarmed = 0;    // finished with a divergence alarm
  std::uint64_t job_errors = 0;      // the job callable itself threw
  /// Always 0: the fleet has one admission queue, so no lane takes a job
  /// from a peer. Kept only because fleetbench reads it; ROADMAP direction
  /// 3's benchmark change removes it together with fleet.jobs_stolen.
  std::uint64_t jobs_stolen = 0;
  std::uint64_t jobs_abandoned = 0;  // queued jobs dropped by a drain deadline
  std::uint64_t jobs_shed = 0;       // 503-style admission refusals (kShed/kDeadlineDrop)
  std::uint64_t jobs_deadline_dropped = 0;  // admitted but expired in queue (kDeadlineDrop)
  std::uint64_t admission_blocked_us = 0;   // cumulative time submit() blocked (kBlock)
  std::uint64_t sessions_quarantined = 0;
  std::uint64_t sessions_respawned = 0;
  std::uint64_t sessions_rotated = 0;  // proactive re-diversifications (campaign escalation)
  std::uint64_t lanes_retired = 0;     // lanes retired because a respawn failed
  std::uint64_t rotations_failed = 0;  // rotation kept serving a burned reexpression
  std::uint64_t campaign_alerts = 0;   // fleet-level correlated-attack alerts
  std::uint64_t remote_campaigns = 0;  // gossip-applied alerts raised on OTHER fleets
  std::uint64_t policy_tightened = 0;  // adaptive steps away from the baseline policy
  std::uint64_t policy_decayed = 0;    // adaptive steps back toward the baseline
  std::uint64_t syscall_rounds = 0;  // rendezvous barrier rounds across all sessions
  std::uint64_t trace_drops = 0;  // trace events lost to ring overflow (obs/trace.h)

  // Backpressure gauge: the deepest total queue depth any submission ever
  // observed. Against queue_capacity this reads as headroom; pinned at the
  // capacity it means the admission policy (not the workload) set the ceiling.
  std::uint64_t queue_high_watermark = 0;

  // Keyspace gauges (not counters): the SessionFactory's finite unique-
  // reexpression budget. keys_total == 0 means the spec does not randomize —
  // uniqueness is untracked and keys_remaining carries no exhaustion signal.
  std::uint64_t keys_total = 0;
  std::uint64_t keys_remaining = 0;

  std::size_t latency_count = 0;  // job latencies recorded
  std::uint64_t latency_sum_us = 0;  // exact
  double latency_mean_us = 0.0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  /// The latencies per bucket of obs::kHistogramBounds (not cumulative); the
  /// last entry is the +Inf bucket. Sums across fleets, unlike percentiles.
  std::array<std::uint64_t, obs::kHistogramBounds.size() + 1> latency_buckets{};

  [[nodiscard]] std::string describe() const;
};

class FleetTelemetry {
 public:
  explicit FleetTelemetry(unsigned lanes);

  // Counter events (thread-safe, relaxed atomics).
  void note_submitted() noexcept { jobs_submitted_.fetch_add(1, std::memory_order_relaxed); }
  void note_rejected() noexcept { jobs_rejected_.fetch_add(1, std::memory_order_relaxed); }
  void note_completed() noexcept { jobs_completed_.fetch_add(1, std::memory_order_relaxed); }
  void note_alarmed() noexcept { jobs_alarmed_.fetch_add(1, std::memory_order_relaxed); }
  void note_job_error() noexcept { job_errors_.fetch_add(1, std::memory_order_relaxed); }
  void note_quarantined() noexcept {
    sessions_quarantined_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_respawned() noexcept { sessions_respawned_.fetch_add(1, std::memory_order_relaxed); }
  void note_lane_retired() noexcept { lanes_retired_.fetch_add(1, std::memory_order_relaxed); }
  void note_abandoned() noexcept { jobs_abandoned_.fetch_add(1, std::memory_order_relaxed); }
  void note_shed() noexcept { jobs_shed_.fetch_add(1, std::memory_order_relaxed); }
  void note_deadline_dropped() noexcept {
    jobs_deadline_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  void add_admission_blocked(std::uint64_t blocked_us) noexcept {
    admission_blocked_us_.fetch_add(blocked_us, std::memory_order_relaxed);
  }
  /// Gauge: raise the high watermark to `depth` if it is a new maximum.
  void note_queue_depth(std::uint64_t depth) noexcept {
    std::uint64_t seen = queue_high_watermark_.load(std::memory_order_relaxed);
    while (seen < depth && !queue_high_watermark_.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed,
                               std::memory_order_relaxed)) {
    }
  }
  void note_rotated() noexcept { sessions_rotated_.fetch_add(1, std::memory_order_relaxed); }
  void note_rotation_failed() noexcept {
    rotations_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_campaign() noexcept { campaign_alerts_.fetch_add(1, std::memory_order_relaxed); }
  void note_remote_campaign() noexcept {
    remote_campaigns_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_policy_tightened() noexcept {
    policy_tightened_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_policy_decayed() noexcept {
    policy_decayed_.fetch_add(1, std::memory_order_relaxed);
  }
  void add_syscall_rounds(std::uint64_t rounds) noexcept {
    syscall_rounds_.fetch_add(rounds, std::memory_order_relaxed);
  }
  /// Gauge update (thread-safe): the fleet refreshes this after every draw
  /// the SessionFactory makes, so operators watch the unique-key budget drain
  /// in the same snapshot as the counters that drain it.
  void set_keyspace(std::uint64_t total, std::uint64_t remaining) noexcept {
    keys_total_.store(total, std::memory_order_relaxed);
    keys_remaining_.store(remaining, std::memory_order_relaxed);
  }

  /// Record one job's latency, in whole microseconds, into `lane`'s
  /// histogram. Only the lane's own worker records into it.
  void record_latency(unsigned lane, std::uint64_t latency_us) noexcept {
    lanes_[lane % lanes_.size()]->record(latency_us);
  }

  /// Surface `recorder`'s drop counter as FleetSnapshot::trace_drops (read at
  /// snapshot time). Null detaches. The fleet wires its FleetConfig::trace
  /// recorder here so a saturated ring is an operator-visible signal, not a
  /// silently truncated trace.
  void attach_trace(std::shared_ptr<const obs::TraceRecorder> recorder) {
    const util::MutexLock lock(trace_mutex_);
    trace_ = std::move(recorder);
  }

  /// Fold every lane's histogram plus the counters into one view. Allocates
  /// nothing; its work is bounded by the lanes' highest buckets in use.
  [[nodiscard]] FleetSnapshot snapshot() const;

  [[nodiscard]] unsigned lanes() const noexcept { return static_cast<unsigned>(lanes_.size()); }

 private:
  std::atomic<std::uint64_t> jobs_submitted_{0};
  std::atomic<std::uint64_t> jobs_rejected_{0};
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> jobs_alarmed_{0};
  std::atomic<std::uint64_t> job_errors_{0};
  std::atomic<std::uint64_t> jobs_abandoned_{0};
  std::atomic<std::uint64_t> jobs_shed_{0};
  std::atomic<std::uint64_t> jobs_deadline_dropped_{0};
  std::atomic<std::uint64_t> admission_blocked_us_{0};
  std::atomic<std::uint64_t> queue_high_watermark_{0};
  std::atomic<std::uint64_t> sessions_quarantined_{0};
  std::atomic<std::uint64_t> sessions_respawned_{0};
  std::atomic<std::uint64_t> sessions_rotated_{0};
  std::atomic<std::uint64_t> lanes_retired_{0};
  std::atomic<std::uint64_t> rotations_failed_{0};
  std::atomic<std::uint64_t> campaign_alerts_{0};
  std::atomic<std::uint64_t> remote_campaigns_{0};
  std::atomic<std::uint64_t> policy_tightened_{0};
  std::atomic<std::uint64_t> policy_decayed_{0};
  std::atomic<std::uint64_t> syscall_rounds_{0};
  std::atomic<std::uint64_t> keys_total_{0};
  std::atomic<std::uint64_t> keys_remaining_{0};
  mutable util::Mutex trace_mutex_;
  std::shared_ptr<const obs::TraceRecorder> trace_ NV_GUARDED_BY(trace_mutex_);
  /// One histogram per lane; only the lane's worker records into it.
  std::vector<std::unique_ptr<util::LatencyHistogram>> lanes_;
};

}  // namespace nv::fleet

#endif  // NV_FLEET_TELEMETRY_H
